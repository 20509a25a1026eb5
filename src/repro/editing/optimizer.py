"""Edit-sequence optimizer: shrink stored sequences, preserve semantics.

Edit sequences accumulate dead weight as editing sessions append
operations: consecutive ``Define``s where only the last matters, Modifys
whose colors are equal, identity Mutates, blurs on empty regions.
Since the sequence *is* the storage format (§2), normalizing it saves
bytes and — more importantly for query processing — rule applications:
BOUNDS walks every operation of every unpruned edited image.

Rewrites applied (each justified against the executor semantics in
:mod:`repro.editing.executor`):

1. **Define collapsing** — of consecutive Defines only the last is
   observable (a Define reads nothing and overwrites the whole DR).
2. **Trailing-Define removal** — a Define with no subsequent operation
   has no effect on the final raster.
3. **Identity-Modify removal** — ``Modify(c, c)`` never changes a pixel.
4. **Identity-Mutate removal** — the identity matrix moves nothing
   (executor: whole-image integer scale by 1 when the DR covers the
   image, otherwise a forward map to the same positions after the DR is
   vacated and rewritten — both leave every pixel in place; the DR
   bounding box is unchanged too).
5. **Dead-region elimination** — Combine/Modify/Mutate after a Define
   that is *statically known empty* (empty before clipping, i.e.
   zero-area rectangle can never intersect any canvas) are no-ops.

Rewrites must also never *weaken* BWM classification: every rewrite only
removes operations, and removing an operation cannot make a sequence
non-bound-widening, so an optimized Main-component sequence stays in
Main.  The property suite checks both invariants (identical
instantiation; classification monotonicity) on random sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.editing.operations import (
    Combine,
    Define,
    Modify,
    Mutate,
    Operation,
)
from repro.editing.sequence import EditSequence


@dataclass(frozen=True)
class OptimizationReport:
    """What the optimizer did to one sequence."""

    original_ops: int
    optimized_ops: int
    original_bytes: int
    optimized_bytes: int

    @property
    def ops_removed(self) -> int:
        """Operations eliminated."""
        return self.original_ops - self.optimized_ops

    @property
    def bytes_saved(self) -> int:
        """Serialized bytes saved."""
        return self.original_bytes - self.optimized_bytes


def _is_identity_mutate(op: Operation) -> bool:
    if not isinstance(op, Mutate):
        return False
    matrix = op.matrix
    return (
        matrix.m11 == 1.0
        and matrix.m22 == 1.0
        and matrix.m12 == 0.0
        and matrix.m21 == 0.0
        and matrix.m13 == 0.0
        and matrix.m23 == 0.0
    )


def _is_identity_modify(op: Operation) -> bool:
    return isinstance(op, Modify) and op.rgb_old == op.rgb_new


def optimize_operations(operations: Tuple[Operation, ...]) -> Tuple[Operation, ...]:
    """Apply all rewrites to an operation tuple until a fixed point."""
    current = list(operations)
    while True:
        rewritten = _one_pass(current)
        if rewritten == current:
            return tuple(rewritten)
        current = rewritten


def _one_pass(operations: List[Operation]) -> List[Operation]:
    # Rewrites 3 and 4: pure no-op operations.
    kept = [
        op
        for op in operations
        if not _is_identity_modify(op) and not _is_identity_mutate(op)
    ]

    # Rewrite 1: of consecutive Defines, keep only the last.
    collapsed: List[Operation] = []
    for op in kept:
        if isinstance(op, Define) and collapsed and isinstance(collapsed[-1], Define):
            collapsed[-1] = op
        else:
            collapsed.append(op)

    # Rewrite 5: operations governed by a statically-empty Define are
    # no-ops (Merge is NOT removed — the executor rejects it, and the
    # optimizer must not mask errors).  Note Define itself validates
    # non-emptiness, so this rewrite currently never fires for sequences
    # built through the public constructors; it guards hand-built tuples.
    filtered: List[Operation] = []
    dead_region = False
    for op in collapsed:
        if isinstance(op, Define):
            dead_region = op.rect.is_empty
            filtered.append(op)
        elif dead_region and isinstance(op, (Combine, Modify, Mutate)):
            continue
        else:
            filtered.append(op)

    # Rewrite 2: a trailing Define is unobservable.
    while filtered and isinstance(filtered[-1], Define):
        filtered.pop()
    return filtered


def optimize_sequence(sequence: EditSequence) -> Tuple[EditSequence, OptimizationReport]:
    """Optimize one sequence; returns the rewritten sequence and a report."""
    optimized_ops = optimize_operations(sequence.operations)
    optimized = EditSequence(sequence.base_id, optimized_ops)
    report = OptimizationReport(
        original_ops=len(sequence),
        optimized_ops=len(optimized),
        original_bytes=sequence.storage_size_bytes(),
        optimized_bytes=optimized.storage_size_bytes(),
    )
    return optimized, report


def optimize_database(database: "MultimediaDatabase") -> OptimizationReport:  # noqa: F821
    """Optimize every stored edit sequence in place.

    Sequences are re-filed through the normal delete/insert path so the
    BWM structure stays consistent; ids are preserved.  An edited image
    cannot be deleted while other edits build on it, so a rewritten
    sequence takes its transitive referrers out with it (dependents
    first) and they come back in their original insertion order — which
    is a topological order, as every insert requires its references to
    exist.  Returns the aggregate report.
    """
    catalog = database.catalog
    total_original_ops = 0
    total_optimized_ops = 0
    total_original_bytes = 0
    total_optimized_bytes = 0
    sequences = {}
    pending = []
    for edited_id in catalog.edited_ids():
        sequence = catalog.sequence_of(edited_id)
        optimized, report = optimize_sequence(sequence)
        sequences[edited_id] = optimized
        total_original_ops += report.original_ops
        total_optimized_ops += report.optimized_ops
        total_original_bytes += report.original_bytes
        total_optimized_bytes += report.optimized_bytes
        if optimized != sequence:
            pending.append(edited_id)
    refile = set()
    while pending:
        edited_id = pending.pop()
        if edited_id not in refile:
            refile.add(edited_id)
            pending.extend(catalog.referrers(edited_id))
    ordered = [edited_id for edited_id in sequences if edited_id in refile]
    for edited_id in reversed(ordered):
        database.delete_edited(edited_id)
    for edited_id in ordered:
        database.insert_edited(sequences[edited_id], image_id=edited_id)
    return OptimizationReport(
        original_ops=total_original_ops,
        optimized_ops=total_optimized_ops,
        original_bytes=total_original_bytes,
        optimized_bytes=total_optimized_bytes,
    )
