"""Integrity checking and self-healing — the MMDBMS's CHECK and REPAIR
utilities.

A database is spread over three structures that must stay mutually
consistent: the catalog (records and reference links), the BWM
structure (Main clusters + Unclassified), and the stored histograms
themselves.  :func:`verify_integrity` cross-checks all of them and
returns one :class:`IntegrityProblem` per defect (empty when the
database is healthy).  It is the one catalog checker: ``repro check``
renders its problems, and a sharded root adds the ``DB007`` routing
check of :meth:`repro.shard.ShardedCatalog.verify_integrity`.

Codes (``DB005`` and ``DB006`` are retired and never reused):

``DB001`` dangling reference
    An edited image's base or Merge target names an id the catalog does
    not hold; a BOUNDS walk for the image would fail at query time.
``DB002`` reference cycle
    The base + Merge-target graph has a cycle; a BOUNDS walk could
    never terminate.
``DB003`` size underflow
    A geometry-only replay of the sequence (the Table 1 dimension
    formulas without the intervals) hits a Merge on an empty Defined
    Region or a zero-pixel image: the rules are inapplicable.
``DB004`` BWM placement
    A filing contradicts Figure 1's classification (bound-widening with
    a binary base -> Main under that base; anything else ->
    Unclassified), an edited image is missing or filed twice, a listed
    id is no catalog edited image, or a cluster key is not binary.  A
    non-widening image in Main makes the Figure 2 shortcut unsound.
``DB008`` derivation and referrer links
    The catalog's derivation links or referrer map disagree with the
    stored sequences.
``DB009`` stored histogram
    A binary image's stored histogram does not match its raster (full
    recomputation — the expensive check, skippable).

The reference, cycle, size and placement verdicts come from
:func:`scan_catalog`; links and histograms are checked in
:func:`verify_integrity` itself.

:func:`repair` fixes the reparable subset of those problems by
reconciling the derived structures (BWM, stored histograms) against the
catalog; see its docstring for the action classes.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Set, Tuple, Union

from repro.color.histogram import ColorHistogram
from repro.core.classify import first_non_widening, sequence_is_bound_widening
from repro.editing.executor import merge_canvas_geometry
from repro.editing.operations import Define, Merge, Mutate
from repro.editing.sequence import EditSequence
from repro.errors import DatabaseError, RuleError
from repro.images.geometry import Rect, transform_rect_bbox

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class IntegrityProblem:
    """One defect :func:`verify_integrity` found."""

    #: Stable code, ``DB001`` ... ``DB009`` (see the module docstring).
    code: str
    #: The image id (or BWM cluster key) the problem is about.
    location: str
    #: What is wrong, in one sentence.
    message: str

    def __str__(self) -> str:
        return f"{self.code} {self.location}: {self.message}"


class CatalogScan(NamedTuple):
    """What :func:`scan_catalog` found, in sorted-id order."""

    #: (edited id, the id it references that no record holds,
    #: "base" | "Merge target")
    dangling: List[Tuple[str, str, str]]
    #: id paths along base + Merge-target edges, first id == last id
    cycles: List[List[str]]
    #: (edited id, what underflows at which operation)
    underflows: List[Tuple[str, str]]
    #: (image id or cluster key, how its BWM filing contradicts Figure 1)
    placements: List[Tuple[str, str]]


def scan_catalog(database: "MultimediaDatabase") -> CatalogScan:  # noqa: F821
    """Dangling references, reference cycles, size underflows and BWM
    placement problems: ``DB001`` – ``DB004`` of :func:`verify_integrity`."""
    catalog = database.catalog
    binary_ids = set(catalog.binary_ids())
    sequences = {
        image_id: catalog.sequence_of(image_id)
        for image_id in sorted(catalog.edited_ids())
    }
    scan = CatalogScan([], [], [], [])

    for image_id, sequence in sequences.items():
        for referenced in sequence.referenced_ids():
            if not catalog.contains(referenced):
                kind = "base" if referenced == sequence.base_id else "Merge target"
                scan.dangling.append((image_id, referenced, kind))

    # Every back edge of a DFS over base + Merge-target edges is a cycle.
    WHITE, GRAY, BLACK = 0, 1, 2
    state = {image_id: WHITE for image_id in sequences}

    def visit(image_id: str, path: List[str]) -> None:
        state[image_id] = GRAY
        path.append(image_id)
        for referenced in sequences[image_id].referenced_ids():
            if referenced not in state:
                continue  # binary or dangling: cannot extend a cycle
            if state[referenced] == GRAY:
                scan.cycles.append(path[path.index(referenced):] + [referenced])
            elif state[referenced] == WHITE:
                visit(referenced, path)
        path.pop()
        state[image_id] = BLACK

    for image_id in sequences:
        if state[image_id] == WHITE:
            visit(image_id, [])

    # A dangling or cyclic image's size is unknowable, and already reported.
    unknowable = {image_id for image_id, _, _ in scan.dangling}
    unknowable.update(image_id for cycle in scan.cycles for image_id in cycle)
    scan.underflows.extend(
        _size_underflows(catalog, sequences, binary_ids, unknowable)
    )

    def misfiled(image_id: str, problem: str) -> None:
        scan.placements.append((image_id, problem))

    structure = database.bwm_structure
    # id -> every (component, cluster key) that lists it
    filings: Dict[str, List[Tuple[str, str]]] = {}
    in_main: Set[str] = set()
    for base_id, cluster in structure.clusters():
        if base_id not in binary_ids:
            misfiled(base_id, f"BWM Main cluster key {base_id!r} is not a binary image")
        for edited_id in cluster:
            if edited_id in in_main:
                misfiled(edited_id, f"edited image {edited_id!r} in two Main clusters")
            in_main.add(edited_id)
            filings.setdefault(edited_id, []).append(("Main", base_id))
    for edited_id in structure.unclassified:
        if edited_id in in_main:
            misfiled(edited_id, f"edited image {edited_id!r} in both components")
        filings.setdefault(edited_id, []).append(("Unclassified", ""))

    # One verdict per filing, not per image: an id filed twice is judged
    # in each place, and naming the cluster keeps those lines apart.
    def where(component: str, cluster: str) -> str:
        return f"Main cluster {cluster!r}" if cluster else component

    for image_id, sequence in sequences.items():
        stop = first_non_widening(sequence)
        should_be_main = stop == -1 and sequence.base_id in binary_ids
        for component, cluster in filings.pop(image_id, [("", "")]):
            if not component:
                missing = f"edited image {image_id!r} missing from the BWM structure"
                misfiled(image_id, missing)
                continue
            if (component == "Main") != should_be_main:
                wanted = "Main"
                if component == "Main" and stop == -1:
                    wanted = f"Unclassified: base {sequence.base_id!r} is not binary"
                elif component == "Main":
                    op = type(sequence.operations[stop]).__name__
                    wanted = (
                        f"Unclassified: operation {stop} ({op}) is not bound-widening"
                    )
                misfiled(
                    image_id,
                    f"edited image {image_id!r} misplaced in "
                    f"{where(component, cluster)} (classification says {wanted})",
                )
            if component == "Main" and cluster != sequence.base_id:
                misfiled(
                    image_id,
                    f"edited image {image_id!r} filed under the wrong cluster "
                    f"{cluster!r}",
                )
    for orphan_id, listed in sorted(filings.items()):
        for component, cluster in listed:
            misfiled(
                orphan_id,
                f"BWM {where(component, cluster)} member {orphan_id!r} is not a "
                f"catalog edited image",
            )
    return scan


def _size_underflows(
    catalog: "Catalog",  # noqa: F821
    sequences: Dict[str, EditSequence],
    binary_ids: Set[str],
    skip: Set[str],
) -> List[Tuple[str, str]]:
    """``(image id, problem)`` for every sequence whose geometry-only
    replay underflows.

    An image whose size is unknowable — ``skip``ped, or referencing one
    that is (or whose own walk underflows) — is not reported: the root
    cause carries its own problem.
    """
    # id -> final (height, width), the underflow message, or None while
    # being walked / when unknowable (which also stops cycles).
    outcomes: Dict[str, Union[Tuple[int, int], str, None]] = {}

    def dims_of(image_id: str) -> Optional[Tuple[int, int]]:
        if image_id not in outcomes:
            outcomes[image_id] = None
            if image_id in binary_ids:
                image = catalog.binary_record(image_id).image
                outcomes[image_id] = (image.height, image.width)
            elif image_id in sequences and image_id not in skip:
                outcomes[image_id] = walk(sequences[image_id])
        outcome = outcomes[image_id]
        return outcome if isinstance(outcome, tuple) else None

    def walk(sequence: EditSequence) -> Union[Tuple[int, int], str, None]:
        base_dims = dims_of(sequence.base_id)
        if base_dims is None:
            return None
        height, width = base_dims
        dr = Rect(0, 0, height, width)
        for index, op in enumerate(sequence.operations):
            if isinstance(op, Define):
                dr = op.rect.clip(height, width)
            elif isinstance(op, Mutate):
                if dr.is_empty:
                    continue
                image_bounds = Rect(0, 0, height, width)
                if (
                    op.is_whole_image_scale(dr, image_bounds)
                    and op.matrix.is_integer_scale()
                ):
                    height *= int(round(op.matrix.m11))
                    width *= int(round(op.matrix.m22))
                    dr = Rect(0, 0, height, width)
                else:
                    try:
                        dr = transform_rect_bbox(dr, op.matrix).clip(height, width)
                    except RuleError:
                        return f"untransformable DR at op {index}"
            elif isinstance(op, Merge):
                if dr.is_empty:
                    return (
                        f"Merge at op {index} applies to an empty Defined "
                        f"Region (size underflow)"
                    )
                if op.is_crop:
                    height, width = dr.height, dr.width
                else:
                    target_dims = dims_of(op.target_id)
                    if target_dims is None:
                        return None
                    height, width, _, _ = merge_canvas_geometry(
                        dr.height, dr.width, *target_dims, op.x, op.y
                    )
                dr = Rect(0, 0, height, width)
            # Combine / Modify never change the geometry.
            if height <= 0 or width <= 0:
                return f"zero-size image after op {index} ({height}x{width})"
        return (height, width)

    underflows = []
    for image_id in sequences:
        dims_of(image_id)
        outcome = outcomes[image_id]
        if isinstance(outcome, str):
            underflows.append((image_id, outcome))
    return underflows


def verify_integrity(
    database: "MultimediaDatabase",  # noqa: F821 - facade type, avoids import cycle
    recompute_histograms: bool = True,
) -> List[IntegrityProblem]:
    """Cross-check the database's structures; returns found problems."""
    catalog = database.catalog
    scan = scan_catalog(database)
    problems = [
        IntegrityProblem(
            "DB001",
            edited_id,
            f"edited image {edited_id!r} references missing {kind} {referenced!r}",
        )
        for edited_id, referenced, kind in scan.dangling
    ]
    problems += [
        IntegrityProblem("DB002", cycle[0], f"reference cycle: {' -> '.join(cycle)}")
        for cycle in scan.cycles
    ]
    problems += [IntegrityProblem("DB003", *found) for found in scan.underflows]
    problems += [IntegrityProblem("DB004", *found) for found in scan.placements]

    def report(code: str, location: str, message: str) -> None:
        problems.append(IntegrityProblem(code, location, message))

    binary_ids = set(catalog.binary_ids())
    edited_ids = set(catalog.edited_ids())

    # --- DB008: derivation links and referrers match sequences ----------
    for base_id in binary_ids | edited_ids:
        for child_id in catalog.derived_from(base_id):
            if child_id not in edited_ids:
                report(
                    "DB008",
                    child_id,
                    f"derivation link {base_id!r} -> {child_id!r} dangles",
                )
            elif catalog.sequence_of(child_id).base_id != base_id:
                report(
                    "DB008",
                    child_id,
                    f"derivation link {base_id!r} -> {child_id!r} disagrees "
                    "with the stored sequence",
                )
    for edited_id in edited_ids:
        sequence = catalog.sequence_of(edited_id)
        base_id = sequence.base_id
        # A missing base is DB001's to report.
        if catalog.contains(base_id) and edited_id not in catalog.derived_from(
            base_id
        ):
            report(
                "DB008",
                edited_id,
                f"sequence of {edited_id!r} references {base_id!r} but the "
                "derivation link is missing",
            )
        for target in sequence.merge_targets():
            if (
                target != base_id  # base links: checked above
                and catalog.contains(target)
                and edited_id not in catalog.referrers(target)
            ):
                report(
                    "DB008",
                    edited_id,
                    f"edited image {edited_id!r} is not listed among the "
                    f"referrers of Merge target {target!r}",
                )

    # --- DB009: histograms match rasters ---------------------------------
    if recompute_histograms:
        for image_id in binary_ids:
            record = catalog.binary_record(image_id)
            recomputed = ColorHistogram.of_image(record.image, database.quantizer)
            if recomputed != record.histogram:
                report(
                    "DB009",
                    image_id,
                    f"stored histogram of {image_id!r} does not match its raster",
                )

    return problems


def require_integrity(database: "MultimediaDatabase") -> None:  # noqa: F821
    """Raise :class:`DatabaseError` listing problems, if any."""
    problems = verify_integrity(database)
    if problems:
        raise DatabaseError(
            "integrity check failed:\n  " + "\n  ".join(map(str, problems))
        )


# ----------------------------------------------------------------------
# Self-healing — the REPAIR companion to CHECK
# ----------------------------------------------------------------------
@dataclass
class RepairReport:
    """What :func:`repair` changed, and what it could not fix.

    ``actions`` lists every applied fix; ``remaining`` is the
    post-repair :func:`verify_integrity` output — non-empty only for
    irreparable damage (catalog-level inconsistencies such as broken
    derivation links, missing references, reference cycles or size
    underflows, which have no safe automatic fix).
    """

    actions: List[str] = field(default_factory=list)
    remaining: List[IntegrityProblem] = field(default_factory=list)

    def note(self, action: str) -> None:
        """Record one applied fix (and warn: repairs mean prior damage)."""
        logger.warning("repair: %s", action)
        self.actions.append(action)

    @property
    def clean(self) -> bool:
        """True when the database verifies clean after the repair."""
        return not self.remaining

    def describe(self) -> str:
        lines = [f"repair applied {len(self.actions)} fix(es)"]
        for action in self.actions:
            lines.append(f"  {action}")
        if self.remaining:
            lines.append(f"{len(self.remaining)} problem(s) not auto-fixable:")
            for problem in self.remaining:
                lines.append(f"  {problem}")
        return "\n".join(lines)


def repair(
    database: "MultimediaDatabase",  # noqa: F821 - facade type, avoids import cycle
    recompute_histograms: bool = True,
) -> RepairReport:
    """Fix the reparable problem classes :func:`verify_integrity` finds.

    The catalog is treated as the source of truth (it holds the primary
    data: rasters and sequences); the derived structures — stored
    histograms and the BWM structure — are reconciled against it:

    * stale stored histograms are recomputed from their rasters;
    * the BWM structure is reconciled with the catalog's classification:
      dangling members evicted, missing entries inserted, misfiled or
      duplicated entries re-filed between Main and Unclassified.

    Catalog-level damage (broken derivation links, references to missing
    images, cycles, size underflows) is *not* touched — inventing or deleting primary
    data is an operator decision — and shows up in ``remaining``.
    """
    report = RepairReport()
    catalog = database.catalog
    binary_ids = set(catalog.binary_ids())

    if recompute_histograms:
        _repair_histograms(database, report)
    _repair_bwm_structure(database, report)

    if report.actions:
        database.engine.invalidate_cache()
    report.remaining = verify_integrity(
        database, recompute_histograms=recompute_histograms
    )
    assert binary_ids == set(catalog.binary_ids()), "repair must not drop records"
    return report


def _repair_histograms(database: "MultimediaDatabase", report: RepairReport) -> None:  # noqa: F821
    """Recompute stored histograms that disagree with their rasters."""
    for image_id in database.catalog.binary_ids():
        record = database.catalog.binary_record(image_id)
        recomputed = ColorHistogram.of_image(record.image, database.quantizer)
        if recomputed != record.histogram:
            record.histogram = recomputed
            report.note(f"recomputed stale histogram of {image_id!r}")


def _repair_bwm_structure(database: "MultimediaDatabase", report: RepairReport) -> None:  # noqa: F821
    """Reconcile the BWM structure with the catalog's classification."""
    catalog = database.catalog
    structure = database.bwm_structure
    binary_ids = set(catalog.binary_ids())
    edited_ids = set(catalog.edited_ids())

    desired = {}
    for edited_id in catalog.edited_ids():
        sequence = catalog.sequence_of(edited_id)
        main = sequence_is_bound_widening(sequence) and sequence.base_id in binary_ids
        desired[edited_id] = sequence.base_id if main else ""

    # Observe every current placement, including duplicates.
    placements = {}
    for base_id, cluster in structure.clusters():
        if base_id not in binary_ids:
            report.note(
                f"removed BWM cluster keyed by non-binary {base_id!r}"
            )
        for edited_id in cluster:
            placements.setdefault(edited_id, []).append(f"Main[{base_id}]")
    for edited_id in structure.unclassified:
        placements.setdefault(edited_id, []).append("Unclassified")
    for binary_id in binary_ids - set(structure.main):
        report.note(f"opened missing BWM cluster for {binary_id!r}")

    for edited_id in sorted(set(placements) - edited_ids):
        report.note(f"evicted dangling BWM member {edited_id!r}")
    for edited_id in sorted(edited_ids):
        target = desired[edited_id]
        want = f"Main[{target}]" if target else "Unclassified"
        have = placements.get(edited_id, [])
        if not have:
            report.note(
                f"inserted missing BWM entry for {edited_id!r} ({want})"
            )
        elif len(have) > 1:
            report.note(
                f"removed duplicate BWM entries for {edited_id!r} "
                f"({', '.join(sorted(have))}; kept {want})"
            )
        elif have[0] != want:
            report.note(
                f"reclassified {edited_id!r} from {have[0]} to {want}"
            )

    # Rebuild in place (the BWM processor aliases these containers).
    structure.main.clear()
    structure.unclassified.clear()
    structure._edited_location.clear()
    for binary_id in catalog.binary_ids():
        structure.insert_binary(binary_id)
    for edited_id in catalog.edited_ids():
        structure.insert_edited(edited_id, catalog.sequence_of(edited_id))
