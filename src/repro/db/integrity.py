"""Integrity checking and self-healing — the MMDBMS's CHECK and REPAIR
utilities.

A database is spread over three structures that must stay mutually
consistent: the catalog (records and reference links), the BWM
structure (Main clusters + Unclassified), and the stored histograms
themselves.  :func:`verify_integrity` cross-checks all of them and
returns a list of human-readable problems (empty when the database is
healthy).

Checks performed:

1. every catalog edited image appears in exactly one BWM component, and
   its placement matches its classification (bound-widening with a
   binary base -> Main; anything else -> Unclassified);
2. every BWM entry refers to a catalog record of the right format;
3. derivation links agree with the stored sequences' base references;
4. every referenced id (bases, Merge targets) exists, every Merge
   target lists the merging image among its referrers, and the
   reference graph is acyclic;
5. stored histograms match their raster (full recomputation — the
   expensive check, skippable).

:func:`repair` fixes the reparable subset of those problems by
reconciling the derived structures (BWM, stored histograms) against the
catalog; see its docstring for the action classes.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import List, Set

from repro.color.histogram import ColorHistogram
from repro.errors import DatabaseError

logger = logging.getLogger(__name__)


def verify_integrity(
    database: "MultimediaDatabase",  # noqa: F821 - facade type, avoids import cycle
    recompute_histograms: bool = True,
) -> List[str]:
    """Cross-check the database's structures; returns found problems."""
    problems: List[str] = []
    catalog = database.catalog
    structure = database.bwm_structure

    binary_ids = set(catalog.binary_ids())
    edited_ids = set(catalog.edited_ids())

    # --- 1 & 2: BWM component placement matches classification --------
    main_members: Set[str] = set()
    for base_id, cluster in structure.clusters():
        if base_id not in binary_ids:
            problems.append(f"BWM Main cluster key {base_id!r} is not a binary image")
        for edited_id in cluster:
            if edited_id in main_members:
                problems.append(f"edited image {edited_id!r} in two Main clusters")
            main_members.add(edited_id)
            if edited_id not in edited_ids:
                problems.append(
                    f"BWM Main member {edited_id!r} is not a catalog edited image"
                )
    unclassified = set(structure.unclassified)
    if main_members & unclassified:
        problems.append(
            f"images in both components: {sorted(main_members & unclassified)}"
        )
    placed = main_members | unclassified
    for edited_id in edited_ids - placed:
        problems.append(f"edited image {edited_id!r} missing from the BWM structure")
    for edited_id in unclassified - edited_ids:
        problems.append(
            f"BWM Unclassified member {edited_id!r} is not a catalog edited image"
        )

    from repro.core.classify import sequence_is_bound_widening

    for edited_id in edited_ids & placed:
        sequence = catalog.sequence_of(edited_id)
        should_be_main = (
            sequence_is_bound_widening(sequence) and sequence.base_id in binary_ids
        )
        is_main = edited_id in main_members
        if should_be_main != is_main:
            where = "Main" if is_main else "Unclassified"
            problems.append(
                f"edited image {edited_id!r} misplaced in {where} "
                f"(classification says {'Main' if should_be_main else 'Unclassified'})"
            )
        if is_main and edited_id in main_members:
            expected_cluster = sequence.base_id
            if edited_id not in structure.main.get(expected_cluster, []):
                problems.append(
                    f"edited image {edited_id!r} filed under the wrong cluster"
                )

    # --- 3: derivation links match sequences ---------------------------
    for base_id in binary_ids | edited_ids:
        for child_id in catalog.derived_from(base_id):
            if child_id not in edited_ids:
                problems.append(
                    f"derivation link {base_id!r} -> {child_id!r} dangles"
                )
            elif catalog.sequence_of(child_id).base_id != base_id:
                problems.append(
                    f"derivation link {base_id!r} -> {child_id!r} disagrees "
                    "with the stored sequence"
                )
    for edited_id in edited_ids:
        base_id = catalog.sequence_of(edited_id).base_id
        if edited_id not in catalog.derived_from(base_id):
            problems.append(
                f"sequence of {edited_id!r} references {base_id!r} but the "
                "derivation link is missing"
            )

    # --- 4: references exist and the graph is acyclic ------------------
    for edited_id in edited_ids:
        sequence = catalog.sequence_of(edited_id)
        for referenced in sequence.referenced_ids():
            if not catalog.contains(referenced):
                problems.append(
                    f"edited image {edited_id!r} references missing {referenced!r}"
                )
            elif (
                referenced != sequence.base_id  # base links: check 3
                and edited_id not in catalog.referrers(referenced)
            ):
                problems.append(
                    f"edited image {edited_id!r} is not listed among the "
                    f"referrers of Merge target {referenced!r}"
                )
    problems.extend(_find_cycles(catalog, edited_ids))

    # --- 5: histograms match rasters ------------------------------------
    if recompute_histograms:
        for image_id in binary_ids:
            record = catalog.binary_record(image_id)
            recomputed = ColorHistogram.of_image(record.image, database.quantizer)
            if recomputed != record.histogram:
                problems.append(
                    f"stored histogram of {image_id!r} does not match its raster"
                )

    return problems


def _find_cycles(catalog, edited_ids: Set[str]) -> List[str]:
    problems: List[str] = []
    WHITE, GRAY, BLACK = 0, 1, 2
    state = {image_id: WHITE for image_id in edited_ids}

    def visit(image_id: str, path: List[str]) -> None:
        state[image_id] = GRAY
        for referenced in catalog.sequence_of(image_id).referenced_ids():
            if referenced not in state:
                continue  # binary images terminate every path
            if state[referenced] == GRAY:
                cycle = path + [image_id, referenced]
                problems.append(f"reference cycle: {' -> '.join(cycle)}")
            elif state[referenced] == WHITE:
                visit(referenced, path + [image_id])
        state[image_id] = BLACK

    for image_id in edited_ids:
        if state[image_id] == WHITE:
            visit(image_id, [])
    return problems


def require_integrity(database: "MultimediaDatabase") -> None:  # noqa: F821
    """Raise :class:`DatabaseError` listing problems, if any."""
    problems = verify_integrity(database)
    if problems:
        raise DatabaseError(
            "integrity check failed:\n  " + "\n  ".join(problems)
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
    derivation links, missing references, or reference cycles, which
    have no safe automatic fix).
    """

    actions: List[str] = field(default_factory=list)
    remaining: List[str] = field(default_factory=list)

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
    images, cycles) is *not* touched — inventing or deleting primary
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
    from repro.core.classify import sequence_is_bound_widening

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
