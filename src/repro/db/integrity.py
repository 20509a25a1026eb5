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

The placement verdicts of checks 1 and 2 (missing, misplaced, wrong
cluster, orphan entry), the missing references and the cycles of check 4
come from :func:`scan_catalog`, the one detector ``repro analyze-db``
renders its ``DB004`` / ``DB001`` / ``DB002`` findings from as well; the
rest (duplicate filings, cluster keys, derivation links, the referrer
map, histograms) is checked here only.

:func:`repair` fixes the reparable subset of those problems by
reconciling the derived structures (BWM, stored histograms) against the
catalog; see its docstring for the action classes.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Set, Tuple

from repro.color.histogram import ColorHistogram
from repro.core.classify import first_non_widening, sequence_is_bound_widening
from repro.errors import DatabaseError

logger = logging.getLogger(__name__)


# ----------------------------------------------------------------------
# The one detector behind ``repro check`` and ``repro analyze-db``
# ----------------------------------------------------------------------
class PlacementVerdict(NamedTuple):
    """One BWM filing that disagrees with Figure 1, or a catalog edited
    image with no filing at all."""

    image_id: str
    verdict: str  # "missing" | "misplaced" | "wrong-cluster" | "orphan"
    component: str  # where it is filed: "Main" | "Unclassified" | "" (missing)
    cluster: str  # the Main cluster key it is filed under, else ""
    base_id: str = ""  # what its sequence references (orphans have none)
    stop: int = -1  # index of its first non-widening operation, -1 for none


class CatalogScan(NamedTuple):
    """What :func:`scan_catalog` found, in sorted-id order."""

    #: (edited id, the id it references that no record holds,
    #: "base" | "Merge target")
    dangling: List[Tuple[str, str, str]]
    #: id paths along base + Merge-target edges, first id == last id
    cycles: List[List[str]]
    placements: List[PlacementVerdict]


def scan_catalog(database: "MultimediaDatabase") -> CatalogScan:  # noqa: F821
    """Dangling references, reference cycles and BWM placement verdicts
    (rendered by :func:`verify_integrity` and by
    :func:`repro.analysis.catalog_lint.analyze_database`)."""
    catalog = database.catalog
    binary_ids = set(catalog.binary_ids())
    sequences = {
        image_id: catalog.sequence_of(image_id)
        for image_id in sorted(catalog.edited_ids())
    }
    scan = CatalogScan([], [], [])

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

    # One verdict per filing, not per image: an id the structure lists
    # twice is judged in each place (the double filing itself is
    # verify_integrity's to report).
    structure = database.bwm_structure
    # id -> every (component, cluster key) that lists it
    filings: Dict[str, List[Tuple[str, str]]] = {}
    for base_id, cluster in structure.clusters():
        for edited_id in cluster:
            filings.setdefault(edited_id, []).append(("Main", base_id))
    for edited_id in structure.unclassified:
        filings.setdefault(edited_id, []).append(("Unclassified", ""))
    for image_id, sequence in sequences.items():
        stop = first_non_widening(sequence)
        should_be_main = stop == -1 and sequence.base_id in binary_ids
        for component, cluster in filings.pop(image_id, [("", "")]):
            if not component:
                verdict = "missing"
            elif (component == "Main") != should_be_main:
                verdict = "misplaced"
            elif component == "Main" and cluster != sequence.base_id:
                verdict = "wrong-cluster"
            else:
                continue
            scan.placements.append(
                PlacementVerdict(
                    image_id, verdict, component, cluster, sequence.base_id, stop
                )
            )
    for orphan_id, listed in sorted(filings.items()):
        for component, cluster in listed:
            scan.placements.append(
                PlacementVerdict(orphan_id, "orphan", component, cluster)
            )
    return scan


def verify_integrity(
    database: "MultimediaDatabase",  # noqa: F821 - facade type, avoids import cycle
    recompute_histograms: bool = True,
) -> List[str]:
    """Cross-check the database's structures; returns found problems."""
    problems: List[str] = []
    catalog = database.catalog
    structure = database.bwm_structure
    scan = scan_catalog(database)

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
    both = main_members.intersection(structure.unclassified)
    if both:
        problems.append(f"images in both components: {sorted(both)}")
    for placed in scan.placements:
        image_id = placed.image_id
        # One verdict per filing: naming the cluster keeps the lines of
        # an id filed under two Main clusters apart.
        where = placed.component
        if placed.component == "Main":
            where = f"Main cluster {placed.cluster!r}"
        if placed.verdict == "missing":
            problems.append(f"edited image {image_id!r} missing from the BWM structure")
        elif placed.verdict == "orphan":
            problems.append(
                f"BWM {where} member {image_id!r} is not a catalog edited image"
            )
        else:
            if placed.verdict == "misplaced":
                wanted = "Unclassified" if placed.component == "Main" else "Main"
                problems.append(
                    f"edited image {image_id!r} misplaced in {where} "
                    f"(classification says {wanted})"
                )
            if placed.component == "Main" and placed.cluster != placed.base_id:
                problems.append(
                    f"edited image {image_id!r} filed under the wrong cluster "
                    f"{placed.cluster!r}"
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
        if not catalog.contains(base_id):
            continue  # a missing reference: check 4 reports it
        if edited_id not in catalog.derived_from(base_id):
            problems.append(
                f"sequence of {edited_id!r} references {base_id!r} but the "
                "derivation link is missing"
            )

    # --- 4: references exist and the graph is acyclic ------------------
    for edited_id, referenced, _ in scan.dangling:
        problems.append(
            f"edited image {edited_id!r} references missing {referenced!r}"
        )
    for edited_id in edited_ids:
        sequence = catalog.sequence_of(edited_id)
        for target in sequence.merge_targets():
            if (
                target != sequence.base_id  # base links: check 3
                and catalog.contains(target)
                and edited_id not in catalog.referrers(target)
            ):
                problems.append(
                    f"edited image {edited_id!r} is not listed among the "
                    f"referrers of Merge target {target!r}"
                )
    for cycle in scan.cycles:
        problems.append(f"reference cycle: {' -> '.join(cycle)}")

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
