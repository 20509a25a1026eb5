"""Static verifier for an edit-sequence catalog (``repro analyze-db``).

All checks run *offline*: they read records, sequences, and (for the
prune-power diagnostics) the bounds engine's interval walks — no raster
is ever instantiated.  Checks and finding codes:

``DB001`` dangling-reference (ERROR)
    An edited image's base or Merge target names an id the catalog does
    not hold.  A BOUNDS walk for the image would raise at query time.
``DB002`` merge-cycle (ERROR)
    The reference graph (base edges + Merge-target edges) contains a
    cycle, so a BOUNDS walk can never terminate (the engine's runtime
    cycle guard would error; this finds it statically).
``DB003`` size-underflow (ERROR)
    A dimension-only abstract walk of the sequence reaches a state where
    a Merge is applied to an empty Defined Region, or produces a
    zero-pixel image — the rules are inapplicable, so the image is
    unqueryable.
``DB004`` bwm-misclassification (ERROR)
    BWM component placement contradicts the Figure 1 classification:
    a Main-cluster member with a non-widening operation (soundness
    hazard — the cluster shortcut could return a wrong result), an
    all-widening binary-based image filed Unclassified (performance
    bug only, still reported), a missing edited image, or a cluster
    under the wrong base.
``DB005`` cache-dependency-mismatch (ERROR)
    The bounds engine's recorded reverse-dependency edges disagree with
    the catalog's sequences: an edge from an image that the dependent's
    sequence does not reference means invalidation may drop too little
    (stale results survive mutations).
``DB006`` vacuous-bounds (INFO)
    Every bin interval of an edited image spans the full ``[0, 1]``
    range — BOUNDS can never prune the image for any query, so it is
    pure overhead over linear scanning (a prune-power diagnostic, not a
    defect).
``DB007`` cross-shard-reference (ERROR)
    Sharded catalogs only (:func:`check_shard_routing`): a binary image
    parked off its hash shard, a placement entry disagreeing with the
    shard that actually holds the record, or an edited image whose base
    or Merge target resolves to a different shard (or to none) — the
    dangling-after-routing case, where every shard-local DB001 check
    passes but a scatter-gathered BOUNDS walk would still fail.

``DB001``, ``DB002`` and ``DB004`` are renderings of
:func:`repro.db.integrity.scan_catalog`, the detector ``repro check``
reports from as well; the other checks are this module's own.  All of
them read the catalog's records rather than trusting derived structures,
which is how seeded-defect fixtures (tests/analysis/test_catalog_lint.py)
can plant each defect class and assert it is caught.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.analysis.findings import AnalysisReport, Finding, Severity
from repro.db.integrity import CatalogScan, scan_catalog
from repro.editing.executor import merge_canvas_geometry
from repro.editing.operations import Define, Merge, Mutate
from repro.editing.sequence import EditSequence
from repro.errors import RuleError
from repro.images.geometry import Rect, transform_rect_bbox

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    import numpy as np

    from repro.core.bounds import BoundsEngine
    from repro.db.database import MultimediaDatabase
    from repro.shard.sharded import ShardedCatalog


def analyze_database(
    database: "MultimediaDatabase",
    *,
    with_prune_power: bool = True,
    vacuous_bin_fraction: float = 1.0,
) -> AnalysisReport:
    """Run every static catalog check; returns the combined report.

    ``with_prune_power`` controls the DB006 diagnostics (they walk every
    edited image's bounds, the only non-constant-time check);
    ``vacuous_bin_fraction`` is the fraction of bins that must be
    maximally wide before an image is reported vacuous (1.0 = all bins).
    """
    report = AnalysisReport(pass_name="catalog")
    catalog = database.catalog
    binary_ids = set(catalog.binary_ids())
    edited_ids = set(catalog.edited_ids())
    known = binary_ids | edited_ids
    sequences: Dict[str, EditSequence] = {
        image_id: catalog.sequence_of(image_id) for image_id in edited_ids
    }

    scan = scan_catalog(database)
    _report_dangling(scan, report)
    _report_cycles(scan, report)
    dangling = {image_id for image_id, _, _ in scan.dangling}
    cyclic = {image_id for cycle in scan.cycles for image_id in cycle}
    _check_sizes(database, sequences, dangling | cyclic, report)
    _report_bwm_placement(scan, sequences, report)
    _check_dependency_graph(database, sequences, known, report)
    if with_prune_power:
        _check_prune_power(
            database, edited_ids - dangling - cyclic, vacuous_bin_fraction, report
        )
    report.subjects_examined = len(known)
    return report


# ----------------------------------------------------------------------
# DB001 — dangling references
# ----------------------------------------------------------------------
def _report_dangling(scan: CatalogScan, report: AnalysisReport) -> None:
    for image_id, referenced, kind in scan.dangling:
        report.add(
            Finding(
                code="DB001",
                severity=Severity.ERROR,
                location=image_id,
                message=(
                    f"{kind} reference {referenced!r} is not in the "
                    f"catalog; BOUNDS walks for this image will fail"
                ),
                fix_hint=(
                    "restore the referenced image or delete this "
                    "edited image (repro repair reconciles derived "
                    "structures but cannot invent lost records)"
                ),
                details={"referenced": referenced},
            )
        )


# ----------------------------------------------------------------------
# DB002 — Merge/base reference cycles
# ----------------------------------------------------------------------
def _report_cycles(scan: CatalogScan, report: AnalysisReport) -> None:
    for cycle in scan.cycles:
        report.add(
            Finding(
                code="DB002",
                severity=Severity.ERROR,
                location=cycle[0],
                message=(
                    "reference cycle "
                    + " -> ".join(cycle)
                    + "; BOUNDS recursion cannot terminate"
                ),
                fix_hint=(
                    "break the cycle by deleting or re-basing one image in it"
                ),
                details={"cycle": cycle},
            )
        )


# ----------------------------------------------------------------------
# DB003 — size underflow / zero-size reachability
# ----------------------------------------------------------------------
def _dimensions_of(
    database: "MultimediaDatabase",
    image_id: str,
    sequences: Dict[str, EditSequence],
    memo: Dict[str, Optional[Tuple[int, int]]],
    stack: Set[str],
) -> Optional[Tuple[int, int]]:
    """Exact ``(height, width)`` of a stored image via geometry alone.

    Returns ``None`` when the dimensions are unknowable (dangling
    reference, cycle, or a sequence whose own walk underflows) — callers
    skip rather than double-report.
    """
    if image_id in memo:
        return memo[image_id]
    if image_id in stack:
        return None
    sequence = sequences.get(image_id)
    if sequence is None:
        try:
            record = database.catalog.binary_record(image_id)
        except Exception:
            memo[image_id] = None
            return None
        dims = (record.image.height, record.image.width)
        memo[image_id] = dims
        return dims
    stack.add(image_id)
    walk = _walk_dimensions(database, sequence, sequences, memo, stack)
    stack.discard(image_id)
    dims = walk[-1][1] if walk and walk[-1][0] is None else None
    memo[image_id] = dims
    return dims


def _walk_dimensions(
    database: "MultimediaDatabase",
    sequence: EditSequence,
    sequences: Dict[str, EditSequence],
    memo: Dict[str, Optional[Tuple[int, int]]],
    stack: Set[str],
) -> List[Tuple[Optional[str], Optional[Tuple[int, int]], Optional[int]]]:
    """Replay only the geometry of a sequence.

    Returns a list whose last element is ``(problem, dims, op_index)``:
    ``problem`` is ``None`` on success (with final ``dims``) or a
    description of the defect found at operation ``op_index``.
    """
    base_dims = _dimensions_of(database, sequence.base_id, sequences, memo, stack)
    if base_dims is None:
        return []
    height, width = base_dims
    dr = Rect(0, 0, height, width)
    for index, op in enumerate(sequence.operations):
        if isinstance(op, Define):
            dr = op.rect.clip(height, width)
        elif isinstance(op, Mutate):
            if dr.is_empty:
                continue
            image_bounds = Rect(0, 0, height, width)
            if op.is_whole_image_scale(dr, image_bounds) and op.matrix.is_integer_scale():
                sx = int(round(op.matrix.m11))
                sy = int(round(op.matrix.m22))
                height, width = height * sx, width * sy
                dr = Rect(0, 0, height, width)
            else:
                try:
                    dr = transform_rect_bbox(dr, op.matrix).clip(height, width)
                except RuleError:
                    return [(f"untransformable DR at op {index}", None, index)]
        elif isinstance(op, Merge):
            if dr.is_empty:
                return [
                    (
                        f"Merge at op {index} applies to an empty Defined "
                        f"Region (size underflow)",
                        None,
                        index,
                    )
                ]
            if op.is_crop:
                height, width = dr.height, dr.width
            else:
                target_dims = _dimensions_of(
                    database, op.target_id, sequences, memo, stack
                )
                if target_dims is None:
                    return []
                height, width, _, _ = merge_canvas_geometry(
                    dr.height, dr.width, target_dims[0], target_dims[1], op.x, op.y
                )
            dr = Rect(0, 0, height, width)
        # Combine / Modify never change the geometry.
        if height <= 0 or width <= 0:
            return [
                (
                    f"zero-size image after op {index} "
                    f"({height}x{width})",
                    None,
                    index,
                )
            ]
    return [(None, (height, width), None)]


def _check_sizes(
    database: "MultimediaDatabase",
    sequences: Dict[str, EditSequence],
    skip: Set[str],
    report: AnalysisReport,
) -> None:
    memo: Dict[str, Optional[Tuple[int, int]]] = {}
    for image_id in sorted(sequences):
        if image_id in skip:
            continue
        walk = _walk_dimensions(
            database, sequences[image_id], sequences, memo, {image_id}
        )
        if not walk:
            continue  # unknowable via dangling/cycle: reported elsewhere
        problem, _, op_index = walk[-1]
        if problem is not None:
            report.add(
                Finding(
                    code="DB003",
                    severity=Severity.ERROR,
                    location=image_id,
                    message=problem,
                    fix_hint=(
                        "fix the Define region or drop the operation; the "
                        "Table 1 Merge rule requires a non-empty DR and a "
                        "positive result size"
                    ),
                    details={"op_index": op_index},
                )
            )


# ----------------------------------------------------------------------
# DB004 — BWM placement vs. Figure 1 classification
# ----------------------------------------------------------------------
def _report_bwm_placement(
    scan: CatalogScan,
    sequences: Dict[str, EditSequence],
    report: AnalysisReport,
) -> None:
    for placed in scan.placements:
        if placed.verdict == "missing":
            why = "edited image is missing from the BWM structure entirely"
            hint = "re-run repro repair to reconcile the BWM structure"
        elif placed.verdict == "orphan":
            why = (
                f"BWM {placed.component.lower()} component lists an id the "
                f"catalog does not hold as an edited image"
            )
            hint = "remove the stale entry (repro repair does this)"
        elif placed.verdict == "wrong-cluster":
            why = (
                f"filed under cluster {placed.cluster!r} but its sequence "
                f"references base {placed.base_id!r}"
            )
            hint = "re-file the image under its own base's cluster"
        elif placed.component == "Unclassified":
            why = (
                "all rules are bound-widening and the base is binary, "
                "yet the image sits in Unclassified (it always pays the "
                "full BOUNDS walk)"
            )
            hint = "re-file under the base's Main cluster"
        else:
            if placed.stop == -1:
                why = (
                    f"filed under Main but its base {placed.base_id!r} is "
                    f"not a binary image"
                )
            else:
                op = sequences[placed.image_id].operations[placed.stop]
                why = (
                    f"filed under Main but operation {placed.stop} "
                    f"({type(op).__name__}) is not bound-widening — the "
                    f"Figure 2 cluster shortcut could return a wrong result set"
                )
            hint = "move the image to the Unclassified component"
        report.add(_bwm_finding(placed.image_id, why, hint))


def _bwm_finding(image_id: str, message: str, hint: str) -> Finding:
    return Finding(
        code="DB004",
        severity=Severity.ERROR,
        location=image_id,
        message=message,
        fix_hint=hint,
    )


# ----------------------------------------------------------------------
# DB005 — cache dependency graph vs. catalog
# ----------------------------------------------------------------------
def _check_dependency_graph(
    database: "MultimediaDatabase",
    sequences: Dict[str, EditSequence],
    known: Set[str],
    report: AnalysisReport,
) -> None:
    for referenced, dependent in database.engine.dependency_edges():
        sequence = sequences.get(dependent)
        if sequence is None:
            report.add(
                _dependency_finding(
                    dependent,
                    f"the engine records {dependent!r} as depending on "
                    f"{referenced!r}, but the catalog holds no such edited "
                    f"image",
                    {"referenced": referenced},
                )
            )
        elif referenced not in sequence.referenced_ids():
            report.add(
                _dependency_finding(
                    dependent,
                    f"the engine records a dependency on {referenced!r} that "
                    f"the stored sequence does not reference — targeted "
                    f"invalidation may keep stale entries alive",
                    {"referenced": referenced},
                )
            )
        elif referenced not in known:
            report.add(
                _dependency_finding(
                    dependent,
                    f"the engine records a dependency on unknown image "
                    f"{referenced!r}",
                    {"referenced": referenced},
                )
            )


def _dependency_finding(location: str, message: str, details: Dict) -> Finding:
    return Finding(
        code="DB005",
        severity=Severity.ERROR,
        location=location,
        message=message,
        fix_hint=(
            "flush the memo cache (engine.invalidate_cache()) so the "
            "dependency graph is re-learned from the live catalog"
        ),
        details=details,
    )


# ----------------------------------------------------------------------
# DB006 — vacuous bounds (prune power)
# ----------------------------------------------------------------------
def _walkable_fraction_bounds(
    engine: "BoundsEngine", ordered_ids: List[str]
) -> List[Tuple[str, Tuple["np.ndarray", "np.ndarray"]]]:
    """``(image_id, (lo, hi))`` fraction bounds of every walkable image.

    One columnar sweep covers the whole catalog.  A walk-breaking defect
    anywhere fails the batch; only then is each image tried on its own,
    skipping the broken ones (they carry their own findings).
    """
    try:
        return list(
            zip(ordered_ids, engine.fraction_bounds_all_bins_batch(ordered_ids))
        )
    except RuleError:
        pass
    walkable: List[Tuple[str, Tuple[np.ndarray, np.ndarray]]] = []
    for image_id in ordered_ids:
        try:
            walkable.append((image_id, engine.fraction_bounds_all_bins(image_id)))
        except RuleError:
            continue
    return walkable


def _check_prune_power(
    database: "MultimediaDatabase",
    edited_ids: Set[str],
    vacuous_bin_fraction: float,
    report: AnalysisReport,
) -> None:
    for image_id, (lo, hi) in _walkable_fraction_bounds(
        database.engine, sorted(edited_ids)
    ):
        vacuous = int(((lo <= 0.0) & (hi >= 1.0)).sum())
        if vacuous >= vacuous_bin_fraction * lo.shape[0]:
            report.add(
                Finding(
                    code="DB006",
                    severity=Severity.INFO,
                    location=image_id,
                    message=(
                        f"bounds are vacuous on {vacuous}/{lo.shape[0]} bins "
                        f"([0, 1] everywhere): BOUNDS can never prune this "
                        f"image for any query"
                    ),
                    fix_hint=(
                        "expect no pruning benefit; consider re-authoring "
                        "the sequence with tighter Defined Regions"
                    ),
                    details={"vacuous_bins": vacuous, "bins": int(lo.shape[0])},
                )
            )


# ----------------------------------------------------------------------
# DB007 — shard routing (sharded catalogs only)
# ----------------------------------------------------------------------
def check_shard_routing(sharded: "ShardedCatalog") -> AnalysisReport:
    """Verify a sharded catalog's routing invariants (``DB007``).

    Three layers, each re-derived from the shard databases rather than
    trusted from the router's in-memory placement map:

    1. every binary image sits on its hash shard;
    2. the placement map and the shards' actual holdings agree both
       ways (no phantom placements, no unrouted records);
    3. no edited image's reference (base or Merge target) resolves to a
       different shard than the image itself, or to no shard at all —
       the *dangling-after-routing* defect: per-shard DB001 checks all
       pass, yet a scatter-gathered BOUNDS walk would still fail.
    """
    from repro.shard.sharded import hash_shard

    report = AnalysisReport(pass_name="shard")
    placement = sharded.placement()
    shard_count = sharded.shard_count

    holdings: Dict[str, int] = {}
    for index in range(shard_count):
        catalog = sharded.shard_database(index).catalog
        for image_id in catalog.binary_ids():
            holdings[image_id] = index
            expected = hash_shard(image_id, shard_count)
            if expected != index:
                report.add(
                    Finding(
                        code="DB007",
                        severity=Severity.ERROR,
                        location=image_id,
                        message=(
                            f"binary image stored on shard {index} but its "
                            f"id hashes to shard {expected}; WAL replay in "
                            f"a fresh process would route it elsewhere"
                        ),
                        fix_hint=(
                            "reinsert the image through "
                            "ShardedCatalog.insert_image so the stable "
                            "hash places it"
                        ),
                        details={"shard": index, "expected_shard": expected},
                    )
                )
        for image_id in catalog.edited_ids():
            holdings[image_id] = index

    for image_id, index in sorted(placement.items()):
        if holdings.get(image_id) != index:
            actual = holdings.get(image_id)
            report.add(
                Finding(
                    code="DB007",
                    severity=Severity.ERROR,
                    location=image_id,
                    message=(
                        f"placement map says shard {index} but the record "
                        + (
                            f"actually lives on shard {actual}"
                            if actual is not None
                            else "is not held by any shard"
                        )
                    ),
                    fix_hint=(
                        "the router's placement map has drifted from the "
                        "shard databases (an out-of-band mutation?); "
                        "reopen the catalog to rebuild placement from disk"
                    ),
                    details={"placed_shard": index, "actual_shard": actual},
                )
            )
    for image_id, index in sorted(holdings.items()):
        if image_id not in placement:
            report.add(
                Finding(
                    code="DB007",
                    severity=Severity.ERROR,
                    location=image_id,
                    message=(
                        f"shard {index} holds this record but the router's "
                        f"placement map does not know it; routed reads "
                        f"(instantiate, delete) would raise UnknownObjectError"
                    ),
                    fix_hint=(
                        "mutate only through the ShardedCatalog wrapper; "
                        "reopen the catalog to rebuild placement from disk"
                    ),
                    details={"shard": index},
                )
            )

    for index in range(shard_count):
        catalog = sharded.shard_database(index).catalog
        for image_id in sorted(catalog.edited_ids()):
            sequence = catalog.sequence_of(image_id)
            for referenced in sequence.referenced_ids():
                resolved = holdings.get(referenced)
                if resolved == index:
                    continue
                kind = (
                    "base" if referenced == sequence.base_id else "Merge target"
                )
                report.add(
                    Finding(
                        code="DB007",
                        severity=Severity.ERROR,
                        location=image_id,
                        message=(
                            f"{kind} reference {referenced!r} "
                            + (
                                f"resolves to shard {resolved}, not this "
                                f"image's shard {index}"
                                if resolved is not None
                                else "resolves to no shard at all"
                            )
                            + " — dangling after routing; a scatter-"
                            "gathered BOUNDS walk would fail"
                        ),
                        fix_hint=(
                            "dependency chains must stay shard-local: "
                            "re-author the sequence against same-shard "
                            "images (the wrapper's insert_edited enforces "
                            "this; the defect means a shard database was "
                            "mutated directly)"
                        ),
                        details={
                            "referenced": referenced,
                            "shard": index,
                            "referenced_shard": resolved,
                        },
                    )
                )
    report.subjects_examined = len(holdings)
    return report
