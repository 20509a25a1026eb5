"""Seeded Table 2 flag corpus whose edit sequences stay shard-local.

The recipe is :func:`repro.workloads.datasets.build_database`'s — flags
cycling through every style, 3 edited variants per base dealt round-robin,
80% bound-widening-only, sequences extended to 5 operations — with one
change: a Merge target is drawn only from bases that hash to the same
shard as the sequence's base.  ``build_database`` picks targets from the
whole catalog, and feeding its output to a 4-shard ``ShardedCatalog``
loses ~4% of the edited images to ``CrossShardReferenceError``; here no
insert is rejected, so every front end holds the same images.

The corpus is plain data (ids, rasters, sequences): every front end and
the oracle ingest it through their own public ``insert_*`` calls.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.editing.recipes import (
    build_variant,
    recipe_multi_recolor,
    recipe_recolor,
    recipe_regional_blur,
    recipe_shift,
)
from repro.editing.sequence import EditSequence
from repro.images.raster import Image
from repro.shard import hash_shard
from repro.workloads import FLAG_PARAMETERS, make_flag_collection
from repro.workloads.flags import FLAG_RECIPE_PALETTE

#: Table 2: edited variants per base image.
VARIANTS_PER_BASE = FLAG_PARAMETERS.edited_per_binary

#: Dimension-preserving bound-widening recipes that are safe after any
#: head recipe (the same pool ``build_database`` extends sequences with).
_TAIL_RECIPES = (
    recipe_regional_blur,
    recipe_recolor,
    recipe_multi_recolor,
    recipe_shift,
)


@dataclass(frozen=True)
class Corpus:
    """``bases`` then ``edited``, in insertion order."""

    bases: Tuple[Tuple[str, Image], ...]
    edited: Tuple[Tuple[str, EditSequence], ...]

    def __len__(self) -> int:
        return len(self.bases) + len(self.edited)


@dataclass
class Ledger:
    """Counts every call made on the program's behalf and its outcome.

    An exception is a failed operation, never a crash of the run: the
    first few tracebacks are kept for the report.
    """

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)

    def call(self, function: Callable[..., object], *args: object) -> object:
        """``function(*args)``; ``None`` (and one failure) when it raises."""
        self.attempted += 1
        try:
            return function(*args)
        except Exception:  # boundary: the run must go on and report it
            self.note_failure()
            return None

    def note_failure(self) -> None:
        """Record the exception being handled as one failed operation."""
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(traceback.format_exc(limit=4))


def make_corpus(seed: int, binary_count: int, shard_count: int = 1) -> Corpus:
    """``binary_count`` flags plus 3 edited variants each, from ``seed``."""
    rng = np.random.default_rng(seed)
    params = FLAG_PARAMETERS
    height, width = params.image_height, params.image_width
    images = make_flag_collection(rng, binary_count, height, width)
    bases = tuple((f"img-{i + 1}", image) for i, image in enumerate(images))

    by_shard: Dict[int, List[str]] = {}
    for base_id, _ in bases:
        by_shard.setdefault(hash_shard(base_id, shard_count), []).append(base_id)

    edited_count = binary_count * VARIANTS_PER_BASE
    widening = np.zeros(edited_count, dtype=bool)
    widening[: int(round(edited_count * params.bound_widening_fraction))] = True
    rng.shuffle(widening)

    edited: List[Tuple[str, EditSequence]] = []
    for index in range(edited_count):
        base_id = bases[index % binary_count][0]
        target = None
        if not widening[index]:
            pool = [
                other
                for other in by_shard[hash_shard(base_id, shard_count)]
                if other != base_id
            ]
            if pool:
                target = pool[int(rng.integers(len(pool)))]
        operations = list(
            build_variant(
                rng,
                height,
                width,
                FLAG_RECIPE_PALETTE,
                bound_widening=bool(widening[index]),
                merge_target=target,
            )
        )
        while len(operations) < params.average_ops_per_edited:
            tail = _TAIL_RECIPES[int(rng.integers(len(_TAIL_RECIPES)))]
            operations.extend(tail(rng, height, width, FLAG_RECIPE_PALETTE))
        edited.append(
            (f"edit-{index + 1}", EditSequence(base_id, tuple(operations)))
        )
    return Corpus(bases, tuple(edited))


def ingest(front_end: object, corpus: Corpus, ledger: Ledger) -> None:
    """Load ``corpus`` through ``front_end``'s public insert calls."""
    for image_id, image in corpus.bases:
        ledger.call(front_end.insert_image, image, image_id)  # type: ignore[attr-defined]
    for image_id, sequence in corpus.edited:
        ledger.call(front_end.insert_edited, sequence, image_id)  # type: ignore[attr-defined]
