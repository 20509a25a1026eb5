"""Dataset builders: augmented flag/helmet databases per Table 2.

:func:`build_database` turns a :class:`DatasetParameters` column into a
populated :class:`MultimediaDatabase`.  ``edited_percentage`` reproduces
the Figure 3/4 x-axis — the *percentage of database images stored as
editing operations* — by holding the total image count fixed while
shifting the binary/edited split.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.color.quantization import UniformQuantizer
from repro.db.database import MultimediaDatabase
from repro.editing.operations import Operation
from repro.editing.recipes import (
    build_variant,
    recipe_multi_recolor,
    recipe_recolor,
    recipe_regional_blur,
    recipe_shift,
)
from repro.editing.sequence import EditSequence
from repro.errors import WorkloadError
from repro.images.raster import ColorTuple, Image
from repro.workloads.flags import FLAG_RECIPE_PALETTE, make_flag_collection
from repro.workloads.helmets import HELMET_RECIPE_PALETTE, make_helmet_collection
from repro.workloads.table2 import (
    FLAG_PARAMETERS,
    HELMET_PARAMETERS,
    DatasetParameters,
)

#: Recipes that are safe to append after any head recipe: they never
#: change image dimensions and never require a non-empty DR, so chains
#: stay executable no matter what preceded them.  All bound-widening, so
#: appending them preserves the head's classification.
_SAFE_TAIL_RECIPES = (
    recipe_regional_blur,
    recipe_recolor,
    recipe_multi_recolor,
    recipe_shift,
)


def _extend_to_target_ops(
    rng: np.random.Generator,
    operations: List[Operation],
    target_ops: int,
    height: int,
    width: int,
    palette: Sequence[ColorTuple],
) -> List[Operation]:
    """Append safe recipes until the sequence reaches ``target_ops``."""
    while len(operations) < target_ops:
        tail = _SAFE_TAIL_RECIPES[int(rng.integers(len(_SAFE_TAIL_RECIPES)))]
        operations.extend(tail(rng, height, width, palette))
    return operations


def _make_base_images(
    params: DatasetParameters, rng: np.random.Generator, count: int
) -> List[Image]:
    if params.name == "flag":
        return make_flag_collection(
            rng, count, params.image_height, params.image_width
        )
    if params.name == "helmet":
        return make_helmet_collection(
            rng, count, params.image_height, params.image_width
        )
    raise WorkloadError(f"unknown dataset {params.name!r}; expected flag or helmet")


def recipe_palette_for(params: DatasetParameters) -> Sequence[ColorTuple]:
    """The Modify/recolor palette matching the dataset domain."""
    return FLAG_RECIPE_PALETTE if params.name == "flag" else HELMET_RECIPE_PALETTE


def build_database(
    params: DatasetParameters,
    rng: np.random.Generator,
    edited_percentage: Optional[float] = None,
    quantizer: Optional[UniformQuantizer] = None,
    bound_widening_fraction: Optional[float] = None,
    ops_per_edited: Optional[int] = None,
) -> MultimediaDatabase:
    """Build an augmented database for one Table 2 column.

    Parameters
    ----------
    edited_percentage:
        When given (0 < p < 100), the total image count stays at
        ``params.total_images`` and ``p%`` of it is stored as edit
        sequences (the Figure 3/4 sweep).  When omitted, the Table 2
        defaults (``binary_images`` bases x ``edited_per_binary``
        variants) apply.
    bound_widening_fraction, ops_per_edited:
        Ablation overrides (A1/A2) for the Table 2 defaults.
    """
    total = params.total_images
    if edited_percentage is None:
        binary_count = params.binary_images
        edited_count = params.edited_images
    else:
        if not 0.0 < edited_percentage < 100.0:
            raise WorkloadError(
                f"edited_percentage must be in (0, 100), got {edited_percentage}"
            )
        edited_count = int(round(total * edited_percentage / 100.0))
        binary_count = total - edited_count
        if binary_count < 1:
            raise WorkloadError("at least one binary image is required")

    widening = (
        params.bound_widening_fraction
        if bound_widening_fraction is None
        else bound_widening_fraction
    )
    target_ops = (
        params.average_ops_per_edited if ops_per_edited is None else ops_per_edited
    )
    palette = recipe_palette_for(params)

    database = MultimediaDatabase(quantizer=quantizer)
    base_ids = [
        database.insert_image(image)
        for image in _make_base_images(params, rng, binary_count)
    ]

    # The bound-widening split is decided globally (Table 2 counts the
    # whole database), then edited images are dealt round-robin over the
    # bases so every BWM Main cluster gets a comparable share.
    widening_count = int(round(edited_count * widening))
    widening_flags = np.zeros(edited_count, dtype=bool)
    widening_flags[:widening_count] = True
    rng.shuffle(widening_flags)

    for edited_index in range(edited_count):
        base_id = base_ids[edited_index % binary_count]
        record = database.catalog.binary_record(base_id)
        target_pool = [b for b in base_ids if b != base_id]
        target = None
        if not widening_flags[edited_index] and target_pool:
            target = target_pool[int(rng.integers(len(target_pool)))]
        operations = build_variant(
            rng,
            record.image.height,
            record.image.width,
            palette,
            bound_widening=bool(widening_flags[edited_index]),
            merge_target=target,
        )
        operations = _extend_to_target_ops(
            rng,
            list(operations),
            target_ops,
            record.image.height,
            record.image.width,
            palette,
        )
        database.insert_edited(EditSequence(base_id, tuple(operations)))
    return database


def build_helmet_database(
    rng: np.random.Generator, scale: float = 1.0, **overrides
) -> MultimediaDatabase:
    """The helmet database at Table 2 defaults (scaled for tests)."""
    return build_database(HELMET_PARAMETERS.scaled(scale), rng, **overrides)


def build_flag_database(
    rng: np.random.Generator, scale: float = 1.0, **overrides
) -> MultimediaDatabase:
    """The flag database at Table 2 defaults (scaled for tests)."""
    return build_database(FLAG_PARAMETERS.scaled(scale), rng, **overrides)
