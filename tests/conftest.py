"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.color.names import FLAG_PALETTE
from repro.color.quantization import UniformQuantizer
from repro.db.database import MultimediaDatabase
from repro.images.generators import random_palette_image
from repro.images.raster import Image
from repro.index import MBR, build_binary_histogram_index


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic RNG; tests must not depend on global random state."""
    return np.random.default_rng(20060402)


@pytest.fixture
def quantizer() -> UniformQuantizer:
    """The library-default RGB quantizer (4 divisions, 64 bins)."""
    return UniformQuantizer(4, "rgb")


@pytest.fixture
def flat_image() -> Image:
    """A 10x12 solid red image."""
    return Image.filled(10, 12, (200, 16, 46))


@pytest.fixture
def flag_like_image(rng: np.random.Generator) -> Image:
    """A small multi-region image over the flag palette."""
    return random_palette_image(rng, 16, 24, FLAG_PALETTE)


@pytest.fixture
def small_database(rng: np.random.Generator) -> MultimediaDatabase:
    """A populated database: 4 flag-like bases, 3 variants each."""
    database = MultimediaDatabase()
    base_ids = [
        database.insert_image(random_palette_image(rng, 14, 18, FLAG_PALETTE))
        for _ in range(4)
    ]
    for base_id in base_ids:
        database.augment(
            base_id,
            rng,
            variants=3,
            palette=FLAG_PALETTE,
            bound_widening_fraction=0.67,
            merge_target_pool=base_ids,
        )
    return database


@pytest.fixture
def search_binary_index():
    """The conventional §3.1 path, as a front end runs it: build a point
    index over the binary histograms, search it with the query's slab."""

    def search(database: MultimediaDatabase, query, kind: str = "rtree") -> set:
        index = build_binary_histogram_index(database.catalog, kind)
        slab = MBR.slab(
            database.quantizer.bin_count,
            query.bin_index,
            query.pct_min,
            query.pct_max,
            domain_lo=0.0,
            domain_hi=1.0,
        )
        return set(index.search(slab))

    return search


@pytest.fixture(scope="session")
def shipped_race_report():
    """One run of every race-check scenario on the shipped tree, shared
    by the tests that assert on it (clean, and not vacuous)."""
    from repro.testing.racecheck import run_race_check

    return run_race_check()
