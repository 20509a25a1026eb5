"""Range-query workloads for the performance evaluation.

The paper times "range queries in augmented databases" without fixing a
query distribution; we use a mix the prototype plausibly saw:

* **selective queries** anchored at a stored image's dominant bin, with a
  window around that image's true fraction (these hit clusters, the case
  BWM short-circuits);
* **broad "at least" queries** over random populated bins (the paper's
  "at least 25% blue" example shape);
* **miss queries** over random bins with high thresholds (mostly empty
  results — the pruning stress case).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.query import RangeQuery
from repro.db.database import MultimediaDatabase
from repro.errors import WorkloadError


def _populated_bins(database: MultimediaDatabase) -> List[int]:
    bins = set()
    for image_id in database.catalog.binary_ids():
        histogram = database.catalog.histogram_of(image_id)
        bins.update(histogram.dominant_bins(4))
    return sorted(bins)


def make_query_workload(
    database: MultimediaDatabase,
    rng: np.random.Generator,
    count: int,
) -> List[RangeQuery]:
    """A reproducible batch of ``count`` range queries for ``database``."""
    if count <= 0:
        raise WorkloadError("query count must be positive")
    binary_ids = list(database.catalog.binary_ids())
    if not binary_ids:
        raise WorkloadError("query workloads require at least one binary image")
    populated = _populated_bins(database)
    bin_count = database.quantizer.bin_count

    queries: List[RangeQuery] = []
    # Composition: 40% selective (anchored at stored images), 40% broad
    # "at least", 20% miss-heavy.  The anchored and broad queries are the
    # ones real users pose ("at least 25% blue"); the misses stress
    # pruning.
    kinds = (0, 1, 0, 1, 2)
    for index in range(count):
        kind = kinds[index % len(kinds)]
        if kind == 0:
            # Anchored: "at least X%" of a stored image's dominant bin,
            # with X just under that image's true fraction — the paper's
            # "retrieve all images that are at least 25% blue" shape,
            # guaranteed to retrieve at least its anchor.
            image_id = binary_ids[int(rng.integers(len(binary_ids)))]
            histogram = database.catalog.histogram_of(image_id)
            bin_index = histogram.dominant_bins(1)[0]
            fraction = histogram.fraction(bin_index)
            delta = float(rng.uniform(0.02, 0.15))
            queries.append(RangeQuery.at_least(bin_index, max(0.0, fraction - delta)))
        elif kind == 1:
            # Broad: "at least X%" of a populated bin.
            bin_index = populated[int(rng.integers(len(populated)))]
            queries.append(RangeQuery.at_least(bin_index, float(rng.uniform(0.1, 0.5))))
        else:
            # Miss-heavy: high threshold on an arbitrary bin.
            bin_index = int(rng.integers(bin_count))
            queries.append(RangeQuery.at_least(bin_index, float(rng.uniform(0.6, 0.95))))
    return queries

