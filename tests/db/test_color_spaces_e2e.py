"""End-to-end invariants with non-RGB quantizers (HSV and Luv).

§3.1 names RGB, HSV, and Luv as interchangeable quantization spaces;
everything downstream of the quantizer must work identically.  These
tests run the full invariant battery over databases built on HSV and
Luv quantizers.
"""

import numpy as np
import pytest

from repro.color.quantization import UniformQuantizer
from repro.workloads.datasets import build_database
from repro.workloads.queries import make_query_workload
from repro.workloads.table2 import FLAG_PARAMETERS


@pytest.fixture(scope="module", params=["hsv", "luv"])
def spaced_database(request):
    rng = np.random.default_rng(31)
    return build_database(
        FLAG_PARAMETERS.scaled(0.03),
        rng,
        quantizer=UniformQuantizer(3, request.param),
    )


class TestNonRGBSpaces:
    def test_equivalence_and_no_false_negatives(self, spaced_database, rng):
        for query in make_query_workload(spaced_database, rng, 8):
            exact = spaced_database.range_query(query, method="instantiate").matches
            rbm = spaced_database.range_query(query, method="rbm").matches
            bwm = spaced_database.range_query(query, method="bwm").matches
            assert exact <= rbm == bwm

    def test_bounds_soundness_on_stored_edits(self, spaced_database):
        quantizer = spaced_database.quantizer
        for edited_id in list(spaced_database.catalog.edited_ids())[:8]:
            truth = spaced_database.exact_histogram(edited_id)
            for bin_index in truth.dominant_bins(3):
                bounds = spaced_database.bounds(edited_id, bin_index)
                assert bounds.contains_fraction(truth.fraction(bin_index))

    def test_knn_bounded_matches_exact(self, spaced_database):
        probe = spaced_database.instantiate(
            next(iter(spaced_database.catalog.binary_ids()))
        )
        exact = spaced_database.knn(probe, 3, method="exact")
        bounded = spaced_database.knn(probe, 3, method="bounded")
        assert [round(d, 9) for d, _ in exact.neighbors] == [
            round(d, 9) for d, _ in bounded.neighbors
        ]

    def test_persistence_round_trip(self, spaced_database, tmp_path, rng):
        from repro.db.persistence import load_database, save_database

        loaded = load_database(save_database(spaced_database, tmp_path / "db"))
        assert loaded.quantizer == spaced_database.quantizer
        for query in make_query_workload(spaced_database, rng, 4):
            assert (
                loaded.range_query(query).matches
                == spaced_database.range_query(query).matches
            )

    def test_indexed_binary_path(self, spaced_database, rng, search_binary_index):
        binary_ids = set(spaced_database.catalog.binary_ids())
        for query in make_query_workload(spaced_database, rng, 5):
            via_index = search_binary_index(spaced_database, query)
            exact = {
                image_id
                for image_id in binary_ids
                if query.matches_histogram(
                    spaced_database.catalog.histogram_of(image_id)
                )
            }
            assert via_index == exact
