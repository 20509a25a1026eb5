"""Unit and property tests for batch query processing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import BatchBWMProcessor, BatchRBMProcessor
from repro.core.query import RangeQuery
from repro.errors import QueryError
from repro.workloads.datasets import build_flag_database
from repro.workloads.queries import make_query_workload


@pytest.fixture(scope="module")
def database():
    return build_flag_database(np.random.default_rng(77), scale=0.04)


class TestBatchEquivalence:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=12, deadline=None)
    def test_batch_matches_single_for_both_methods(self, database, seed):
        rng = np.random.default_rng(seed)
        queries = make_query_workload(database, rng, 7)
        for method in ("rbm", "bwm"):
            batch = database.range_query_batch(queries, method=method)
            single = [database.range_query(q, method=method) for q in queries]
            assert [b.matches for b in batch] == [s.matches for s in single]

    def test_duplicate_queries_get_identical_results(self, database):
        query = RangeQuery.at_least(0, 0.1)
        batch = database.range_query_batch([query, query, query])
        assert batch[0].matches == batch[1].matches == batch[2].matches

    def test_batch_shares_bounds_across_same_bin_queries(self, database):
        """Same-bin queries pay the edited images' rules once, not twice."""
        queries_same_bin = [
            RangeQuery.at_least(5, 0.1),
            RangeQuery.at_least(5, 0.6),
        ]
        batch = database.range_query_batch(queries_same_bin, method="rbm")
        single_work = sum(
            database.range_query(q, method="rbm").stats.rules_applied
            for q in queries_same_bin
        )
        # Both results share one QueryStats; the batch applied rules for
        # one bin only, i.e. half of the per-query total.
        assert batch[0].stats.rules_applied * 2 == single_work

    def test_bwm_batch_never_does_more_rule_work(self, database):
        rng = np.random.default_rng(3)
        queries = make_query_workload(database, rng, 9)
        rbm_batch = database.range_query_batch(queries, method="rbm")
        bwm_batch = database.range_query_batch(queries, method="bwm")
        assert (
            bwm_batch[0].stats.rules_applied <= rbm_batch[0].stats.rules_applied
        )


class TestBatchValidation:
    def test_empty_batch_rejected(self, database):
        with pytest.raises(QueryError):
            database.range_query_batch([])

    def test_instantiate_method_rejected(self, database):
        with pytest.raises(QueryError):
            database.range_query_batch([RangeQuery.at_least(0, 0.5)], method="instantiate")

    def test_direct_processor_empty_batch(self, database):
        rbm = BatchRBMProcessor(
            database.bwm_structure, database.catalog, database.engine
        )
        with pytest.raises(QueryError):
            rbm.process_batch([])
        bwm = BatchBWMProcessor(
            database.bwm_structure, database.catalog, database.engine
        )
        with pytest.raises(QueryError):
            bwm.process_batch([])

    def test_bin_validated(self, database):
        from repro.errors import ColorError

        with pytest.raises(ColorError):
            database.range_query_batch([RangeQuery.at_least(64, 0.5)])
