"""Unit tests for dataset builders and query workloads."""

import numpy as np
import pytest

from repro.core.query import RangeQuery
from repro.errors import WorkloadError
from repro.workloads.datasets import (
    build_database,
    build_flag_database,
    build_helmet_database,
)
from repro.workloads.queries import make_query_workload
from repro.workloads.table2 import FLAG_PARAMETERS, HELMET_PARAMETERS


class TestBuildDatabase:
    def test_table2_defaults(self, rng):
        database = build_database(HELMET_PARAMETERS.scaled(0.1), rng)
        summary = database.structure_summary()
        assert summary["binary_images"] == 12
        assert summary["edited_images"] == 36
        # Global 80/20 split.
        assert summary["main_edited"] == 29
        assert summary["unclassified"] == 7

    def test_edited_percentage_controls_split(self, rng):
        params = HELMET_PARAMETERS.scaled(0.1)  # 48 images total
        database = build_database(params, rng, edited_percentage=75.0)
        summary = database.structure_summary()
        assert summary["binary_images"] + summary["edited_images"] == 48
        assert summary["edited_images"] == 36

    def test_percentage_validation(self, rng):
        params = HELMET_PARAMETERS.scaled(0.1)
        with pytest.raises(WorkloadError):
            build_database(params, rng, edited_percentage=0.0)
        with pytest.raises(WorkloadError):
            build_database(params, rng, edited_percentage=100.0)

    def test_ops_per_edited_honored(self, rng):
        params = HELMET_PARAMETERS.scaled(0.1)
        database = build_database(params, rng, ops_per_edited=9)
        lengths = [
            len(database.catalog.sequence_of(edited_id))
            for edited_id in database.catalog.edited_ids()
        ]
        assert min(lengths) >= 9

    def test_widening_override(self, rng):
        params = HELMET_PARAMETERS.scaled(0.1)
        database = build_database(params, rng, bound_widening_fraction=1.0)
        assert database.structure_summary()["unclassified"] == 0

    def test_every_edited_image_instantiable(self, rng):
        database = build_database(FLAG_PARAMETERS.scaled(0.03), rng)
        for edited_id in database.catalog.edited_ids():
            database.instantiate(edited_id)

    def test_convenience_builders(self, rng):
        helmet = build_helmet_database(rng, scale=0.05)
        flag = build_flag_database(rng, scale=0.02)
        assert helmet.structure_summary()["binary_images"] == 6
        assert flag.structure_summary()["binary_images"] == 5

    def test_unknown_dataset_name(self, rng):
        from repro.workloads.table2 import DatasetParameters

        params = DatasetParameters("satellite", 4, 1, 0.5, 20, 20)
        with pytest.raises(WorkloadError):
            build_database(params, rng)


class TestQueryWorkloads:
    def test_reproducible(self, small_database):
        a = make_query_workload(small_database, np.random.default_rng(3), 9)
        b = make_query_workload(small_database, np.random.default_rng(3), 9)
        assert a == b

    def test_count_and_types(self, small_database, rng):
        queries = make_query_workload(small_database, rng, 12)
        assert len(queries) == 12
        assert all(isinstance(q, RangeQuery) for q in queries)

    def test_selective_queries_hit_something(self, small_database, rng):
        queries = make_query_workload(small_database, rng, 30)
        # Every third query is anchored at a stored image's dominant bin,
        # so a healthy fraction of the workload has nonempty results.
        hits = sum(
            bool(len(small_database.range_query(query))) for query in queries
        )
        assert hits >= 10

    def test_requires_positive_count(self, small_database, rng):
        with pytest.raises(WorkloadError):
            make_query_workload(small_database, rng, 0)

    def test_requires_binary_images(self, rng):
        from repro.db.database import MultimediaDatabase

        with pytest.raises(WorkloadError):
            make_query_workload(MultimediaDatabase(), rng, 3)
