"""End-to-end integration scenarios across all subsystems."""

import numpy as np
import pytest

from repro import MultimediaDatabase, RangeQuery
from repro.color.names import FLAG_PALETTE
from repro.db import augment_with_distortions, load_database, save_database
from repro.images.generators import darken
from repro.workloads import (
    FLAG_PARAMETERS,
    build_database,
    make_flag_collection,
    make_query_workload,
)


class TestFullLifecycle:
    def test_build_query_persist_reload_requery(self, tmp_path, rng):
        """The complete MMDBMS lifecycle on a Table 2-shaped database."""
        database = build_database(FLAG_PARAMETERS.scaled(0.04), rng)
        queries = make_query_workload(database, rng, 10)

        results_before = [
            database.range_query(query, method="bwm").matches for query in queries
        ]
        root = save_database(database, tmp_path / "flags")
        reloaded = load_database(root)
        results_after = [
            reloaded.range_query(query, method="bwm").matches for query in queries
        ]
        assert results_before == results_after

    def test_incremental_maintenance_matches_batch(self, rng):
        """Deleting and reinserting edited images keeps BWM consistent."""
        database = build_database(FLAG_PARAMETERS.scaled(0.03), rng)
        edited_ids = list(database.catalog.edited_ids())
        victims = edited_ids[::3]
        sequences = {
            edited_id: database.catalog.sequence_of(edited_id)
            for edited_id in victims
        }
        for edited_id in victims:
            database.delete_edited(edited_id)
        for edited_id in victims:
            database.insert_edited(sequences[edited_id], image_id=edited_id)

        for query in make_query_workload(database, rng, 6):
            rbm = database.range_query(query, method="rbm").matches
            bwm = database.range_query(query, method="bwm").matches
            assert rbm == bwm

    def test_all_methods_pipeline_on_mixed_database(self, rng):
        """RBM/BWM/instantiate plus kNN on one database, coherently."""
        database = MultimediaDatabase()
        flags = make_flag_collection(rng, 6)
        base_ids = [database.insert_image(flag) for flag in flags]
        for base_id in base_ids:
            database.augment(
                base_id, rng, variants=2, palette=FLAG_PALETTE,
                bound_widening_fraction=0.5, merge_target_pool=base_ids,
            )
            augment_with_distortions(database, base_id)

        for query in make_query_workload(database, rng, 8):
            exact = database.range_query(query, method="instantiate").matches
            rbm = database.range_query(query, method="rbm").matches
            bwm = database.range_query(query, method="bwm").matches
            assert exact <= rbm == bwm

        probe = darken(database.instantiate(base_ids[0]), 0.55)
        exact_knn = database.knn(probe, 4, method="exact")
        bounded_knn = database.knn(probe, 4, method="bounded")
        assert exact_knn.ids() == bounded_knn.ids()


class TestCrossSubsystemConsistency:
    def test_indexed_path_agrees_with_processors_on_binaries(
        self, rng, search_binary_index
    ):
        database = build_database(FLAG_PARAMETERS.scaled(0.04), rng)
        binary_ids = set(database.catalog.binary_ids())
        for query in make_query_workload(database, rng, 8):
            via_index = search_binary_index(database, query)
            via_bwm = database.range_query(query, method="bwm").matches
            assert via_index == via_bwm & binary_ids

    def test_text_and_programmatic_queries_agree(self, rng):
        database = build_database(FLAG_PARAMETERS.scaled(0.04), rng)
        text_result = database.text_query("at least 20% red")
        bin_index = database.quantizer.bin_of((200, 16, 46))
        programmatic = database.range_query(RangeQuery.at_least(bin_index, 0.2))
        assert text_result.matches == programmatic.matches

    def test_bounds_contain_truth_for_every_generated_edit(self, rng):
        """Soundness over the actual workload generator's output."""
        database = build_database(FLAG_PARAMETERS.scaled(0.03), rng)
        quantizer = database.quantizer
        for edited_id in database.catalog.edited_ids():
            truth = database.exact_histogram(edited_id)
            for bin_index in truth.dominant_bins(3):
                bounds = database.bounds(edited_id, bin_index)
                assert bounds.contains_fraction(truth.fraction(bin_index))
            assert truth.total == database.bounds(edited_id, 0).total

    def test_storage_report_consistent_with_catalog(self, rng):
        database = build_database(FLAG_PARAMETERS.scaled(0.03), rng)
        report = database.storage_report()
        assert report.binary_images == database.catalog.binary_count
        assert report.edited_images == database.catalog.edited_count
        manual_sequence_bytes = sum(
            database.catalog.sequence_of(i).storage_size_bytes()
            for i in database.catalog.edited_ids()
        )
        assert report.edited_sequence_bytes == manual_sequence_bytes
