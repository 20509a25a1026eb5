"""Targeted tests for branches the main suites exercise only indirectly."""

import numpy as np
import pytest

from repro.core.query import ConjunctiveQuery, RangeQuery
from repro.images.raster import Image


class TestConjunctiveQueryProtocol:
    def test_len_and_iter(self):
        a = RangeQuery.at_least(0, 0.1)
        b = RangeQuery.at_most(1, 0.5)
        query = ConjunctiveQuery((a, b))
        assert len(query) == 2
        assert list(query) == [a, b]


class TestVAFileBoxInsert:
    def test_point_box_insert_path(self):
        from repro.index.mbr import MBR
        from repro.index.vafile import VAFile

        vafile = VAFile()
        vafile.insert(MBR.point([0.25, 0.75]), "a")
        assert len(vafile) == 1
        assert vafile.search(MBR([0.2, 0.7], [0.3, 0.8])) == ["a"]


class TestStorageWithCustomInstantiator:
    def test_measure_storage_uses_callback(self):
        from repro.db.database import MultimediaDatabase
        from repro.db.storage import measure_storage
        from repro.editing.sequence import EditSequence

        database = MultimediaDatabase()
        base = database.insert_image(Image.filled(4, 4, (1, 1, 1)))
        database.insert_edited(EditSequence(base))

        calls = []

        def instantiate(image_id):
            calls.append(image_id)
            return database.instantiate(image_id)

        report = measure_storage(database.catalog, instantiate)
        assert len(calls) == 1
        assert report.edited_if_instantiated_bytes > 0


class TestSweepWithInstantiateMethod:
    def test_three_method_sweep(self):
        from repro.bench.runner import run_figure_sweep
        from repro.workloads.table2 import HELMET_PARAMETERS

        sweep = run_figure_sweep(
            HELMET_PARAMETERS,
            scale=0.05,
            queries_per_point=3,
            edited_percentages=(50.0,),
            methods=("rbm", "bwm", "instantiate"),
        )
        point = sweep.points[0]
        assert set(point.measurements) == {"rbm", "bwm", "instantiate"}
        # The naive method is the cost ceiling on any non-trivial database.
        assert point.seconds("instantiate") > point.seconds("bwm")


class TestEngineCacheDirectly:
    def test_invalidate_clears_hits_path(self):
        from repro.color.histogram import ColorHistogram
        from repro.color.quantization import UniformQuantizer
        from repro.core.bounds import BoundsEngine
        from repro.editing.operations import Combine
        from repro.editing.sequence import EditSequence

        quantizer = UniformQuantizer(2, "rgb")
        image = Image.filled(4, 4, (0, 0, 0))
        records = {
            "b": (ColorHistogram.of_image(image, quantizer), 4, 4),
            "e": EditSequence("b", (Combine.box(),)),
        }

        class Store:
            def lookup_for_bounds(self, image_id):
                return records[image_id]

        engine = BoundsEngine(Store(), quantizer, cache_enabled=True)
        first = engine.bounds("e", 0)
        assert engine.cache_hits == 0
        second = engine.bounds("e", 0)
        assert engine.cache_hits == 1
        assert first == second
        engine.invalidate_cache()
        engine.bounds("e", 0)
        assert engine.cache_hits == 1  # miss after invalidation


class TestKNNResultHelpers:
    def test_ids_ordering(self):
        from repro.db.processors import KNNResult

        result = KNNResult(((0.1, "a"), (0.5, "b")))
        assert result.ids() == ("a", "b")
