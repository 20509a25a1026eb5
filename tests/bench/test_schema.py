"""Benchmark-artifact schema validation: the committed JSON results stay
well-formed, and each malformation class is named precisely."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from benchmarks import paper
from benchmarks.schema import (
    validate_provenance,
    validate_result_file,
    validate_result_payload,
    validate_results_dir,
)

RESULTS_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "results"

GOOD_PROVENANCE = {
    "git_sha": "4c1d60d7fc13cc552ad986ebfaca5308eda46c04",
    "python_version": "3.11.7",
    "timestamp_utc": "2026-08-06T17:54:46+00:00",
}


class TestCommittedArtifacts:
    def test_results_dir_validates(self):
        failures = validate_results_dir(RESULTS_DIR)
        assert failures == {}, failures

    def test_results_dir_has_artifacts(self):
        # The validator passing on an empty directory would be vacuous.
        assert list(RESULTS_DIR.glob("*.json"))

    def test_missing_directory_is_not_an_error(self, tmp_path):
        assert validate_results_dir(tmp_path / "nope") == {}


class TestProvenance:
    def test_good_stamp(self):
        assert validate_provenance(GOOD_PROVENANCE) == []

    def test_unknown_sha_allowed(self):
        stamp = dict(GOOD_PROVENANCE, git_sha="unknown")
        assert validate_provenance(stamp) == []

    @pytest.mark.parametrize("key", sorted(GOOD_PROVENANCE))
    def test_missing_key(self, key):
        stamp = {k: v for k, v in GOOD_PROVENANCE.items() if k != key}
        problems = validate_provenance(stamp)
        assert any(key in p and "missing" in p for p in problems)

    @pytest.mark.parametrize(
        "key,value",
        [
            ("git_sha", "not-a-sha!"),
            ("python_version", "py3"),
            ("timestamp_utc", "2026-08-06 17:54:46"),  # no T / offset
            ("timestamp_utc", "2026-08-06T17:54:46-05:00"),  # not UTC
        ],
    )
    def test_malformed_value(self, key, value):
        stamp = dict(GOOD_PROVENANCE, **{key: value})
        problems = validate_provenance(stamp)
        assert any(key in p and "malformed" in p for p in problems)

    def test_unexpected_key(self):
        stamp = dict(GOOD_PROVENANCE, hostname="laptop")
        assert any("hostname" in p for p in validate_provenance(stamp))

    def test_non_object_stamp(self):
        assert validate_provenance(["not", "a", "dict"])


class TestPayload:
    def test_valid_payload(self):
        payload = {"provenance": GOOD_PROVENANCE, "speedup": 5.2}
        assert validate_result_payload(payload) == []

    def test_missing_provenance(self):
        problems = validate_result_payload({"speedup": 5.2})
        assert any("provenance" in p for p in problems)

    def test_provenance_only_artifact_rejected(self):
        problems = validate_result_payload({"provenance": GOOD_PROVENANCE})
        assert any("no data" in p for p in problems)

    def test_non_object_root(self):
        assert validate_result_payload([1, 2, 3])

    def test_non_finite_number_located(self):
        payload = {
            "provenance": GOOD_PROVENANCE,
            "workloads": {"flag": {"speedup": float("nan")}},
        }
        problems = validate_result_payload(payload, "service.json")
        assert problems == [
            "service.json.workloads.flag.speedup: non-finite number"
        ]


class TestFiles:
    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        problems = validate_result_file(path)
        assert problems and "invalid JSON" in problems[0]

    def test_unreadable_file(self, tmp_path):
        assert validate_result_file(tmp_path / "absent.json")

    def test_dir_scan_names_the_bad_file(self, tmp_path):
        good = {"provenance": GOOD_PROVENANCE, "value": 1}
        (tmp_path / "good.json").write_text(json.dumps(good), encoding="utf-8")
        (tmp_path / "bad.json").write_text("[]", encoding="utf-8")
        failures = validate_results_dir(tmp_path)
        assert set(failures) == {"bad.json"}


class TestWriterIntegration:
    def test_write_json_result_output_validates(self, tmp_path):
        # The paper command's writer must produce artifacts this
        # validator accepts.
        path = paper.write_json_result(tmp_path / "probe.json", {"elapsed": 0.25})
        assert validate_result_file(path) == []
