"""AST linter: self-clean on the shipped tree, exact codes on seeded
violations, pragma escape hatch honoured."""

from __future__ import annotations

import re
import textwrap
from pathlib import Path

import pytest

import repro
from repro.analysis import LINT_RULES, Severity, lint_paths, lint_source
from repro.analysis.ast_lint import PACKAGE_ORDER

SRC_ROOT = Path(repro.__file__).parent


def _lint(code: str, path: str) -> list:
    return lint_source(textwrap.dedent(code), path)


class TestShippedTree:
    def test_source_tree_is_clean(self):
        report = lint_paths([SRC_ROOT])
        assert report.ok, report.describe()
        assert report.clean, report.describe()
        assert report.subjects_examined > 50

    def test_pragmas_are_load_bearing(self):
        # Removing every escape hatch in the shipped tree must resurface
        # exactly the five record-kind appliers' AL002 sites — otherwise
        # some pragma is dead weight.
        flagged = []
        for file in sorted(SRC_ROOT.rglob("*.py")):
            source = file.read_text(encoding="utf-8")
            stripped = re.sub(r"#\s*repro-lint:\s*disable=\S+", "", source)
            flagged.extend(lint_source(stripped, str(file)))
        assert sorted(
            (f.code, Path(f.location).parent.name, Path(f.location).name.split(":")[0])
            for f in flagged
        ) == [("AL002", "shard", "records.py")] * 5

    def test_every_shipped_package_has_a_place_in_the_order(self):
        # A package missing from PACKAGE_ORDER would escape AL005.
        shipped = {
            path.stem
            for path in SRC_ROOT.iterdir()
            if path.suffix == ".py" or (path / "__init__.py").is_file()
        }
        declared = {name for level in PACKAGE_ORDER for name in level}
        assert shipped == declared


class TestRuleRegistry:
    def test_registry_covers_the_documented_codes(self):
        # AL001 and AL003 are retired; their codes are never reused.
        assert set(LINT_RULES) == {"AL002", "AL004", "AL005", "AL006"}

    def test_scopes(self):
        assert LINT_RULES["AL002"].applies_to("src/repro/service/executor.py")
        assert not LINT_RULES["AL002"].applies_to("src/repro/db/database.py")
        assert LINT_RULES["AL005"].applies_to("src/repro/db/catalog.py")
        assert not LINT_RULES["AL005"].applies_to("benchmarks/paper.py")
        assert LINT_RULES["AL004"].applies_to("src/repro/anything.py")
        assert LINT_RULES["AL006"].applies_to("src/repro/anything.py")

    def test_al002_scope_covers_the_shard_mutators(self):
        rule = LINT_RULES["AL002"]
        assert rule.applies_to("src/repro/shard/sharded.py")
        assert rule.applies_to("src/repro/shard/records.py")
        assert rule.applies_to("src/repro/shard/compactor.py")
        # ...but not the whole shard package: the WAL and manifest
        # modules never touch a catalog.
        assert not rule.applies_to("src/repro/shard/wal.py")


class TestAL002UnlockedMutation:
    def test_mutation_outside_write_lock_flagged(self):
        code = """
        class Service:
            def insert(self, image):
                return self._database.insert_image(image)
        """
        findings = _lint(code, "src/repro/service/executor.py")
        assert [f.code for f in findings] == ["AL002"]
        assert "insert_image" in findings[0].message

    def test_mutation_inside_write_lock_clean(self):
        code = """
        class Service:
            def insert(self, image):
                with self._rwlock.write_locked():
                    return self._database.insert_image(image)
        """
        assert _lint(code, "src/repro/service/executor.py") == []

    def test_read_lock_does_not_count(self):
        code = """
        class Service:
            def insert(self, image):
                with self._rwlock.read_locked():
                    return self._database.insert_image(image)
        """
        assert [
            f.code for f in _lint(code, "src/repro/service/executor.py")
        ] == ["AL002"]

    def test_catalog_receiver_also_checked(self):
        code = """
        class Service:
            def drop(self, image_id):
                self.catalog.remove_edited(image_id)
        """
        assert [
            f.code for f in _lint(code, "src/repro/service/admin.py")
        ] == ["AL002"]

    def test_unrelated_receiver_ignored(self):
        code = """
        class Service:
            def bump(self):
                self.metrics.insert_image("nope")
        """
        assert _lint(code, "src/repro/service/executor.py") == []


class TestAL002ShardScope:
    """The rule's extension to the sharded tier's mutators."""

    def test_catalog_mutation_in_sharded_module_flagged(self):
        code = """
        class ShardedCatalog:
            def insert(self, image, shard):
                shard.database.insert_image(image)
        """
        findings = _lint(code, "src/repro/shard/sharded.py")
        assert [f.code for f in findings] == ["AL002"]

    # The two compaction commits go through the one committer,
    # ``ShardedCatalog._commit``, like every other mutation.
    def test_commit_materialization_outside_lock_flagged(self):
        code = """
        class ShardedCatalog:
            def mutate(self, shard, image_id, image):
                self._commit(shard, "update_image", image_id, image)
        """
        findings = _lint(code, "src/repro/shard/sharded.py")
        assert [f.code for f in findings] == ["AL002"]
        assert "_commit" in findings[0].message

    def test_rollback_materialization_outside_lock_flagged(self):
        code = """
        class Compactor:
            def rollback(self, shard, image_id):
                self.catalog._commit(shard, "decompact", image_id)
        """
        findings = _lint(code, "src/repro/shard/compactor.py")
        assert [f.code for f in findings] == ["AL002"]

    def test_committer_under_write_lock_clean(self):
        code = """
        class Compactor:
            def run(self, shard, image_id, staged):
                with shard.lock.write_locked():
                    self.catalog._commit(shard, "compact", image_id, staged)
        """
        assert _lint(code, "src/repro/shard/compactor.py") == []

    def test_same_call_outside_the_scoped_modules_ignored(self):
        code = """
        class Helper:
            def run(self, shard, image_id, staged):
                self._commit(shard, "compact", image_id, staged)
        """
        assert _lint(code, "src/repro/shard/wal.py") == []

    def test_shipped_shard_pragmas_are_load_bearing(self):
        # The record-kind table's appliers mutate under a lock the
        # *caller* holds (``_commit``'s callers, the replayer's loop);
        # their function-level pragmas are the only thing keeping the
        # shipped tree clean.  Strip them and the five catalog-mutator
        # call sites must resurface.
        source = (SRC_ROOT / "shard" / "records.py").read_text(
            encoding="utf-8"
        ).replace("# repro-lint: disable=AL002", "")
        flagged = [
            f
            for f in lint_source(source, "src/repro/shard/records.py")
            if f.code == "AL002"
        ]
        assert len(flagged) == 5


class TestFunctionLevelPragma:
    def test_pragma_on_def_line_covers_the_body(self):
        code = """
        class Service:
            def replay(self, entry):  # repro-lint: disable=AL002
                self._database.insert_image(entry.image)
                self._database.delete_edited(entry.image_id)
        """
        assert _lint(code, "src/repro/service/executor.py") == []

    def test_pragma_scope_ends_with_the_function(self):
        code = """
        class Service:
            def replay(self, entry):  # repro-lint: disable=AL002
                self._database.insert_image(entry.image)

            def other(self, entry):
                self._database.insert_image(entry.image)
        """
        findings = _lint(code, "src/repro/service/executor.py")
        assert [f.code for f in findings] == ["AL002"]

    def test_pragma_only_suppresses_its_codes(self):
        code = """
        class Service:
            def replay(self, entry):  # repro-lint: disable=AL002
                self._database.insert_image(entry.image)
                return entry.fraction_lo == 0.5
        """
        findings = _lint(code, "src/repro/service/executor.py")
        assert [f.code for f in findings] == ["AL004"]


class TestAL004FloatEquality:
    @pytest.mark.parametrize("attr", ["fraction_lo", "fraction_hi", "pct_min", "pct_max"])
    def test_attribute_equality_flagged(self, attr):
        code = f"""
        def check(state, query):
            return state.{attr} == query.threshold
        """
        findings = _lint(code, "src/repro/core/bounds.py")
        assert [f.code for f in findings] == ["AL004"]
        assert attr in findings[0].message

    def test_not_equal_also_flagged(self):
        code = """
        def check(state):
            return state.fraction_lo != 0.0
        """
        assert [f.code for f in _lint(code, "src/repro/core/x.py")] == [
            "AL004"
        ]

    def test_ordering_comparisons_allowed(self):
        code = """
        def check(state, query):
            return state.fraction_hi >= query.pct_min_value
        """
        assert _lint(code, "src/repro/core/bounds.py") == []

    def test_unrelated_attribute_ignored(self):
        code = """
        def check(m):
            return m.m11 == 1.0
        """
        assert _lint(code, "src/repro/core/rules.py") == []


class TestAL005UpwardImport:
    def test_shard_importing_service_flagged(self):
        code = """
        from repro.service.cache import ResultCache
        """
        findings = _lint(code, "src/repro/shard/x.py")
        assert [f.code for f in findings] == ["AL005"]
        assert findings[0].severity is Severity.ERROR
        assert "repro.service" in findings[0].message

    def test_db_importing_testing_flagged(self):
        code = """
        from repro.testing.faults import NoFaults
        """
        assert [f.code for f in _lint(code, "src/repro/db/y.py")] == ["AL005"]

    def test_function_local_import_also_flagged(self):
        code = """
        def build():
            import repro.service.planner
        """
        assert [f.code for f in _lint(code, "src/repro/shard/x.py")] == [
            "AL005"
        ]

    def test_type_checking_import_exempt(self):
        code = """
        from typing import TYPE_CHECKING

        if TYPE_CHECKING:
            from repro.service.executor import QueryService
        """
        assert _lint(code, "src/repro/db/y.py") == []

    def test_downward_and_same_level_imports_clean(self):
        code = """
        from repro.errors import ShardError
        from repro.obs.metrics import MetricsRegistry
        from repro.rwlock import ReadWriteLock
        """
        assert _lint(code, "src/repro/shard/x.py") == []
        # The two declared knots share a level.
        knots = (
            ("from repro.db.catalog import Catalog", "src/repro/index/x.py"),
            ("from repro.index.rtree import RTree", "src/repro/db/x.py"),
            ("from repro.editing.sequence import EditSequence", "src/repro/images/x.py"),
        )
        for code, path in knots:
            assert _lint(code, path) == []

    def test_root_reexports_count_as_the_top(self):
        code = """
        from repro import RangeQuery
        """
        assert [f.code for f in _lint(code, "src/repro/core/x.py")] == ["AL005"]

    def test_files_outside_the_package_ignored(self):
        code = """
        from repro.service import QueryService
        """
        assert _lint(code, "benchmarks/bench_service.py") == []


class TestAL006UnreachableStatement:
    def test_stale_copy_behind_a_return_flagged_once(self):
        # The defect this rule was added for: a second copy of a
        # function's tail left after its ``return``.
        code = """
        def process(queries):
            found = match(queries)
            return found
            found = match_old(queries)
            return found
        """
        findings = _lint(code, "src/repro/core/batch.py")
        assert [f.code for f in findings] == ["AL006"]
        assert findings[0].location.endswith(":5")
        assert "return on line 4" in findings[0].message

    def test_every_block_kind_and_exit_kind(self):
        code = """
        def walk(items):
            for item in items:
                if item is None:
                    continue
                    skipped()
                try:
                    raise ValueError(item)
                    cleanup()
                except ValueError:
                    break
                    note()
                finally:
                    pass
            else:
                return 0
                done()
        """
        findings = _lint(code, "src/repro/db/x.py")
        assert {f.code for f in findings} == {"AL006"}
        lines = sorted(int(f.location.rsplit(":", 1)[1]) for f in findings)
        assert lines == [6, 9, 12, 17]

    def test_conditional_exits_and_last_statements_clean(self):
        code = """
        def pick(items):
            for item in items:
                if item:
                    return item
                if item is None:
                    continue
            raise LookupError("empty")
        """
        assert _lint(code, "src/repro/core/x.py") == []


class TestHarness:
    def test_rules_filter(self):
        code = """
        class S:
            def check(self, state):
                return state.fraction_lo == 0.5
            def go(self, image):
                self._database.insert_image(image)
        """
        only_float = _lint_with_rules(code, ["AL004"])
        assert [f.code for f in only_float] == ["AL004"]

    def test_disable_all_pragma(self):
        code = """
        class S:
            def go(self, image):
                self._database.insert_image(image)  # repro-lint: disable=all
        """
        assert _lint(code, "src/repro/service/x.py") == []

    def test_syntax_error_reported_not_raised(self, tmp_path):
        bad = tmp_path / "repro" / "service"
        bad.mkdir(parents=True)
        (bad / "broken.py").write_text("def f(:\n", encoding="utf-8")
        report = lint_paths([bad])
        assert not report.ok
        assert report.by_code("AL000")

    def test_lint_paths_accepts_single_file(self):
        report = lint_paths([SRC_ROOT / "service" / "executor.py"])
        assert report.subjects_examined == 1
        assert report.clean


def _lint_with_rules(code: str, rules) -> list:
    return lint_source(
        textwrap.dedent(code), "src/repro/service/executor.py", rules=rules
    )
