"""The committed legacy roots under ``tests/db/data`` and their oracles.

Each root was written by the last build that still had a v2 writer and
an online migrator (see ``data/README.md``); this build can only read
them.  ``expected.json`` beside each root records what a strict load
must give: the insertion order, the BWM structure summary and a few
range-query match sets.
"""

import json
import shutil
from pathlib import Path

from repro.core.query import RangeQuery

DATA = Path(__file__).parent / "data"

#: Every committed legacy root, oldest format first.
LEGACY_ROOTS = ("root_v1", "root_v2", "root_v2_bare", "root_mid_migration")


def copy_root(name, target):
    """A writable copy of one committed root (never save over ``DATA``)."""
    shutil.copytree(DATA / name, target)
    return Path(target)


def expected(name):
    return json.loads((DATA / name / "expected.json").read_text())


def manifest(root):
    return json.loads((Path(root) / "catalog.json").read_text())


def observed(database, oracle):
    """``database`` summarized in ``expected.json``'s shape (sans the
    root's ``format_version``), asking ``oracle``'s queries."""
    queries = []
    for entry in oracle["queries"]:
        query = RangeQuery(entry["bin"], entry["pct_min"], entry["pct_max"])
        matches = sorted(database.range_query(query, method="rbm").matches)
        assert matches == sorted(database.range_query(query).matches)
        queries.append({**entry, "matches": matches})
    return {
        "binary_ids": list(database.catalog.binary_ids()),
        "edited_ids": list(database.catalog.edited_ids()),
        "structure": database.structure_summary(),
        "queries": queries,
    }


def answers(oracle):
    """``oracle`` without the root's ``format_version``."""
    return {key: value for key, value in oracle.items() if key != "format_version"}
