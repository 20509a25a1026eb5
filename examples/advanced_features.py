#!/usr/bin/env python3
"""Advanced features tour: the extensions beyond the paper.

Walks through EXPLAIN, batch processing, conjunctive text queries and
sequence optimization — each with its invariant stated and checked
inline.

Run: python examples/advanced_features.py
"""

import numpy as np

from repro.core import RangeQuery
from repro.db.statistics import DatabaseStatistics
from repro.editing import Modify, optimize_database
from repro.workloads import FLAG_PARAMETERS, build_database, make_query_workload

rng = np.random.default_rng(17)
db = build_database(FLAG_PARAMETERS.scaled(0.08), rng)
print(f"database: {db.structure_summary()}\n")

# ----------------------------------------------------------------------
# EXPLAIN: predict the Figure 2 behaviour without running any rules.
# ----------------------------------------------------------------------
stats = DatabaseStatistics(db)
query = RangeQuery.at_least(db.quantizer.bin_of((200, 16, 46)), 0.2)
explanation = stats.explain(query)
print(explanation.describe())
actual = db.range_query(query)
assert explanation.rules_bwm_would_apply == actual.stats.rules_applied
print("(EXPLAIN's rule prediction matched the actual execution)\n")

# ----------------------------------------------------------------------
# Batch processing: one catalog pass for a whole query burst.
# ----------------------------------------------------------------------
queries = make_query_workload(db, rng, 12)
batch_results = db.range_query_batch(queries)
single_results = [db.range_query(q) for q in queries]
assert [b.matches for b in batch_results] == [s.matches for s in single_results]
print(f"batch of {len(queries)} queries: "
      f"{batch_results[0].stats.rules_applied} rules total vs "
      f"{sum(r.stats.rules_applied for r in single_results)} per-query\n")

# ----------------------------------------------------------------------
# Conjunctive text queries.
# ----------------------------------------------------------------------
combined = db.text_query("at least 15% red and at most 50% white")
print(f"'at least 15% red and at most 50% white' -> {len(combined)} matches\n")

# ----------------------------------------------------------------------
# Sequence optimization: pad one sequence with no-ops, then clean up.
# ----------------------------------------------------------------------
edited_id = next(iter(db.catalog.edited_ids()))
padded = db.catalog.sequence_of(edited_id).extended(
    Modify((3, 3, 3), (3, 3, 3)), Modify((4, 4, 4), (4, 4, 4))
)
db.delete_edited(edited_id)
db.insert_edited(padded, image_id=edited_id)
report = optimize_database(db)
print(f"optimizer removed {report.ops_removed} operations, "
      f"saved {report.bytes_saved} bytes")
