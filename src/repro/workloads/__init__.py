"""Synthetic datasets and query workloads for the evaluation."""

from repro.workloads.datasets import (
    build_database,
    build_flag_database,
    build_helmet_database,
    recipe_palette_for,
)
from repro.workloads.flag_catalog import (
    FLAG_DEFINITIONS,
    flag_names,
    make_real_flag,
    make_world_flags,
)
from repro.workloads.flags import FLAG_STYLES, make_flag, make_flag_collection
from repro.workloads.helmets import make_helmet, make_helmet_collection
from repro.workloads.queries import make_query_workload
from repro.workloads.table2 import (
    FLAG_PARAMETERS,
    HELMET_PARAMETERS,
    DatasetParameters,
    table2_rows,
)

__all__ = [
    "DatasetParameters",
    "FLAG_DEFINITIONS",
    "FLAG_PARAMETERS",
    "FLAG_STYLES",
    "HELMET_PARAMETERS",
    "build_database",
    "build_flag_database",
    "build_helmet_database",
    "flag_names",
    "make_flag",
    "make_flag_collection",
    "make_helmet",
    "make_helmet_collection",
    "make_query_workload",
    "make_real_flag",
    "make_world_flags",
    "recipe_palette_for",
    "table2_rows",
]
