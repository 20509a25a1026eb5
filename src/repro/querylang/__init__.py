"""Text query language for color range queries."""

from repro.querylang.parser import ParsedQuery, parse_conjunctive_query

__all__ = ["ParsedQuery", "parse_conjunctive_query"]
