"""A tiny text query language for color range queries.

The paper motivates range queries with natural-language examples —
"Retrieve all images that are at least 25% blue" (§3.1).  This parser
accepts exactly that family of sentences and produces the ``(color,
pct_min, pct_max)`` triple the database maps onto a histogram bin:

* ``retrieve all images that are at least 25% blue``
* ``images that are at most 40% red``
* ``images between 10% and 30% green``
* ``at least 0.25 blue`` (bare fractions work too)
* ``exactly 50% white`` (a degenerate range)
* ``more than 25% blue`` / ``less than 40% red`` / ``no more than 40%
  red`` (synonyms mapping onto the at-least/at-most constraints)

Grammar (case-insensitive; the ``retrieve``/``images that are`` preamble
is optional noise)::

    query    := preamble? constraint ("and" constraint)*
    constraint := ("at least" | "more than" | "at most" | "less than"
                  | "no more than" | "exactly") percent color
                | "between" percent "and" percent color
    percent  := NUMBER "%"? | NUMBER
    color    := a name from repro.color.names

Conjunctions whose constraints on one color cannot all hold ("more than
30% red and less than 20% red") are rejected with a :class:`ParseError`
naming the empty range, rather than silently returning nothing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Tuple

from repro.color.names import color_by_name
from repro.color.quantization import UniformQuantizer
from repro.core.query import RangeQuery
from repro.errors import ParseError

_PREAMBLE = re.compile(
    r"^\s*(retrieve\s+)?(all\s+)?(the\s+)?(images?\s+)?(that\s+)?(are\s+|is\s+|with\s+|have\s+|having\s+)?",
    re.IGNORECASE,
)
_NUMBER = r"(\d+(?:\.\d+)?)\s*(%)?"
_AT_LEAST = re.compile(
    rf"^(?:at\s+least|more\s+than)\s+{_NUMBER}\s+(\w+)\s*$", re.IGNORECASE
)
_AT_MOST = re.compile(
    rf"^(?:at\s+most|no\s+more\s+than|less\s+than)\s+{_NUMBER}\s+(\w+)\s*$",
    re.IGNORECASE,
)
_EXACTLY = re.compile(rf"^exactly\s+{_NUMBER}\s+(\w+)\s*$", re.IGNORECASE)
_BETWEEN = re.compile(
    rf"^between\s+{_NUMBER}\s+and\s+{_NUMBER}\s+(\w+)\s*$", re.IGNORECASE
)

#: Keywords that may open a constraint (used by the conjunction splitter).
_CONSTRAINT_HEAD = (
    r"at\s+least|at\s+most|no\s+more\s+than|more\s+than|less\s+than"
    r"|exactly|between"
)


@dataclass(frozen=True)
class ParsedQuery:
    """The parsed form: a color name plus a fraction interval."""

    color_name: str
    rgb: Tuple[int, int, int]
    pct_min: float
    pct_max: float

    def __repr__(self) -> str:
        return (
            f"ParsedQuery({self.color_name!r}, "
            f"[{self.pct_min:.3f}, {self.pct_max:.3f}])"
        )


def _to_fraction(number_text: str, percent_sign: str) -> float:
    value = float(number_text)
    # A '%' sign, or any value above 1, means the number was a percentage.
    if percent_sign or value > 1.0:
        value /= 100.0
    if not 0.0 <= value <= 1.0:
        raise ParseError(f"percentage {number_text!r} outside [0, 100]")
    return value


def parse_conjunctive_query(text: str) -> Tuple[ParsedQuery, ...]:
    """Parse a conjunction: "at least 20% red and at most 10% blue".

    Splits on the word ``and`` *between* constraints (the ``between X and
    Y`` form keeps its internal ``and``) and parses each constraint.  A
    single constraint parses to a 1-tuple.  Raises :class:`ParseError`
    with a pointed message for malformed input or unknown color words.
    """
    if not text or not text.strip():
        raise ParseError("empty query")
    body = _PREAMBLE.sub("", text.strip(), count=1).strip().rstrip(".?!")
    # Split on "and" only when followed by a constraint keyword, so the
    # "between X and Y color" form is not broken apart.
    parts = re.split(
        rf"\s+and\s+(?=(?:{_CONSTRAINT_HEAD})\b)",
        body,
        flags=re.IGNORECASE,
    )
    constraints = tuple(_parse_constraint(part.strip(), text) for part in parts)
    _reject_empty_ranges(constraints, text)
    return constraints


def parse_constraints(
    text: str, quantizer: UniformQuantizer
) -> Tuple[RangeQuery, ...]:
    """Parse ``text`` and bind each color to its histogram bin — the
    one text → constraints binding every front end shares."""
    return tuple(
        RangeQuery(quantizer.bin_of(p.rgb), p.pct_min, p.pct_max)
        for p in parse_conjunctive_query(text)
    )


def _reject_empty_ranges(constraints, original: str) -> None:
    """Refuse conjunctions whose per-color ranges cannot all hold.

    "more than 30% red and less than 20% red" intersects to an empty
    interval — no image can ever satisfy it, so treating it as a valid
    query that silently matches nothing would mask the user's mistake.
    """
    merged = {}
    for parsed in constraints:
        low, high = merged.get(parsed.color_name, (0.0, 1.0))
        merged[parsed.color_name] = (
            max(low, parsed.pct_min),
            min(high, parsed.pct_max),
        )
    for color_name, (low, high) in merged.items():
        if low > high:
            raise ParseError(
                f"constraints on {color_name!r} in {original!r} leave an "
                f"empty range [{low:.2%}, {high:.2%}] — no image can match"
            )


def _parse_constraint(body: str, original: str) -> ParsedQuery:
    match = _AT_LEAST.match(body)
    if match:
        low = _to_fraction(match.group(1), match.group(2))
        return _build(match.group(3), low, 1.0)
    match = _AT_MOST.match(body)
    if match:
        high = _to_fraction(match.group(1), match.group(2))
        return _build(match.group(3), 0.0, high)
    match = _EXACTLY.match(body)
    if match:
        value = _to_fraction(match.group(1), match.group(2))
        return _build(match.group(3), value, value)
    match = _BETWEEN.match(body)
    if match:
        low = _to_fraction(match.group(1), match.group(2))
        high = _to_fraction(match.group(3), match.group(4))
        if low > high:
            raise ParseError(f"empty range: between {low:.2%} and {high:.2%}")
        return _build(match.group(5), low, high)
    raise ParseError(
        f"cannot parse {original!r}; expected e.g. 'retrieve all images that "
        "are at least 25% blue', 'at most 40% red', 'between 10% and 30% "
        "green', or a conjunction with 'and'"
    )


def _build(color_name: str, pct_min: float, pct_max: float) -> ParsedQuery:
    rgb = color_by_name(color_name)  # raises ColorError (a ReproError) if unknown
    return ParsedQuery(color_name.lower(), rgb, pct_min, pct_max)
