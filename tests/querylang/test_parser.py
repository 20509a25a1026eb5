"""Unit tests for the text query parser."""

import pytest

from repro.errors import ColorError, ParseError
from repro.querylang.parser import parse_conjunctive_query


def parse_query(text):
    """The one constraint of a single-constraint query."""
    (parsed,) = parse_conjunctive_query(text)
    return parsed


class TestAtLeast:
    def test_paper_example(self):
        parsed = parse_query("Retrieve all images that are at least 25% blue")
        assert parsed.color_name == "blue"
        assert parsed.pct_min == 0.25
        assert parsed.pct_max == 1.0

    def test_minimal_form(self):
        parsed = parse_query("at least 10% red")
        assert (parsed.pct_min, parsed.pct_max) == (0.1, 1.0)

    def test_bare_fraction(self):
        assert parse_query("at least 0.25 blue").pct_min == 0.25

    def test_number_above_one_treated_as_percent(self):
        assert parse_query("at least 25 blue").pct_min == 0.25

    def test_decimal_percent(self):
        assert parse_query("at least 12.5% green").pct_min == 0.125

    def test_trailing_punctuation(self):
        assert parse_query("at least 25% blue.").pct_min == 0.25


class TestOtherForms:
    def test_at_most(self):
        parsed = parse_query("images that are at most 40% red")
        assert (parsed.pct_min, parsed.pct_max) == (0.0, 0.4)

    def test_exactly(self):
        parsed = parse_query("exactly 50% white")
        assert parsed.pct_min == parsed.pct_max == 0.5

    def test_between(self):
        parsed = parse_query("images between 10% and 30% green")
        assert (parsed.pct_min, parsed.pct_max) == (0.1, 0.3)

    def test_preamble_variants(self):
        for preamble in (
            "retrieve all images that are",
            "images that are",
            "all the images with",
            "image is",
            "",
        ):
            parsed = parse_query(f"{preamble} at least 5% black".strip())
            assert parsed.color_name == "black"

    def test_case_insensitive(self):
        assert parse_query("AT LEAST 25% BLUE").color_name == "blue"

    def test_rgb_attached(self):
        parsed = parse_query("at least 25% blue")
        assert parsed.rgb == (0, 40, 104)


class TestErrors:
    def test_empty_query(self):
        with pytest.raises(ParseError):
            parse_query("   ")

    def test_gibberish(self):
        with pytest.raises(ParseError) as excinfo:
            parse_query("find me something nice")
        assert "at least 25% blue" in str(excinfo.value)

    def test_unknown_color(self):
        with pytest.raises(ColorError):
            parse_query("at least 25% turquoise")

    def test_percent_above_100(self):
        with pytest.raises(ParseError):
            parse_query("at least 120% blue")

    def test_inverted_between(self):
        with pytest.raises(ParseError):
            parse_query("between 60% and 20% red")

    def test_missing_color(self):
        with pytest.raises(ParseError):
            parse_query("at least 25%")


class TestConjunctions:
    def test_two_constraints(self):
        from repro.querylang.parser import parse_conjunctive_query

        parsed = parse_conjunctive_query("at least 20% red and at most 10% blue")
        assert len(parsed) == 2
        assert parsed[0].color_name == "red"
        assert parsed[1].color_name == "blue"

    def test_between_keeps_internal_and(self):
        from repro.querylang.parser import parse_conjunctive_query

        parsed = parse_conjunctive_query(
            "between 10% and 30% green and at least 5% red"
        )
        assert len(parsed) == 2
        assert parsed[0].color_name == "green"
        assert (parsed[0].pct_min, parsed[0].pct_max) == (0.1, 0.3)

    def test_single_constraint_is_one_tuple(self):
        from repro.querylang.parser import parse_conjunctive_query

        assert len(parse_conjunctive_query("at least 25% blue")) == 1

    def test_preamble_applies_to_whole_conjunction(self):
        from repro.querylang.parser import parse_conjunctive_query

        parsed = parse_conjunctive_query(
            "retrieve all images that are at least 20% red and at most 10% blue"
        )
        assert len(parsed) == 2

    def test_bad_second_constraint_fails(self):
        from repro.querylang.parser import parse_conjunctive_query

        with pytest.raises(ParseError):
            parse_conjunctive_query("at least 20% red and something odd")


class TestFuzzing:
    """The parser must never crash with anything but a ReproError."""

    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(st.text(max_size=80))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_text_raises_cleanly_or_parses(self, text):
        from repro.errors import ReproError
        try:
            parse_conjunctive_query(text)
        except ReproError:
            pass  # ParseError or ColorError: the contract

    @given(
        st.sampled_from(["at least", "at most", "exactly"]),
        st.floats(0, 100, allow_nan=False),
        st.sampled_from(["red", "blue", "green", "white", "black"]),
        st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_well_formed_queries_always_parse(self, keyword, value, color, percent):
        suffix = "%" if percent else ""
        parsed = parse_query(f"{keyword} {value:.4f}{suffix} {color}")
        assert parsed.color_name == color
        assert 0.0 <= parsed.pct_min <= parsed.pct_max <= 1.0


class TestSynonyms:
    """"more than" / "less than" / "no more than" map onto the canonical forms."""

    def test_more_than_is_at_least(self):
        parsed = parse_query("more than 25% blue")
        assert (parsed.pct_min, parsed.pct_max) == (0.25, 1.0)

    def test_less_than_is_at_most(self):
        parsed = parse_query("less than 40% red")
        assert (parsed.pct_min, parsed.pct_max) == (0.0, 0.4)

    def test_no_more_than_is_at_most(self):
        parsed = parse_query("no more than 10% green")
        assert (parsed.pct_min, parsed.pct_max) == (0.0, 0.1)

    def test_no_more_than_not_misread_as_more_than(self):
        """The "no more than" phrase must never bind as "more than"."""
        parsed = parse_query("images with no more than 30% white")
        assert parsed.pct_min == 0.0
        assert parsed.pct_max == 0.3

    def test_synonyms_in_conjunctions(self):
        from repro.querylang.parser import parse_conjunctive_query

        parsed = parse_conjunctive_query(
            "more than 20% red and no more than 10% blue and less than 50% green"
        )
        assert len(parsed) == 3
        assert (parsed[0].pct_min, parsed[0].pct_max) == (0.2, 1.0)
        assert (parsed[1].pct_min, parsed[1].pct_max) == (0.0, 0.1)
        assert (parsed[2].pct_min, parsed[2].pct_max) == (0.0, 0.5)


class TestEmptyRangeRejection:
    """Conjunctions whose constraints cannot all hold are a ParseError."""

    def test_contradictory_same_color_rejected(self):
        from repro.querylang.parser import parse_conjunctive_query

        with pytest.raises(ParseError, match="empty range"):
            parse_conjunctive_query("at least 60% blue and at most 40% blue")

    def test_synonym_phrasing_also_rejected(self):
        from repro.querylang.parser import parse_conjunctive_query

        with pytest.raises(ParseError, match="empty range"):
            parse_conjunctive_query("more than 60% blue and less than 40% blue")

    def test_error_names_the_color(self):
        from repro.querylang.parser import parse_conjunctive_query

        with pytest.raises(ParseError, match="blue"):
            parse_conjunctive_query("at least 60% blue and at most 40% blue")

    def test_tight_but_nonempty_range_accepted(self):
        from repro.querylang.parser import parse_conjunctive_query

        parsed = parse_conjunctive_query("at least 40% blue and at most 40% blue")
        assert len(parsed) == 2

    def test_different_colors_never_conflict(self):
        from repro.querylang.parser import parse_conjunctive_query

        parsed = parse_conjunctive_query("at least 60% blue and at most 40% red")
        assert len(parsed) == 2
