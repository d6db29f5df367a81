"""Every text parser returns or raises ParseError, and format/parse round-trip."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import format_condition
from cascadekit.cascade import Condition, parse_condition
from cascadekit.cli import _parse_box_dims
from cascadekit.errors import ParseError
from cascadekit.forest import format_forest, parse_forest, parse_node_set, random_forest


# (parse, format of a parsed value) for every parser
PARSERS = {
    "condition": (parse_condition, lambda parsed: format_condition(parsed[1], *parsed[0])),
    "forest": (parse_forest, format_forest),
    "node_set": (parse_node_set, lambda nodes: ",".join(str(x) for x in sorted(nodes))),
    "box": (_parse_box_dims, lambda dims: ",".join(map(str, dims))),
}

TOKENS = [
    "box", "m", "support:", "enumeration", "lex-v1", "fin", "cofin", "{", "}", ";", ":",
    ",", " ", "\n", "-1", "0", "1", "2", "3", "4", "7", "12", "99999999999999999999", "x", "1.5",
]
junk = st.lists(st.sampled_from(TOKENS), max_size=24).map("".join) | st.text(max_size=40)


@st.composite
def conditions(draw):
    dims = tuple(draw(st.integers(1, 4)) for _ in range(3))
    coords = st.tuples(*(st.integers(0, d - 1) for d in dims))
    entries = draw(st.dictionaries(coords, st.integers(0, 1), max_size=6))
    return dims, Condition.from_map(entries)


forests = st.builds(random_forest, st.integers(1, 9), st.integers(0, 2**16))
node_sets = st.frozensets(st.integers(0, 10**6), max_size=6)
box_dims = st.tuples(st.integers(), st.integers(), st.integers())

# parsed values of each kind
VALUES = {
    "condition": conditions(),
    "forest": forests,
    "node_set": node_sets,
    "box": box_dims,
}


def parse_or_none(kind, text):
    """Parse ``text``; a ParseError gives None, any other exception fails the test."""
    parse, _ = PARSERS[kind]
    try:
        return parse(text)
    except ParseError:
        return None


def assert_round_trip(kind, value):
    """Formatting a parsed value and parsing the text gives the value back."""
    parse, fmt = PARSERS[kind]
    assert parse(fmt(value)) == value


@pytest.mark.parametrize("kind", sorted(PARSERS))
@settings(max_examples=100, deadline=None)
@given(text=junk)
def test_junk_parses_or_raises_parse_error(kind, text):
    value = parse_or_none(kind, text)
    if value is not None:
        assert_round_trip(kind, value)


@pytest.mark.parametrize("kind", sorted(PARSERS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mutated_text_parses_or_raises_parse_error(kind, data):
    _, fmt = PARSERS[kind]
    text = fmt(data.draw(VALUES[kind]))
    i = data.draw(st.integers(0, len(text)))
    j = data.draw(st.integers(i, len(text)))
    value = parse_or_none(kind, text[:i] + data.draw(junk) + text[j:])
    if value is not None:
        assert_round_trip(kind, value)


@pytest.mark.parametrize("kind", sorted(PARSERS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_format_then_parse_round_trips(kind, data):
    assert_round_trip(kind, data.draw(VALUES[kind]))


@pytest.mark.parametrize(
    "kind, text",
    [
        ("forest", "99999999999\n"),
        ("forest", "-199999999999999999999\n"),
        ("box", "3,1"),
        ("box", "3,x,1"),
    ],
)
def test_bad_values_raise_parse_error(kind, text):
    parse, _ = PARSERS[kind]
    with pytest.raises(ParseError):
        parse(text)

