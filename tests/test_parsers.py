"""Every text parser returns or raises ParseError, and format/parse round-trip."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import forest_of
from cascadekit.cascade import (
    Condition,
    Packet,
    ToggleSet,
    format_condition,
    parse_condition,
    parse_toggle_set,
)
from cascadekit.errors import ParseError
from cascadekit.forest import format_forest, parse_forest, parse_node_set, random_forest, rho_closure
from cascadekit.names import PacketScheme, TwoLayerCode, format_code, format_scheme, parse_code, parse_scheme
from cascadekit.orbits import TranslationPartition, format_partition, parse_partition

FOREST = forest_of(5, {1: 0, 2: 0, 3: 1, 4: 3})


# (parse, format of a parsed value) for every parser
PARSERS = {
    "toggle_set": (parse_toggle_set, lambda ts: ts.serialize()),
    "condition": (parse_condition, lambda parsed: format_condition(parsed[1], *parsed[0])),
    "scheme": (lambda text: parse_scheme(text, FOREST), format_scheme),
    "code": (lambda text: parse_code(text, FOREST), format_code),
    "partition": (parse_partition, format_partition),
    "forest": (parse_forest, format_forest),
    "node_set": (parse_node_set, lambda nodes: ",".join(str(x) for x in sorted(nodes))),
}

TOKENS = [
    "box", "m", "support:", "enumeration", "lex-v1", "fin", "cofin", "{", "}", ";", ":",
    ",", " ", "\n", "-1", "0", "1", "2", "3", "4", "7", "12", "99999999999999999999", "x", "1.5",
]
junk = st.lists(st.sampled_from(TOKENS), max_size=24).map("".join) | st.text(max_size=40)

toggle_sets = st.builds(ToggleSet, st.booleans(), st.frozensets(st.integers(0, 40), max_size=5))


@st.composite
def conditions(draw):
    dims = tuple(draw(st.integers(1, 4)) for _ in range(3))
    coords = st.tuples(*(st.integers(0, d - 1) for d in dims))
    entries = draw(st.dictionaries(coords, st.integers(0, 1), max_size=6))
    return dims, Condition.from_map(entries)


@st.composite
def windows(draw):
    return rho_closure(FOREST, draw(st.frozensets(st.integers(0, FOREST.size - 1), min_size=1)))


@st.composite
def schemes(draw):
    support = draw(windows())
    coords = st.tuples(st.sampled_from(support.ordered), st.integers(0, 2), st.integers(0, 2))
    families = {}
    for m in draw(st.frozensets(st.integers(0, 9), max_size=3)):
        packets = draw(st.lists(st.dictionaries(coords, st.integers(0, 1), max_size=3), max_size=3))
        families[m] = {Packet.of(Condition.from_map(p), FOREST) for p in packets}
    return PacketScheme.of(support, families)


@st.composite
def codes(draw):
    dims = tuple(draw(st.integers(1, 3)) for _ in range(3))
    total = 3 ** (dims[0] * dims[1] * dims[2])
    indices = draw(
        st.dictionaries(
            st.integers(0, 9), st.lists(st.integers(0, total - 1), max_size=4).map(tuple), max_size=3
        )
    )
    return TwoLayerCode(draw(windows()), dims, tuple(indices.items()))


@st.composite
def partitions(draw):
    d = draw(st.integers(0, 4))
    labels = draw(st.lists(st.integers(0, 5), min_size=1 << d, max_size=1 << d))
    return TranslationPartition(d, tuple(labels))


forests = st.builds(random_forest, st.integers(1, 9), st.integers(0, 2**16))
node_sets = st.frozensets(st.integers(0, 10**6), max_size=6)

# parsed values of each kind
VALUES = {
    "toggle_set": toggle_sets,
    "condition": conditions(),
    "scheme": schemes(),
    "code": codes(),
    "partition": partitions(),
    "forest": forests,
    "node_set": node_sets,
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
        ("code", "box x 1 1\nenumeration lex-v1\nsupport: 0\n"),
        ("code", "box 1 1 1\nenumeration lex-v1\nsupport: 0\nm 0: 3\n"),
        ("code", "box 0 1 1\nenumeration lex-v1\nsupport: 0\n"),
        ("code", "box 1 1 1\nenumeration \nsupport: 0\n"),
        ("code", "box 1 1 1\nenumeration lex-v1\nsupport: 3\n"),
        ("code", "box 3 1 2\nenumeration lex-v1\nsupport: 0\nm 0: 1\nm 0: 2\n"),
        ("code", "box 3 1 2\nenumeration lex-v1\nsupport: 0\nm -1: 1\n"),
        ("scheme", "support: 0\nm 0: {0 0 x 1}\n"),
        ("scheme", "support: 0\nm 0: {9 0 0 1}\n"),
        ("scheme", "support: 0\nm 0: {0 0 0 2}\n"),
        ("scheme", "support: 0\nm 0: {1 0 0 1}\n"),
        ("scheme", "support: 0\nm -1:\n"),
        ("scheme", "support: 0\nm 0: {0 0 0 1}\nm 0: {0 0 1 0}\n"),
        ("scheme", "support: 0\nm 0:\nm 0:\n"),
        ("toggle_set", "fin{-1}"),
        ("partition", "-1\n"),
        ("partition", "99999999999\n"),
        ("forest", "99999999999\n"),
        ("forest", "-199999999999999999999\n"),
    ],
)
def test_bad_values_raise_parse_error(kind, text):
    parse, _ = PARSERS[kind]
    with pytest.raises(ParseError):
        parse(text)


def test_huge_box_code_keeps_small_indices():
    code = parse_code("box 99999999999 9 9\nenumeration lex-v1\nsupport: 0\nm 0: 5\n", FOREST)
    assert code.packet_indices == ((0, (5,)),)
    assert parse_code(format_code(code), FOREST) == code
