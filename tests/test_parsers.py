"""Every text parser returns or raises ParseError, and format/parse round-trip."""

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cascadekit
from conftest import format_condition
from cascadekit.cascade import Condition
from cascadekit.cli import _parse_box_dims, format_forest, parse_condition, parse_forest, parse_node_set
from cascadekit.errors import ParseError
from cascadekit.forest import PredecessorForest, random_forest


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



# (kind, text, exact message, line) for every ParseError branch of the four parsers
REJECTIONS = [
    pytest.param("forest", "", "line 1: empty forest file", 1, id="forest-empty"),
    pytest.param("forest", "\n \n\t\n", "line 1: empty forest file", 1, id="forest-blank-only"),
    pytest.param("forest", "x\n", "line 1: expected universe size, got 'x'", 1, id="forest-header-non-integer"),
    pytest.param("forest", "\n 3 4\n", "line 2: expected universe size, got ' 3 4'", 2, id="forest-header-two-fields"),
    pytest.param("forest", "1 0\n2 0\n", "line 1: expected universe size, got '1 0'", 1, id="forest-header-missing"),
    pytest.param("forest", "3\n1 0\n2 1 7\n", "line 3: expected 'node pred' pair, got '2 1 7'", 3, id="forest-three-fields"),
    pytest.param("forest", "3\n1\n", "line 2: expected 'node pred' pair, got '1'", 2, id="forest-one-field"),
    pytest.param("forest", "3\n1 zero\n2 1\n", "line 2: non-integer entry in '1 zero'", 2, id="forest-non-integer"),
    pytest.param("forest", "3\n1 0\n1 0\n2 0\n", "line 3: duplicate entry for node 1", 3, id="forest-duplicate-node"),
    pytest.param("forest", "3\n1 0\n", "universe of size 3 needs 2 'node pred' lines", None, id="forest-too-few"),
    pytest.param("forest", "3\n1 2\n2 1\n", "pred(1)=2 is not regressive", None, id="forest-not-regressive"),
    pytest.param("forest", "2\n5 0\n", "node 5 outside universe of size 2", None, id="forest-node-off-universe"),
    pytest.param("forest", "-1\n", "universe must contain at least the root node", None, id="forest-negative-size"),
    pytest.param("forest", "\n\n3\n\n1 0\n  \n2 x\n", "line 7: non-integer entry in '2 x'", 7, id="forest-blank-lines"),
    pytest.param("condition", "", "line 1: empty condition file", 1, id="condition-empty"),
    pytest.param("condition", "\n  \n", "line 1: empty condition file", 1, id="condition-blank-only"),
    pytest.param(
        "condition", "0 0 0 1\n", "line 1: expected 'box N R B' header, got '0 0 0 1'", 1, id="condition-header-missing"
    ),
    pytest.param(
        "condition", "boxes 1 1 1\n", "line 1: expected 'box N R B' header, got 'boxes 1 1 1'", 1, id="condition-header-word"
    ),
    pytest.param(
        "condition", "box 2 2\n", "line 1: expected 'box N R B' header, got 'box 2 2'", 1, id="condition-header-short"
    ),
    pytest.param(
        "condition",
        "  box 2 2 2 2\n",
        "line 1: expected 'box N R B' header, got '  box 2 2 2 2'",
        1,
        id="condition-header-long",
    ),
    pytest.param(
        "condition", "box 2 x 2\n", "line 1: non-integer box dimensions in 'box 2 x 2'", 1, id="condition-header-non-integer"
    ),
    pytest.param(
        "condition", "box 2 2 2\n0 0 0\n", "line 2: expected 'node row bit value', got '0 0 0'", 2, id="condition-three-fields"
    ),
    pytest.param(
        "condition", "box 8 1 3\n0 0 x 1\n", "line 2: non-integer entry in '0 0 x 1'", 2, id="condition-non-integer"
    ),
    pytest.param(
        "condition",
        "box 2 2 2\n5 0 0 1\n",
        "line 2: coordinate outside the declared box: '5 0 0 1'",
        2,
        id="condition-off-box",
    ),
    pytest.param(
        "condition",
        "box 2 2 2\n0 0 0 1\n0 0 0 0\n",
        "duplicate coordinate Coordinate(node=0, row=0, bit=0)",
        None,
        id="condition-duplicate-coordinate",
    ),
    pytest.param(
        "condition",
        "box 2 2 2\n0 0 0 2\n",
        "value at Coordinate(node=0, row=0, bit=0) must be the int 0 or 1",
        None,
        id="condition-value-2",
    ),
    pytest.param(
        "condition",
        "\n\nbox 2 2 2\n\n0 0 0 1\n \n0 0 y 1\n",
        "line 7: non-integer entry in '0 0 y 1'",
        7,
        id="condition-blank-lines",
    ),
    pytest.param("box", "3,1", "expected --box N,R,B, got '3,1'", None, id="box-two-parts"),
    pytest.param("box", "1,2,3,4", "expected --box N,R,B, got '1,2,3,4'", None, id="box-four-parts"),
    pytest.param("box", "3,x,1", "non-integer box dimension in '3,x,1'", None, id="box-non-integer"),
    pytest.param("box", "3,,1", "non-integer box dimension in '3,,1'", None, id="box-empty-part"),
    pytest.param("node_set", "3,x", "bad node id 'x'", None, id="node-set-non-integer"),
]


@pytest.mark.parametrize("kind, text, message, line", REJECTIONS)
def test_every_parse_error_names_its_message_and_line(kind, text, message, line):
    parse, _ = PARSERS[kind]
    with pytest.raises(ParseError) as info:
        parse(text)
    assert (str(info.value), info.value.line) == (message, line)


@pytest.mark.parametrize(
    "kind, text, value",
    [
        pytest.param("forest", "\n\n3\n\n1 0\n  \n2 1\n\n", PredecessorForest(3, (-1, 0, 1)), id="forest-blank-lines"),
        pytest.param("forest", " 2 \r\n1\t0 \n", PredecessorForest(2, (-1, 0)), id="forest-padded-fields"),
        pytest.param(
            "condition",
            "\n\nbox 2 2 2\n\n1 1 1 1\n \n0 0 1 0\n",
            ((2, 2, 2), Condition.from_map({(0, 0, 1): 0, (1, 1, 1): 1})),
            id="condition-blank-lines",
        ),
        pytest.param("box", " 3 , 1,2 ", (3, 1, 2), id="box-padded-parts"),
        pytest.param("box", "3,2,2\x1c", (3, 2, 2), id="box-part-padded-by-separator-char"),
        pytest.param("node_set", " 3, ,5,", {3, 5}, id="node-set-blank-parts"),
        pytest.param("node_set", "", set(), id="node-set-empty"),
    ],
)
def test_blank_lines_and_padding_are_skipped(kind, text, value):
    parse, _ = PARSERS[kind]
    assert parse(text) == value


def test_no_library_module_names_parse_error():
    # every text format is read in cli; the library modules hold the algebra alone
    package = Path(cascadekit.__file__).parent
    naming = set()
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text())
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ClassDef):
                names.add(node.name)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
        if "ParseError" in names:
            naming.add(path.stem)
    # the package namespace re-exports the whole exception hierarchy
    assert naming == {"__init__", "cli", "errors"}
