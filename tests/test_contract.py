"""The input contract of the value types: a malformed field raises only a ``CascadekitError``.

One valid example per exported class; each drawn case swaps one field, or
the first part of a tuple field (or of that part), for a wrong-typed value
and builds the class again.  The build either returns or raises a
``CascadekitError``, never a bare ``TypeError``, ``ValueError`` or
``AttributeError``.  A value pickles and copies through its constructor,
so a loaded value passes the same checks, and an ordered field refuses a
mapping or a set.
"""

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cascadekit
from cascadekit import (
    Assignment,
    CascadeAutomorphism,
    CascadekitError,
    Condition,
    Coordinate,
    CoordinateBox,
    F2Matrix,
    F2Vector,
    FiniteAction,
    IndexedFamily,
    Packet,
    PacketScheme,
    PredecessorForest,
    QuotientAnalysis,
    RawName,
    SwapWitness,
    ToggleSet,
    TraceProfile,
    TranslationPartition,
    TwoLayerCode,
    Window,
)
from cascadekit.errors import DomainError
from cascadekit.selectors import SwapCertificate

FOREST = PredecessorForest(3, (-1, 0, 0))
WINDOW = Window(FOREST, frozenset({0, 1}))
COND = Condition(((Coordinate(0, 0, 0), 1),))
BOX = CoordinateBox(WINDOW, 1, 1)

# the fields of one valid instance of each exported value type, in constructor order
VALID = {
    PredecessorForest: (3, (-1, 0, 0)),
    Window: (FOREST, frozenset({0, 1})),
    F2Vector: (WINDOW, 1),
    F2Matrix: ((1, 0), (1, 3)),
    Coordinate: (0, 0, 0),
    Condition: (((Coordinate(0, 0, 0), 1),),),
    ToggleSet: (False, frozenset({0})),
    Packet: (COND,),
    CascadeAutomorphism: (FOREST, (((1, 0), ToggleSet.finite({0})),)),
    CoordinateBox: (WINDOW, 1, 1),
    Assignment: (BOX, 1),
    RawName: (frozenset({(0, COND)}),),
    PacketScheme: (WINDOW, ((0, frozenset({Packet(COND)})),)),
    TwoLayerCode: (WINDOW, ((0, (1,)),)),
    FiniteAction: (2, ((0, 1), (1, 0))),
    QuotientAnalysis: (True, (1,), 2, None),
    TranslationPartition: (1, (0, 1)),
    IndexedFamily: (((0, frozenset({1})),),),
    SwapWitness: (1, 2, 0, frozenset(), ToggleSet.cofinite_excluding(()), SwapCertificate(True, True, True, 4)),
    TraceProfile: (WINDOW, frozenset({0})),
}

WRONG = (None, 1.5, "x", [0], {}, -1, object())


def test_every_exported_value_type_has_an_example():
    exported = {getattr(cascadekit, name) for name in cascadekit.__all__}
    classes = {v for v in exported if isinstance(v, type) and not issubclass(v, BaseException)}
    assert set(VALID) == classes
    for cls, fields in VALID.items():
        cls(*fields)


def swap_first(value, depth, wrong):
    """``value`` with its first part, ``depth`` levels down, swapped for ``wrong``.

    A part is rebuilt as a tuple, so an unhashable ``wrong`` fits inside a set.
    """
    if depth == 0 or not isinstance(value, (tuple, frozenset)) or not value:
        return wrong
    first, *rest = value
    return (swap_first(first, depth - 1, wrong), *rest)


@pytest.mark.parametrize("cls", list(VALID), ids=lambda cls: cls.__name__)
@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_malformed_field_raises_only_cascadekit_errors(cls, data):
    fields = list(VALID[cls])
    i = data.draw(st.integers(0, len(fields) - 1), label="field")
    depth = data.draw(st.integers(0, 2), label="depth")
    fields[i] = swap_first(fields[i], depth, data.draw(st.sampled_from(WRONG), label="wrong"))
    try:
        cls(*fields)
    except CascadekitError:
        pass


@pytest.mark.parametrize("cls", list(VALID), ids=lambda cls: cls.__name__)
def test_pickle_and_deepcopy_round_trip(cls):
    value = cls(*VALID[cls])
    assert pickle.loads(pickle.dumps(value)) == value
    assert copy.deepcopy(value) == value


def test_a_forged_window_fails_its_checks_on_load():
    # the path 0 <- 1 <- 2: the node set {2} misses its predecessor 1
    forged = object.__new__(Window)
    forged.__dict__.update(forest=PredecessorForest(3, (-1, 0, 1)), nodes=frozenset({2}))
    blob = pickle.dumps(forged)
    with pytest.raises(DomainError, match="not closed"):
        pickle.loads(blob)


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: PredecessorForest(3, {-1: 0, 0: 0, 1: 0}), id="forest-dict"),
        pytest.param(lambda: F2Matrix({1: 0, 0: 0}, (1, 3)), id="matrix-order-dict"),
        pytest.param(lambda: F2Matrix((1, 0), {1, 3}), id="matrix-cols-set"),
        pytest.param(lambda: TranslationPartition(1, {0: "a", 1: "b"}), id="partition-dict"),
        pytest.param(lambda: IndexedFamily({(0, frozenset({1})): 1}), id="family-dict"),
        pytest.param(lambda: FiniteAction(2, {(0, 1): "x", (1, 0): "y"}), id="action-dict"),
    ],
)
def test_an_ordered_field_refuses_a_mapping_or_a_set(build):
    with pytest.raises(DomainError, match="malformed"):
        build()


def test_a_field_sorted_on_build_takes_a_set():
    assert FiniteAction(2, {(0, 1), (1, 0)}) == FiniteAction(2, ((0, 1), (1, 0)))
