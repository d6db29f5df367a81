"""The input contract of the value types: a malformed field raises only a ``CascadekitError``.

One valid example per exported class; every case swaps one field, or
the first part of a tuple field (or of that part), for a wrong-typed value
and builds the class again.  The build either raises a ``CascadekitError``,
never a bare ``TypeError``, ``ValueError`` or ``AttributeError``, or returns
a value type that hashes.  The one way round the checks is
``_Value._checked``.  A value pickles and copies through its constructor,
so a loaded value passes the same checks.  Every collection field and
part is read once and stored hashable: given as a generator, a list or
(unless the caller gives its order) a set, it builds the valid value; given
as a mapping, or as a set where the caller gives the order, it is malformed.
"""

import ast
import copy
import itertools
import pickle
from pathlib import Path

import pytest

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
from cascadekit.errors import DomainError, _Value
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


def rebuilt(value, path, make):
    """``value`` with its part at ``path`` (indices, outermost first) replaced by ``make`` of that part.

    The path stops early at a part that is not a nonempty tuple or frozenset.  Each collection
    on the way down is rebuilt as a tuple, so an unhashable replacement fits inside a set.
    """
    if not path or not isinstance(value, (tuple, frozenset)) or not value:
        return make(value)
    j, *rest = path
    parts = list(value)
    parts[j] = rebuilt(parts[j], rest, make)
    return tuple(parts)


@pytest.mark.parametrize("cls", list(VALID), ids=lambda cls: cls.__name__)
def test_malformed_field_raises_only_cascadekit_errors(cls):
    for i, depth, wrong in itertools.product(range(len(VALID[cls])), range(3), WRONG):
        fields = rebuilt(VALID[cls], (i,) + (0,) * depth, lambda _: wrong)
        try:
            value = cls(*fields)
        except CascadekitError:
            continue
        if isinstance(value, _Value):
            hash(value)  # a wrong value that a value type stores must still hash


def test_object_new_only_in_the_trusted_build():
    sites = []
    for path in Path(cascadekit.__file__).parent.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            for member in top.body if isinstance(top, ast.ClassDef) else [top]:
                where = getattr(member, "name", "<module>")
                if member is not top:
                    where = f"{top.name}.{where}"
                sites.extend(
                    (path.stem, where)
                    for node in ast.walk(member)
                    if isinstance(node, ast.Attribute) and ast.unparse(node) == "object.__new__"
                )
    assert sites == [("errors", "_Value._checked")]


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


# every collection field and collection part of the value types: (class, path, ordered);
# a path is a field index and then part indices, and ordered says whether the caller gives the order
COLLECTIONS = [
    (PredecessorForest, (1,), True),
    (Window, (1,), False),
    (F2Matrix, (0,), True),
    (F2Matrix, (1,), True),
    (Condition, (0,), False),
    (Condition, (0, 0), True),
    (ToggleSet, (1,), False),
    (CascadeAutomorphism, (1,), False),
    (CascadeAutomorphism, (1, 0), True),
    (CascadeAutomorphism, (1, 0, 0), True),
    (RawName, (0,), False),
    (RawName, (0, 0), True),
    (PacketScheme, (1,), False),
    (PacketScheme, (1, 0), True),
    (PacketScheme, (1, 0, 1), False),
    (TwoLayerCode, (1,), False),
    (TwoLayerCode, (1, 0), True),
    (TwoLayerCode, (1, 0, 1), False),
    (FiniteAction, (1,), False),
    (FiniteAction, (1, 0), True),
    (TranslationPartition, (1,), True),
    (IndexedFamily, (0,), True),
    (IndexedFamily, (0, 0), True),
    (IndexedFamily, (0, 0, 1), False),
    (SwapWitness, (3,), False),
    (TraceProfile, (1,), False),
]

FORMS = {
    "generator": lambda items: (x for x in items),
    "list": list,
    "set": set,
    "mapping": lambda items: dict.fromkeys(items, "x"),
}


@pytest.mark.parametrize("form", list(FORMS))
@pytest.mark.parametrize(
    "cls, path, ordered", COLLECTIONS, ids=[f"{cls.__name__}{list(path)}" for cls, path, _ in COLLECTIONS]
)
def test_every_collection_is_read_once_and_stored_hashable(cls, path, ordered, form):
    fields = rebuilt(VALID[cls], path, FORMS[form])
    if form == "mapping" or form == "set" and ordered:
        with pytest.raises(DomainError, match=f"malformed {cls.__name__}"):
            cls(*fields)
    else:
        value, valid = cls(*fields), cls(*VALID[cls])
        assert value == valid and hash(value) == hash(valid)
