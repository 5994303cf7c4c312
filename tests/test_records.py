"""The package's records against the frozen dataclasses they replaced.

Each record is a ``__slots__`` class on ``cremona_kit._record.Record``.
For a few hand-picked constructions per class, the record and its
dataclass oracle (``_util.DATACLASS_ORACLES``) must agree on equality,
the hash, the repr, defaults, positional and keyword construction,
argument errors and validation errors; the record must also refuse
assignment and deletion, carry no ``__dict__`` and survive copy and
pickle.
"""

import copy
import dataclasses
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from _util import DATACLASS_ORACLES
from cremona_kit import corpus, cremona_maps, curve_model, exact_algebra, jonquieres
from cremona_kit import linear_systems, rational_pencils
from cremona_kit._record import Record
from cremona_kit.curve_model import CurveCheck, CurveReport, PointSpec, SingularityData
from cremona_kit.errors import DegenerateSystem, InvalidCurveData, InvalidElement
from cremona_kit.exact_algebra import TRI_X, TRI_Y, TRI_Z, RatFunc, TriHomPoly, UniPoly
from cremona_kit.linear_systems import Classification, LinSysData, PencilReduction
from cremona_kit.rational_pencils import PencilType

MODULES = (
    exact_algebra,
    curve_model,
    cremona_maps,
    linear_systems,
    jonquieres,
    rational_pencils,
    corpus,
)
RECORDS = {
    name: cls
    for m in MODULES
    for name, cls in vars(m).items()
    if isinstance(cls, type) and issubclass(cls, Record) and cls is not Record
}

H4 = UniPoly.of(-1, 0, 0, 0, 1)
ONE, ZERO, T = RatFunc.of(1), RatFunc.of(0), RatFunc(UniPoly.of(0, 1))
L3 = LinSysData.of(3, {"a": 1, "b": 1})
NODES = [SingularityData(PointSpec(f"p{i}"), 2) for i in range(7)]
STEP = (L3, LinSysData(0), (), LinSysData(0), None)
X_ONLY = (((1, 0, 0), 1),)

# class name -> (valid argument tuples, (argument tuple, error) pairs);
# an argument tuple shorter than the field list leaves the rest to defaults.
CASES = {
    "UniPoly": (
        [(), ((1, 2),), ((Fraction(1), 0, 0),), (("1/2", 3, 0),)],
        [(((1.5,),), TypeError), (((True,),), TypeError)],
    ),
    "RatFunc": (
        [
            (),
            (UniPoly.of(2),),
            (UniPoly.of(0, 2), UniPoly.of(0, 4)),
            (UniPoly.of(1), UniPoly.of(2, 2)),
        ],
        [((UniPoly.of(1), UniPoly()), ZeroDivisionError)],
    ),
    "TriHomPoly": (
        [
            (2,),
            (2, (((1, 1, 0), 1), ((0, 0, 2), "1/2"), ((1, 1, 0), 2))),
            (1, (((1, 0, 0), 1), ((1, 0, 0), -1))),
            (1, (((0, 1, 0), 3),)),
        ],
        [
            ((-1,), ValueError),
            ((2, X_ONLY), ValueError),
            ((1, (((1, 0, 0), 0.5),)), TypeError),
        ],
    ),
    "PointSpec": (
        [("p",), ("p", (1, 0, "1/2")), ("q", None)],
        [
            (("",), InvalidCurveData),
            (("p", (0, 0, 0)), InvalidCurveData),
            (("p", (1, 2)), InvalidCurveData),
        ],
    ),
    "SingularityData": (
        [(PointSpec("p"), 2), (PointSpec("q", (1, 1, 1)), 3)],
        [
            ((PointSpec("p"), 1), InvalidCurveData),
            # Every point is read as ordinary: there is no third field.
            ((PointSpec("p"), 2, True), TypeError),
        ],
    ),
    "CurveCheck": ([("genus", True), ("genus", False, "negative")], []),
    "CurveReport": ([((),), ((CurveCheck("a", True), CurveCheck("b", False, "x")),)], []),
    "PlaneCurveModel": (
        [(4,), (6, NODES), (6, tuple(NODES), None)],
        [
            ((0,), InvalidCurveData),
            ((3, [SingularityData(PointSpec("p"), 4)]), InvalidCurveData),
        ],
    ),
    "CremonaMap": (
        [(TRI_X, TRI_Y, TRI_Z), (TRI_Y, TRI_X, TRI_Z)],
        [
            ((TRI_X, TRI_Y, TriHomPoly.zero(2)), ValueError),
            ((TriHomPoly.zero(1),) * 3, ValueError),
        ],
    ),
    "LinSysData": (
        [(3,), (5, (("b", 2), ("a", 1), ("c", 0))), (5, (("a", 1), ("b", 2)))],
        [
            ((-1,), DegenerateSystem),
            ((2, (("a", 1), ("a", 1))), DegenerateSystem),
            ((2, (("a", -1),)), DegenerateSystem),
        ],
    ),
    "RemovedComponent": ([("line", ("a", "b"), 1, L3), ("conic", ("a", "b"), 2, L3)], []),
    "PencilReduction": ([(2, L3), (3, L3)], []),
    "ChainStep": ([STEP, STEP[:4] + (PencilReduction(2, L3), ("w",))], []),
    "ChainReport": (
        [
            ((), L3, Classification.RATIONAL_PENCIL),
            ((), L3, Classification.EXHAUSTED, ("w",)),
        ],
        [],
    ),
    "JonqElement": (
        [(ONE, ZERO, H4), (ZERO, ONE, H4), (ONE, T, H4)],
        [
            ((ONE, ZERO, UniPoly.of(1, 0, 1)), InvalidElement),
            ((ZERO, ZERO, H4), InvalidElement),
        ],
    ),
    "OrderReport": ([(2, ZERO, True, True, "ok"), ("infinite", T, False, True, "")], []),
    "PencilType": (
        [(1,), (2, (1, 1, 1, 1)), (3, (1, 2, 1, 1, 1, 1))],
        [((0,), ValueError), ((2, (1, 0)), ValueError)],
    ),
    "PencilCheckReport": ([(1, (), 0, 0, 0, True), (2, (1,), 1, 0, 3, False)], []),
    "EntryResult": ([("c1", "chains", True), ("c2", "maps", False, ("boom",))], []),
}


def _raised(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return info.type, str(info.value)


def test_every_former_dataclass_is_a_record_with_cases():
    assert set(CASES) == set(DATACLASS_ORACLES) <= set(RECORDS)


@pytest.mark.parametrize("name", sorted(CASES))
def test_record_matches_its_dataclass(name):
    new, old = RECORDS[name], DATACLASS_ORACLES[name]
    fields = [f.name for f in dataclasses.fields(old)]
    assert new._fields == tuple(fields)
    valid, errors = CASES[name]

    made = []
    for args in valid:
        kwargs = dict(zip(fields, args))
        mixed = new(*args[:1], **dict(list(kwargs.items())[1:]))
        pair = new(*args), old(*args)
        for other in (new(**kwargs), mixed):
            assert other == pair[0] and hash(other) == hash(pair[0])
            assert repr(other) == repr(pair[0])
        assert repr(pair[0]) == repr(pair[1])
        assert hash(pair[0]) == hash(pair[1])
        made.append(pair)

    for a_new, a_old in made:
        for b_new, b_old in made:
            assert (a_new == b_new) is (a_old == b_old)
            assert (a_new != b_new) is (a_old != b_old)
        values = tuple(getattr(a_new, f) for f in fields)
        for stranger in (values, values[0], L3 if name != "LinSysData" else ONE):
            assert (a_new == stranger) is (a_old == stranger) is False
            assert (a_new != stranger) is (a_old != stranger) is True

    for args, error in errors:
        raised = _raised(new, *args)
        assert raised == _raised(old, *args) and raised[0] is error

    for cls in (new, old):
        with pytest.raises(TypeError):
            cls(*valid[-1], bogus=1)
        with pytest.raises(TypeError):
            cls(*valid[-1], *valid[-1])
        if any(f.default is dataclasses.MISSING for f in dataclasses.fields(old)):
            with pytest.raises(TypeError):
                cls()

    record = made[-1][0]
    assert not hasattr(record, "__dict__")
    for attr in fields + ["_private", "other"]:
        with pytest.raises(AttributeError):
            setattr(record, attr, None)
        with pytest.raises(AttributeError):
            delattr(record, attr)

    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert clone == record and repr(clone) == repr(record)


def test_a_field_given_twice_is_refused_as_the_dataclass_refused_it():
    # By position and by keyword, with and without a default left over.
    message = "{}.__init__() got multiple values for argument {!r}"
    for name, args, key in (
        ("PencilReduction", (2, L3), "content"),
        ("ChainReport", ((), L3, Classification.EXHAUSTED), "terminal"),
    ):
        new, old = RECORDS[name], DATACLASS_ORACLES[name]
        raised = _raised(lambda: new(*args, **{key: None}))
        assert raised == _raised(lambda: old(*args, **{key: None}))
        assert raised == (TypeError, message.format(name, key))


def test_equal_field_tuples_of_two_classes_stay_unequal():
    for a, b in ((UniPoly(()), CurveReport(())), (LinSysData(3), PencilType(3))):
        old_a, old_b = (DATACLASS_ORACLES[type(r).__name__](*r._values(r)) for r in (a, b))
        assert a != b and not (a == b) and old_a != old_b
        assert hash(a) == hash(old_a) and hash(b) == hash(old_b)


def test_cli_import_generates_no_code():
    """A CLI process imports neither dataclasses nor inspect, nor the corpus."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import cremona_kit.cli, cremona_kit; "
        "print(sorted(m for m in ('dataclasses', 'inspect', 'cremona_kit.corpus') "
        "if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60, check=True
    )
    assert out.stdout.strip() == "[]"
