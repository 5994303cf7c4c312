import enum
import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cremona_kit import serialization as ser
from cremona_kit.curve_model import PlaneCurveModel, PointSpec, SingularityData, curve_from_mults
from cremona_kit.cremona_maps import make_phi
from cremona_kit.errors import DegreeCapExceeded, SchemaError
from cremona_kit.exact_algebra import RatFunc, TriHomPoly, UniPoly
from cremona_kit.jonquieres import JonqElement, leminv_check
from cremona_kit.linear_systems import LinSysData, adjoint_chain
from cremona_kit.rational_pencils import PencilType, enumerate_pencil_types

from _util import (
    GUARD_ORACLES,
    H4,
    encode_pencil_type_oracle,
    encode_trihom_oracle,
    encode_unipoly_oracle,
    get_oracle,
    monomials,
    rand_jonq,
    rand_trihom,
    rand_unipoly,
)


class TestRational:
    def test_accepts_ints_and_strings(self):
        assert ser.decode_rational(5, ()) == Fraction(5)
        assert ser.decode_rational(-5, ()) == Fraction(-5)
        assert ser.decode_rational("-7/3", ()) == Fraction(-7, 3)
        assert [ser.decode_rational(t, ()) for t in ("+1", "-0/3", "007")] == [1, 0, 7]

    def test_rejects_floats(self):
        with pytest.raises(SchemaError):
            ser.decode_rational(0.5, ())

    def test_rejects_booleans_and_garbage(self):
        for bad in (True, "1.5", "a/b", "1/0", None):
            with pytest.raises(SchemaError):
                ser.decode_rational(bad, ())

    def test_roundtrip(self):
        for q in (Fraction(3), Fraction(-1, 2), Fraction(0)):
            assert ser.decode_rational(str(q), ()) == q

    @pytest.mark.parametrize(
        "value, message",
        [
            (None, "expected a rational, got NoneType"),
            ([1, 2], "expected a rational, got list"),
            ({"p": 1}, "expected a rational, got dict"),
        ],
    )
    def test_other_types_named(self, value, message):
        # _fail never returns, so the last refusal needs no statement after it.
        with pytest.raises(SchemaError) as err:
            ser.decode_rational(value, ("c",))
        assert (err.value.path, err.value.message) == ("$.c", message)

    @pytest.mark.parametrize("text", ["\u0661", "1\n", "1/\u0663", "\u0661/2"])
    def test_only_ascii_digits_and_nothing_around_them(self, text):
        with pytest.raises(SchemaError) as err:
            ser.decode_rational(text, ("c",))
        want = f"malformed rational {text!r}; expected \"p\" or \"p/q\""
        assert (err.value.path, err.value.message) == ("$.c", want)

    # Digits include a non-ASCII one and a string may end in a newline: both
    # are refused, although int() and Fraction read them.
    digits = st.text("0123456789\u0663", min_size=1, max_size=8)

    @given(
        st.tuples(
            st.sampled_from(["", "+", "-"]),
            digits,
            st.one_of(st.just(""), digits.map("/".__add__)),
            st.sampled_from(["", "\n"]),
        ).map("".join)
    )
    @example("+007/-0")
    @example("-0/15")
    @example("-36/48")
    @settings(max_examples=100, derandomize=True, deadline=None)
    def test_strings_read_as_fraction_reads_them(self, text):
        body = text[1:] if text[:1] in "+-" else text
        parts = body.split("/")
        if len(parts) > 2 or not all(p and set(p) <= set("0123456789") for p in parts):
            with pytest.raises(SchemaError, match="malformed"):
                ser.decode_rational(text, ())
            return
        try:
            expected = Fraction(text)
        except ZeroDivisionError:
            with pytest.raises(SchemaError, match="zero denominator"):
                ser.decode_rational(text, ())
        else:
            assert ser.decode_rational(text, ()) == expected


# JSON values of every type, bools and floats included.
_SCALARS = st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=3)
JSON_VALUES = (
    _SCALARS | st.lists(_SCALARS, max_size=2) | st.dictionaries(st.text(max_size=2), _SCALARS, max_size=2)
)
KEYS = st.sampled_from(["deg", "mults", ""])


def _outcome(read, *args):
    """The identity of what ``read`` returns, or the path and message it refuses with."""
    try:
        return "value", id(read(*args))
    except SchemaError as err:
        return err.path, err.message


class TestTypedReader:
    @given(
        obj=st.dictionaries(KEYS, JSON_VALUES, max_size=3),
        key=KEYS,
        path=st.sampled_from([(), ("a1", "num"), ("singularities", 0)]),
    )
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_as_and_get_match_the_four_guards(self, obj, key, path):
        for kind, guard in GUARD_ORACLES.items():
            for x in (obj, *obj.values()):
                assert _outcome(ser._as, x, kind, path) == _outcome(guard, x, path)
            typed = _outcome(lambda: guard(get_oracle(obj, key, path), path + (key,)))
            assert _outcome(ser._get, obj, key, path, kind) == typed
        assert _outcome(ser._get, obj, key, path) == _outcome(get_oracle, obj, key, path)


class TestPolynomials:
    def test_unipoly_roundtrip(self):
        rng = random.Random(3)
        for _ in range(20):
            p = rand_unipoly(rng, 5)
            assert ser.decode_unipoly(ser.encode_unipoly(p), ()) == p

    def test_unipoly_exponent_cap(self, monkeypatch):
        monkeypatch.setenv("CREMONA_KIT_MAX_DEGREE", "6")
        assert ser.decode_unipoly([[[6], "1"], [[0], "2"]], ()).degree == 6
        with pytest.raises(DegreeCapExceeded, match=r"\$\.h needs degree 7"):
            ser.decode_unipoly([[[0], "2"], [[7], "1"]], ("h",))

    def test_trihom_roundtrip(self):
        rng = random.Random(5)
        for _ in range(20):
            f = rand_trihom(rng, rng.randint(0, 4), nonzero=False)
            if f.is_zero:
                continue
            assert ser.decode_trihom(ser.encode_trihom(f), ()) == f

    def test_trihom_rejects_mixed_degrees(self):
        with pytest.raises(SchemaError):
            ser.decode_trihom([[[1, 0, 0], "1"], [[2, 0, 0], "1"]], ())

    def test_trihom_duplicate_monomial(self):
        with pytest.raises(SchemaError):
            ser.decode_trihom([[[1, 0, 0], "1"], [[1, 0, 0], "2"]], ())

    def test_error_paths(self):
        try:
            ser.decode_trihom([[[1, 0], "1"]], ("poly",))
        except SchemaError as e:
            assert e.path == "$.poly[0][0]"
        else:
            raise AssertionError("expected a schema error")

    def test_ratfunc_roundtrip(self):
        f = RatFunc(UniPoly.of(1, 2), UniPoly.of(0, 0, 3))
        assert ser.decode_ratfunc(ser.encode_ratfunc(f), ()) == f


@st.composite
def ratios(draw):
    """[(p, q)] for coefficients p/q: negative, zero and integral ones, and
    ones that share a factor with the lcm of the denominators, so that
    c / den is not in lowest terms.  One draw in three has denominator 1
    throughout; the list may be empty or all zero."""
    dens = st.just(1) if draw(st.integers(0, 2)) == 0 else st.sampled_from([1, 2, 3, 4, 6, 12])
    return draw(st.lists(st.tuples(st.integers(-12, 12), dens), max_size=6))


class TestEncoderOracle:
    """The encoders print each "p/q" from the stored integer form; the
    oracles print the Fractions of the ``coeffs`` and ``terms`` views."""

    @given(ratios(), st.integers(0, 3))
    @settings(max_examples=150, derandomize=True, deadline=None)
    @example([], 2)
    @example([(0, 4), (0, 1)], 0)
    @example([(-3, 1), (4, 1), (-5, 1)], 1)
    @example([(-3, 6), (4, 2), (-5, 12), (9, 4)], 2)
    def test_encoders_equal_the_view_oracles(self, coeffs, degree):
        text = [f"{p}/{q}" for p, q in coeffs]
        monos = monomials(degree)
        # A monomial drawn twice is summed, and may cancel to zero.
        tri = [[list(monos[n % len(monos)]), c] for n, c in enumerate(text)]
        f = TriHomPoly(degree, tuple((tuple(e), Fraction(c)) for e, c in tri))
        p = ser.decode_unipoly([[[e], c] for e, c in enumerate(text)], ())
        assert p == UniPoly(tuple(Fraction(c) for c in text))
        assert ser.encode_unipoly(p) == encode_unipoly_oracle(p)
        assert ser.encode_trihom(f) == encode_trihom_oracle(f)
        if coeffs and len(monos) >= len(coeffs):
            decoded = ser.decode_trihom(tri, (), degree)
            assert decoded == f and ser.encode_trihom(decoded) == encode_trihom_oracle(f)


class TestCurve:
    def test_roundtrip(self):
        poly = TriHomPoly.of(
            {(3, 3, 0): 1, (3, 1, 2): -1, (1, 3, 2): -1, (1, 1, 4): 1, (0, 0, 6): 1}
        )
        model = PlaneCurveModel(
            6,
            (
                SingularityData(PointSpec("p", (Fraction(1), Fraction(0), Fraction(0))), 3),
                SingularityData(PointSpec("q", (Fraction(0), Fraction(1), Fraction(0))), 3),
            ),
            poly,
        )
        again = ser.decode_curve(ser.encode_curve(model))
        assert again == model

    def test_missing_field_path(self):
        with pytest.raises(SchemaError) as err:
            ser.decode_curve({"degree": 6})
        assert "singularities" in str(err.value)

    def test_mult_below_two(self):
        with pytest.raises(SchemaError):
            ser.decode_curve(
                {"degree": 6, "singularities": [{"label": "p", "mult": 1, "coords": None}]}
            )

    def test_non_string_label(self):
        with pytest.raises(SchemaError) as err:
            ser.decode_curve({"degree": 6, "singularities": [{"label": 3, "mult": 2}]})
        assert (err.value.path, err.value.message) == (
            "$.singularities[0].label",
            "expected a string, got int",
        )


class TestSystemsAndReports:
    def test_linsys_roundtrip(self):
        L = LinSysData.of(6, {"a": 2, "b": 3})
        assert ser.decode_linsys(ser.encode_linsys(L)) == L

    @pytest.mark.parametrize(
        "payload, path, message",
        [
            ({"degree": -1, "mults": {}}, "$.degree", "degree must be >= 0, got -1"),
            ({"degree": 2, "mults": {"p": -1}}, "$.mults.p", "multiplicity must be >= 0, got -1"),
        ],
    )
    def test_linsys_negative_fields(self, payload, path, message):
        with pytest.raises(SchemaError) as err:
            ser.decode_linsys(payload)
        assert (err.value.path, err.value.message) == (path, message)

    def test_chain_report_reparses(self):
        report = adjoint_chain(curve_from_mults(9, [3] * 8))
        encoded = ser.encode_chain_report(report)
        text = ser.dumps(encoded)
        again = json.loads(text)
        assert again == encoded
        assert ser.decode_linsys(again["terminal"]) == report.terminal
        for step in again["steps"]:
            ser.decode_linsys(step["input"])
            ser.decode_linsys(step["raw"])
            ser.decode_linsys(step["output"])

    def test_dumps_deterministic(self):
        report = adjoint_chain(curve_from_mults(6, [2] * 7))
        a = ser.dumps(ser.encode_chain_report(report))
        b = ser.dumps(ser.encode_chain_report(adjoint_chain(curve_from_mults(6, [2] * 7))))
        assert a == b


# Strings mixing ASCII, control, non-ASCII and astral characters, lone
# surrogates, and what json escapes specially.
_SPECIAL = '"\\/\b\f\n\r\t\x00\x1f\x7f\u2028\ud800\udfff\U0001f600'
_TEXT = st.text(
    st.one_of(st.characters(max_codepoint=0x7F), st.characters(), st.sampled_from(_SPECIAL)),
    max_size=8,
)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**60), max_value=10**60),
    st.sampled_from([0, -1, 1, True, False]),
    _TEXT,
)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=6), st.dictionaries(_TEXT, inner, max_size=6)),
    max_leaves=20,
)


def _nested(depth):
    value = {"leaf": [1, True, None, "x"]}
    for i in range(depth):
        value = [value, i] if i % 2 else {"k": value, "": []}
    return value


class TestDumps:
    """dumps writes the bytes of json.dumps(indent=2, sort_keys=True)."""

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(_JSON)
    @example([True, 1, False, 0, None, -(2**100), 2**200])
    @example({"a": [], "b": {}, "\u00e9\n": "\x00\u2028\U0001f600", "1": 1})
    @example([[], {}, [[]], [{}], {"": {"": []}}])
    @example({"mults": [2**64, -5, 0, 7], "labels": ["p0", "\udfff"]})
    @example(_nested(60))
    @example([True, False, True])
    @example([None, None])
    @example(["b", "a", "\u00e9", ""])
    @example({"b": 1, "a": "x", "c": True, "d": None, "e": False, "f": -(2**70)})
    @example({"mults": {"p1": 3, "p0": 2}, "labels": ["p0", "p1"], "warnings": []})
    def test_matches_json(self, value):
        assert ser.dumps(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"

    class _Int(int):
        pass

    class _Str(str):
        pass

    class _Enum(enum.IntEnum):
        ONE = 1

    @pytest.mark.parametrize(
        "value",
        [1.5, float("nan"), (1, 2), Fraction(1, 2), {1: "a"}, {None: 1}, [1, 2.0], {"a": (1,)},
         {"a": 1, 2: 3}, b"bytes",
         # Subclasses of int and str, which a table keyed by isinstance would take.
         _Enum.ONE, _Int(2), _Str("s"), [_Enum.ONE], [_Int(2)], [_Str("s")], [_Int(1), _Int(2)],
         [1, _Int(2)], ["a", _Str("s")], {"a": _Enum.ONE}, {"a": _Int(2)}, {"a": _Str("s")},
         {"a": [_Int(2)]}],
    )
    def test_other_types_raise(self, value):
        with pytest.raises(TypeError):
            ser.dumps(value)


class _Int(int):
    pass


class _Str(str):
    pass


# Term lists [[e, ...], "c"] as the polynomial encoders emit them, with
# exponent arity 0 to 4, and their near misses: bool exponents, int and str
# subclasses, int coefficients, and lists that mix arities or hold another
# value, at several depths.
_EXPONENT = st.one_of(
    st.integers(0, 30), st.integers(0, 30), st.integers(-(2**70), 2**70), st.booleans(),
    st.builds(_Int, st.integers(0, 9)),
)
_COEFFICIENT = st.one_of(_TEXT, _TEXT, st.builds(_Str, _TEXT), st.integers(-3, 3))


def _terms_of(arity):
    return st.lists(_EXPONENT, min_size=arity, max_size=arity).flatmap(
        lambda e: _COEFFICIENT.map(lambda c: [e, c])
    )


_TERM_LISTS = st.one_of(
    st.integers(0, 4).flatmap(lambda n: st.lists(_terms_of(n), min_size=1, max_size=6)),
    st.lists(st.integers(0, 4).flatmap(_terms_of), min_size=1, max_size=6),
    st.lists(st.one_of(st.integers(0, 4).flatmap(_terms_of), _SCALARS), min_size=1, max_size=4),
)
_WITH_TERMS = st.recursive(
    _TERM_LISTS,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=8,
)


def _subclassed(value) -> bool:
    """True when value holds an int or str subclass, which dumps refuses."""
    if type(value) is list:
        return any(map(_subclassed, value))
    if type(value) is dict:
        return any(map(_subclassed, value.values()))
    return type(value) not in (int, str, bool, type(None))


class TestDumpsTermLists:
    """dumps writes a list of [[e, ...], "c"] terms from one template with the
    bytes of json.dumps(indent=2, sort_keys=True), and any other list as
    before: a subclass of int or str raises TypeError."""

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(_WITH_TERMS)
    @example([[[1, 0, 2], "-1/2"], [[0, 0, 3], "7"]])
    @example({"components": [[[[2, 0, 0], "1"]], [[[0, 2, 0], "3/4"]], [[[0, 0, 2], "-1"]]]})
    @example([[[], "a"], [[], "b"]])
    @example([[[0, 1, 2, 3], "x"], [[4, 5, 6, 7], "\u00e9"]])
    @example([[[1], "a"], [[1, 2], "b"]])
    @example([[[True, 0, 1], "a"]])
    @example([[[1, 0], 5]])
    @example([[[1, 0], "a"], [[1, 0], "b", "c"]])
    @example([[[1], "a"], None])
    @example([[[_Int(1)], "a"]])
    @example([[[1], _Str("a")]])
    @example([[[2**70, -(2**70)], "c"]])
    def test_matches_json(self, value):
        if _subclassed(value):
            with pytest.raises(TypeError):
                ser.dumps(value)
        else:
            assert ser.dumps(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize(
        "value",
        [[[(1, 2), "a"]], [[[1.5], "a"]], [[[1], b"a"]], [[[1], "a"], [(1,), "b"]], {"t": [[[1], 1.0]]}],
    )
    def test_other_types_raise(self, value):
        with pytest.raises(TypeError):
            ser.dumps(value)


# Pencil types with empty and large multiplicities, the leaves of values that
# hold them at the top level, as dict values, in lists of pencil types alone
# and in lists next to dicts and scalars, at several depths.
_PENCILS = st.builds(
    PencilType, st.integers(1, 2**70), st.lists(st.integers(1, 2**70), max_size=4)
)
_WITH_PENCILS = st.recursive(
    st.one_of(_SCALARS, _PENCILS),
    lambda inner: st.one_of(
        st.lists(inner, max_size=6),
        st.lists(_PENCILS, min_size=1, max_size=6),
        st.dictionaries(_TEXT, inner, max_size=6),
    ),
    max_leaves=20,
)


def _plain(value):
    """``value`` with each pencil type replaced by the dict of the oracle."""
    if type(value) is PencilType:
        return encode_pencil_type_oracle(value)
    if type(value) is list:
        return [_plain(x) for x in value]
    if type(value) is dict:
        return {k: _plain(x) for k, x in value.items()}
    return value


class _Pencil(PencilType):
    pass


class TestDumpsPencilTypes:
    """dumps writes a PencilType as json.dumps writes the oracle's dict."""

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(_WITH_PENCILS)
    @example(PencilType(1))
    @example([PencilType(1), PencilType(2, (1, 1, 1, 1))])
    @example({"types": [PencilType(3, (2, 1, 1, 1, 1))], "one": PencilType(1, (2**200,))})
    @example([PencilType(2, (1,)), {"a": PencilType(1)}, 3, [PencilType(4, (3,))], "x"])
    @example([[[{"k": [PencilType(5, (2, 2, 1))]}]], PencilType(1, ())])
    @example({"count": 3, "types": list(enumerate_pencil_types(3))})
    def test_matches_json_of_oracle(self, value):
        plain = json.dumps(_plain(value), indent=2, sort_keys=True)
        assert ser.dumps(value) == plain + "\n"

    @pytest.mark.parametrize(
        "value",
        [_Pencil(2, (1, 1, 1, 1)), [_Pencil(1)], [PencilType(1), _Pencil(1)],
         {"a": _Pencil(1)}, [1, _Pencil(1)], [{"a": _Pencil(1)}]],
    )
    def test_subclass_raises(self, value):
        with pytest.raises(TypeError):
            ser.dumps(value)


class TestMapAndGroupElements:
    def test_map_roundtrip(self):
        F = make_phi(Fraction(1, 2), -3)
        again = ser.decode_map(ser.encode_map(F))
        assert again == F

    def test_map_needs_three_components(self):
        with pytest.raises(SchemaError):
            ser.decode_map({"deg": 1, "components": [[[[1, 0, 0], "1"]]]})

    def test_jonq_roundtrip(self):
        rng = random.Random(7)
        for _ in range(10):
            u = rand_jonq(rng, H4)
            assert ser.decode_jonq(ser.encode_jonq(u)) == u

    def test_order_is_written_as_computed(self):
        # leminv_check's order is an int or the string "infinite", both
        # written as they are.
        rng = random.Random(17)
        elements = [JonqElement.of(H4, 0, 1), JonqElement.of(H4, 1, 0)]
        elements += [rand_jonq(rng, H4) for _ in range(20)]
        orders = set()
        for u in elements:
            rep = leminv_check(u)
            assert type(rep.order) is int or rep.order == "infinite"
            assert ser.encode_order_report(rep)["order"] is rep.order
            orders.add(rep.order)
        assert orders == {1, 2, "infinite"}

    def test_order_report_encodes(self):
        rep = leminv_check(JonqElement.of(H4, 0, 1))
        data = ser.encode_order_report(rep)
        assert data["order"] == 2
        assert data["conclusion_holds"] is True
        rep = leminv_check(JonqElement.of(H4, UniPoly.variable(), 1))
        assert ser.encode_order_report(rep)["order"] == "infinite"
