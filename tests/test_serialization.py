import enum
import json
import operator
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cremona_kit import serialization as ser
from cremona_kit.curve_model import PlaneCurveModel, PointSpec, SingularityData, curve_from_mults
from cremona_kit.cremona_maps import make_phi
from cremona_kit.errors import DegreeCapExceeded, EnumerationBoundExceeded, SchemaError
from cremona_kit.exact_algebra import TRI_X, TRI_Y, TRI_Z, RatFunc, TriHomPoly, UniPoly
from cremona_kit.jonquieres import JonqElement, leminv_check
from cremona_kit.linear_systems import ChainStep, LinSysData, adjoint_chain
from cremona_kit.rational_pencils import PencilType

from _util import (
    GUARD_ORACLES,
    H4,
    encode_chain_report_oracle,
    encode_linsys_oracle,
    encode_trihom_oracle,
    encode_unipoly_oracle,
    get_oracle,
    json_of,
    monomials,
    plain_oracle,
    rand_jonq,
    rand_trihom,
    rand_unipoly,
    trihoms,
    unipolys,
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
            assert ser.decode_unipoly(json_of(p), ()) == p

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
            assert ser.decode_trihom(json_of(f), ()) == f

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
        assert ser.decode_ratfunc(json_of(ser.encode_ratfunc(f)), ()) == f


@st.composite
def ratios(draw):
    """[(p, q)] for coefficients p/q: negative, zero and integral ones, and
    ones that share a factor with the lcm of the denominators, so that
    c / den is not in lowest terms.  One draw in three has denominator 1
    throughout; the list may be empty or all zero."""
    dens = st.just(1) if draw(st.integers(0, 2)) == 0 else st.sampled_from([1, 2, 3, 4, 6, 12])
    return draw(st.lists(st.tuples(st.integers(-12, 12), dens), max_size=6))


class TestEncoderOracle:
    """dumps prints each "p/q" of a polynomial from the stored integer form;
    the oracles print the Fractions of the ``coeffs`` and ``terms`` views."""

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
        assert json_of(p) == encode_unipoly_oracle(p)
        assert json_of(f) == encode_trihom_oracle(f)
        if coeffs and len(monos) >= len(coeffs):
            decoded = ser.decode_trihom(tri, (), degree)
            assert decoded == f and json_of(decoded) == encode_trihom_oracle(f)


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
        again = ser.decode_curve(json_of(ser.encode_curve(model)))
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
        assert ser.decode_linsys(encode_linsys_oracle(L)) == L
        assert ser.decode_linsys(json.loads(ser.dumps(L))) == L

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
        text = ser.dumps(ser.encode_chain_report(report))
        again = json.loads(text)
        assert again == encode_chain_report_oracle(report)
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
         {"a": [_Int(2)]},
         # A record dumps does not write: pencil-enum's types come as JSON text.
         PencilType(2, (1, 1, 1, 1))],
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


def _str_with_limit(convert, value, limit):
    """convert(value) with CPython's limit on int-to-str set to ``limit``
    (0 for none), the limit restored after."""
    saved = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(limit)
        return convert(value)
    finally:
        sys.set_int_max_str_digits(saved)


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="int() to str has no limit here"
)
class TestLongIntegers:
    """The writer prints an int past CPython's limit on int-to-str, here at its
    least, 640 digits, as str() prints it with no limit."""

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(st.integers(1, 100_000), st.randoms(use_true_random=False), st.booleans())
    def test_matches_str(self, bits, rng, negative):
        n = rng.getrandbits(bits) | 1 << (bits - 1)
        n = -n if negative else n
        assert _str_with_limit(ser._int_str, n, 640) == _str_with_limit(str, n, 0)

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_powers_of_ten_at_the_splits(self, k):
        # Low halves of zeros, and a top part of nines, at each split 10^(512 * 2^k).
        for n in (10 ** (512 << k), 10 ** (512 << k) - 1, 10 ** (1024 << k) + 1, 0):
            for m in (n, -n):
                assert _str_with_limit(ser._int_str, m, 640) == _str_with_limit(str, m, 0)

    def test_bare_integer_past_the_limit(self):
        n = 7**6000
        value = [n, -n, {"genus": n, "small": 3}, [1, n]]
        written = _str_with_limit(ser.dumps, value, 640)
        assert written == _str_with_limit(
            lambda v: json.dumps(v, indent=2, sort_keys=True) + "\n", value, 0)

    def test_ratio_past_the_limit(self):
        c, den = 7**6000 * 12, 5**3000 * 8
        expected = _str_with_limit(lambda q: str(Fraction(*q)), (c, den), 0)
        assert _str_with_limit(lambda q: ser._ratio_str(*q), (-c, den), 640) == "-" + expected


class TestPencilTypes:
    """encode_pencil_types writes its list of types for the indent of a
    field of the top-level object, and refuses past its bound as
    enumerate_pencil_types does."""

    def test_laid_out_for_its_indent(self):
        count, types = ser.encode_pencil_types(3, 8)
        plain = [{"degree": 1, "mults": [1]}, {"degree": 2, "mults": [1, 1, 1, 1]},
                 {"degree": 3, "mults": [2, 1, 1, 1, 1, 1]}]
        assert count == 3
        for value in ({"types": types}, [types]):
            written = json.dumps(value, default=lambda t: plain, indent=2, sort_keys=True)
            assert ser.dumps(value) == written + "\n"
        with pytest.raises(TypeError):
            ser.dumps({"report": {"types": types}})
        with pytest.raises(TypeError):
            ser.dumps(types)

    def test_bound(self):
        with pytest.raises(EnumerationBoundExceeded):
            ser.encode_pencil_types(9, 8)
        assert ser.encode_pencil_types(-3, 8)[0] == 0


# Linear systems with empty, large and escaped multiplicity labels, drawn
# from a pool that holds each record and an equal but distinct copy, so that
# one record appears at several depths and next to its copies.
_SYSTEMS = st.builds(
    LinSysData.of,
    st.integers(0, 2**70),
    st.dictionaries(_TEXT, st.one_of(st.integers(0, 3), st.integers(0, 2**70)), max_size=6),
)


@st.composite
def _with_systems(draw):
    pool = draw(st.lists(_SYSTEMS, min_size=1, max_size=4))
    pool += [LinSysData(L.degree, L.mults) for L in pool]
    return draw(st.recursive(
        st.one_of(_SCALARS, st.sampled_from(pool)),
        lambda inner: st.one_of(
            st.lists(inner, max_size=6), st.dictionaries(_TEXT, inner, max_size=6)
        ),
        max_leaves=20,
    ))


_L = LinSysData.of(3, {"p": 2, '"q\n': 1, "\u00e9": 5, "\x00": 2**70})


class _System(LinSysData):
    pass


class TestDumpsLinearSystems:
    """dumps writes a LinSysData as json.dumps writes the oracle's dict, once
    per record and indent."""

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(_with_systems())
    @example(LinSysData.of(0))
    @example([_L, [_L], {"a": _L, "b": [_L, {"c": _L}]}, _L])
    @example([_L, LinSysData(_L.degree, _L.mults), [LinSysData(_L.degree, _L.mults)]])
    @example({"x": LinSysData.of(2), "y": [LinSysData.of(2), LinSysData.of(2, {"": 1})]})
    @example(ser.encode_chain_report(adjoint_chain(curve_from_mults(9, [3] * 8))))
    @example(ser.encode_chain_report(adjoint_chain(curve_from_mults(
        65, [4, 10, 9, 14, 6, 12, 11, 8, 39, 26, 17, 8, 16, 6, 8, 13]))))
    def test_matches_json_of_oracle(self, value):
        plain = json.dumps(plain_oracle(value), indent=2, sort_keys=True)
        assert ser.dumps(value) == plain + "\n"

    @pytest.mark.parametrize(
        "value",
        [LinSysData.of(2, {3: 1}), [LinSysData.of(2, {None: 1})], {"a": LinSysData.of(1, {b"p": 1})},
         _System(2, (("p", 1),)), [_L, _System(1)], {"a": [_System(1)]}],
    )
    def test_non_str_label_or_subclass_raises(self, value):
        with pytest.raises(TypeError):
            ser.dumps(value)


# The steps and removed components of chains whose labels hold "%", quotes,
# backslashes, control and non-ASCII characters and whose steps drop points,
# remove lines and conics, one of them twice, reduce to pencils and carry
# warnings, at several depths and next to linear systems.
_ESCAPED = ['a%d', 'b"q', "c\\n", "d\u00e9", "e%%", "\x00f", "g\u2028", "h", "i"]
_CHAINS = [
    adjoint_chain(LinSysData.of(23, dict(zip(_ESCAPED, [3, 6, 11, 9, 10, 2, 2, 4, 8])))),
    adjoint_chain(LinSysData.of(9, dict(zip(_ESCAPED, [3, 1, 5, 1, 2, 3, 3, 3, 3])))),
    adjoint_chain(LinSysData.of(10, dict(zip(_ESCAPED, [5, 4, 6])))),
    adjoint_chain(curve_from_mults(65, [4, 10, 9, 14, 6, 12, 11, 8, 39, 26, 17, 8, 16, 6, 8, 13])),
]
_CHAIN_RECORDS = st.sampled_from(
    [s for r in _CHAINS for s in r.steps]
    + [c for r in _CHAINS for s in r.steps for c in s.removed_fixed]
    + [r.terminal for r in _CHAINS]
)


class _Step(ChainStep):
    pass


class TestDumpsChainRecords:
    """dumps writes a ChainStep and a RemovedComponent at any indent as
    json.dumps writes the dicts of the earlier encoders."""

    def test_the_records_cover_every_field(self):
        steps = [s for r in _CHAINS for s in r.steps]
        assert any(s.pencil_reduction for s in steps) and any(s.warnings for s in steps)
        assert {c.kind for s in steps for c in s.removed_fixed} == {"line", "conic"}
        assert any(c.count > 1 for s in steps for c in s.removed_fixed)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(st.recursive(
        st.one_of(_SCALARS, _CHAIN_RECORDS),
        lambda inner: st.one_of(
            st.lists(inner, max_size=4), st.dictionaries(_TEXT, inner, max_size=4)),
        max_leaves=8,
    ))
    @example([ser.encode_chain_report(r) for r in _CHAINS])
    def test_matches_json_of_oracle(self, value):
        plain = json.dumps(plain_oracle(value), indent=2, sort_keys=True)
        assert ser.dumps(value) == plain + "\n"

    def test_subclass_raises(self):
        step = _CHAINS[0].steps[0]
        with pytest.raises(TypeError):
            ser.dumps([_Step(*(getattr(step, f) for f in step._fields))])


# Polynomials of the trihoms and unipolys strategies times a scale that is
# zero, a small fraction, or a ratio of integers up to 2**200 of either
# sign; the leaves of values that hold them at several depths, in lists of
# polynomials alone and next to other values, drawn from a pool so that one
# record appears at several depths.
_POLYS = st.builds(
    operator.mul,
    st.one_of(trihoms(max_degree=4), unipolys(max_degree=6)),
    st.one_of(
        st.just(0),
        st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
        st.builds(Fraction, st.integers(-(2**200), 2**200), st.integers(1, 2**200)),
    ),
)


@st.composite
def _with_polys(draw):
    pool = st.sampled_from(draw(st.lists(_POLYS, min_size=1, max_size=4)))
    return draw(st.recursive(
        st.one_of(_SCALARS, pool),
        lambda inner: st.one_of(
            st.lists(inner, max_size=6),
            st.lists(pool, min_size=1, max_size=3),
            st.dictionaries(_TEXT, inner, max_size=6),
        ),
        max_leaves=20,
    ))


class _Tri(TriHomPoly):
    __slots__ = ()
    _fields = TriHomPoly._fields


class _Uni(UniPoly):
    __slots__ = ()
    _fields = UniPoly._fields


_F = TRI_X * TRI_Z * Fraction(-(2**200), 3) + TRI_Y * TRI_Y * 7
_P = UniPoly.of(Fraction(1, 2), 0, -(2**200), 5)


class TestDumpsPolynomials:
    """dumps writes a UniPoly or TriHomPoly as json.dumps writes the
    oracle's list of terms."""

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(_with_polys())
    @example(TriHomPoly.zero(3))
    @example([UniPoly.of(0), TriHomPoly.monomial((0, 0, 0), Fraction(-1, 3)), UniPoly.of(2**200)])
    @example([_F, [_F, {"a": _F}], {"b": [[_P]], "c": _P}, _P])
    @example(ser.encode_map(make_phi(Fraction(1, 2), -3)))
    @example(ser.encode_jonq(JonqElement.of(H4, UniPoly.of(Fraction(2, 3), 1), Fraction(-1, 5))))
    @example(ser.encode_order_report(leminv_check(JonqElement.of(H4, UniPoly.of(1, 2), 3))))
    def test_matches_json_of_oracle(self, value):
        plain = json.dumps(plain_oracle(value), indent=2, sort_keys=True)
        assert ser.dumps(value) == plain + "\n"

    @pytest.mark.parametrize(
        "value",
        [_Tri(1, (((1, 0, 0), 1),)), _Uni((1, 2)), [_Uni((1,))], [TRI_X, _Tri(1, ())],
         {"a": _Uni(())}, [{"a": [_P, _Tri(2, (((0, 1, 1), 3),))]}]],
    )
    def test_subclass_raises(self, value):
        with pytest.raises(TypeError):
            ser.dumps(value)


class TestMapAndGroupElements:
    def test_map_roundtrip(self):
        F = make_phi(Fraction(1, 2), -3)
        again = ser.decode_map(json_of(ser.encode_map(F)))
        assert again == F

    def test_map_needs_three_components(self):
        with pytest.raises(SchemaError):
            ser.decode_map({"deg": 1, "components": [[[[1, 0, 0], "1"]]]})

    def test_jonq_roundtrip(self):
        rng = random.Random(7)
        for _ in range(10):
            u = rand_jonq(rng, H4)
            assert ser.decode_jonq(json_of(ser.encode_jonq(u))) == u

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
