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

from _util import (
    H4,
    encode_trihom_oracle,
    encode_unipoly_oracle,
    monomials,
    rand_jonq,
    rand_trihom,
    rand_unipoly,
)


class TestRational:
    def test_accepts_ints_and_strings(self):
        assert ser.decode_rational(5, ()) == Fraction(5)
        assert ser.decode_rational("-7/3", ()) == Fraction(-7, 3)

    def test_rejects_floats(self):
        with pytest.raises(SchemaError):
            ser.decode_rational(0.5, ())

    def test_rejects_booleans_and_garbage(self):
        for bad in (True, "1.5", "a/b", "1/0", None):
            with pytest.raises(SchemaError):
                ser.decode_rational(bad, ())

    def test_roundtrip(self):
        for q in (Fraction(3), Fraction(-1, 2), Fraction(0)):
            assert ser.decode_rational(ser.encode_rational(q), ()) == q

    # Digits include a non-ASCII one, which the pattern's \d accepts; the
    # pattern's $ also lets a trailing newline through.
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
        if not ser._RATIONAL_RE.match(text):
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


class TestSystemsAndReports:
    def test_linsys_roundtrip(self):
        L = LinSysData.of(6, {"a": 2, "b": 3})
        assert ser.decode_linsys(ser.encode_linsys(L)) == L

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

    def test_order_report_encodes(self):
        rep = leminv_check(JonqElement.of(H4, 0, 1))
        data = ser.encode_order_report(rep)
        assert data["order"] == 2
        assert data["conclusion_holds"] is True
        rep = leminv_check(JonqElement.of(H4, UniPoly.variable(), 1))
        assert ser.encode_order_report(rep)["order"] == "infinite"
