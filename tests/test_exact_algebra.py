import contextlib
import math
import random
from fractions import Fraction
from itertools import islice
from unittest import mock

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cremona_kit.cremona_maps import _common_denominator
from cremona_kit import exact_algebra
from cremona_kit import serialization as ser
from cremona_kit.exact_algebra import (
    _LAMBDA,
    _P0,
    _POINT,
    _coprime,
    _coprime_lines,
    _content_free,
    _exact_quotient,
    _pack,
    _packed_parts,
    _PACKED_BITS,
    _primes,
    _primitive_parts,
    _substitute,
    _unpack,
    RatFunc,
    TRI_X,
    TRI_Y,
    TRI_Z,
    TriHomPoly,
    UniPoly,
    homogenize_uni,
    is_squarefree,
    tri_content_gcd,
    tri_divides,
    tri_divrem,
    tri_gcd,
    uni_gcd,
)

from _util import (
    SX,
    SY,
    SZ,
    ST,
    ADVERSARIAL,
    UNI_ADVERSARIAL,
    OldTriHomPoly,
    OldUniPoly,
    assert_canonical,
    common_denominator_oracle,
    exact_quotient_oracle,
    fractions_built,
    homogenize_uni_oracle,
    lex_normalized,
    monic,
    monomials,
    poly_mul_oracle,
    primitive_parts_fold_oracle,
    primitive_parts_oracle,
    rand_ratfunc,
    rand_trihom,
    rand_unipoly,
    substitute_oracle,
    sympy_to_tri,
    tri_form_oracle,
    tri_to_sympy,
    trihoms,
    uni_cofactors_oracle,
    uni_divmod_oracle,
    uni_form_oracle,
    uni_gcd_oracle,
    uni_to_sympy,
    unipolys,
)

T = UniPoly.variable()
ONE = UniPoly.constant(1)


@st.composite
def scaled_coeffs(draw):
    """[(p, q)] for the coefficients p/q of t^0, t^1, ..., not reduced: every
    p and q share a factor k.  One draw in three has only negative nonzero
    coefficients; any coefficient may be zero, the last one too, and the
    list may be empty."""
    k = draw(st.sampled_from([1, 2, 6]))
    sign = draw(st.sampled_from([1, -1, None]))
    coeffs = st.tuples(st.integers(0, 5), st.integers(1, 4), st.sampled_from([1, -1]))
    return [(p * k * (sign or s), q * k) for p, q, s in draw(st.lists(coeffs, max_size=5))]


def _uni_fractions(coeffs):
    return tuple(Fraction(p, q) for p, q in coeffs)


class TestUniPoly:
    @given(scaled_coeffs().filter(lambda a: any(p for p, _ in a)), scaled_coeffs(), scaled_coeffs())
    @settings(max_examples=60, derandomize=True, deadline=None)
    @example([(2, 4), (6, 4)], [(-3, 6)], [])
    @example([(-4, 6), (0, 6), (-2, 6)], [(4, 6), (0, 2)], [(-6, 6), (-6, 12)])
    @example([(0, 1), (0, 1), (3, 1)], [(1, 1), (2, 1), (1, 1)], [(1, 1), (1, 1)])
    def test_every_constructor_stores_the_canonical_form(self, a, b, c):
        """The Fraction constructor, the decoder, + - * (by a polynomial and
        by a scalar, as in the monic multiple), derivative, constant,
        homogenize_uni and the parts of _primitive_parts on UniPolys and of
        RatFunc, against the Fraction arithmetic of the dataclass.  The inputs share factors between
        numerators and denominators, are sometimes all negative, and b and c
        are sometimes zero."""
        f, g, h = (UniPoly(_uni_fractions(x)) for x in (a, b, c))
        old_f, old_g, old_h = (OldUniPoly(_uni_fractions(x)) for x in (a, b, c))
        decoded = ser.decode_unipoly([[[e], f"{p}/{q}"] for e, (p, q) in enumerate(a)], ())
        s = Fraction(-4, 6)
        cases = [
            (f, old_f),
            (decoded, old_f),
            (f + g, old_f + old_g),
            (f - g, old_f - old_g),
            (f * g, old_f * old_g),
            (f * s, old_f * s),
            (3 * g, old_g * 3),
            (f.derivative(), old_f.derivative()),
            (monic(g), old_g.monic()),
            (UniPoly.constant(s), OldUniPoly((s,))),
        ]
        p, q = f * h, g * h
        if p or q:
            content, parts = _primitive_parts((p, q))
            for part, want in zip((content, *parts), uni_cofactors_oracle(p, q)):
                cases.append((part, OldUniPoly(want.coeffs)))
        if q:
            r, (_, num, den) = RatFunc(p, q), uni_cofactors_oracle(p, q)
            lc = den.coeff(den.degree)
            cases.append((r.num, OldUniPoly(num.coeffs) * (1 / lc)))
            cases.append((r.den, OldUniPoly(den.coeffs) * (1 / lc)))
        for new, old in cases:
            assert_canonical(new, old)
        d = f.degree + 1
        old_hom = OldTriHomPoly(d, tuple(((0, e, d - e), c) for e, c in enumerate(old_f.coeffs)))
        assert_canonical(homogenize_uni(f, 1, d), old_hom)

    @given(scaled_coeffs(), scaled_coeffs())
    @settings(max_examples=40, derandomize=True, deadline=None)
    @example([(2, 4), (6, 4)], [(1, 2), (3, 2)])
    @example([(2, 4), (6, 4)], [(1, 2), (3, 4)])
    def test_equality_reads_the_stored_form(self, a, b):
        """== compares _den and _body, builds no Fraction, and agrees with the
        coefficients; equal polynomials and fractions hash alike."""
        f, g = UniPoly(_uni_fractions(a)), UniPoly(_uni_fractions(b))
        r, s = RatFunc(f, T + ONE), RatFunc(g * 2, (T + ONE) * 2)
        (same, same_ratio), built = fractions_built(lambda: (f == g, r == s))
        assert built == 0
        assert same == same_ratio == (f.coeffs == g.coeffs)
        if same:
            assert hash(f) == hash(g) and hash(r) == hash(s)

    def test_zero_normal_form(self):
        assert UniPoly.of(0, 0, 0).is_zero
        assert UniPoly.of(1, 2, 0, 0).degree == 1

    def test_gcd_shared_root(self):
        assert uni_gcd(T * T - ONE, T - ONE) == T - ONE

    def test_gcd_with_zero_is_monic(self):
        p = UniPoly.of(2, 0, 4)  # 4t^2 + 2
        assert uni_gcd(p, UniPoly()) == UniPoly.of(Fraction(1, 2), 0, 1)
        assert uni_gcd(UniPoly(), UniPoly()).is_zero

    def test_gcd_coprime(self):
        # Euclid by hand: x^2+1 = (x^2-1) + 2, so the gcd is constant.
        assert uni_gcd(T * T + ONE, T * T - ONE) == ONE

    def test_gcd_divides_both_and_cofactors_coprime(self):
        rng = random.Random(101)
        for _ in range(50):
            p = rand_unipoly(rng, 4, nonzero=True)
            q = rand_unipoly(rng, 4, nonzero=True)
            g = uni_gcd(p, q)
            (a, r), (b, s) = uni_divmod_oracle(p, g), uni_divmod_oracle(q, g)
            assert r.is_zero and s.is_zero
            assert uni_gcd(a, b).degree == 0

    def test_gcd_matches_sympy(self):
        rng = random.Random(202)
        for _ in range(40):
            c = rand_unipoly(rng, 2, nonzero=True)
            p = rand_unipoly(rng, 3, nonzero=True) * c
            q = rand_unipoly(rng, 3, nonzero=True) * c
            ours = uni_gcd(p, q)
            theirs = sympy.gcd(uni_to_sympy(p), uni_to_sympy(q), ST)
            theirs = sympy.Poly(theirs, ST).monic()
            assert sympy.expand(uni_to_sympy(ours) - theirs.as_expr()) == 0

    def test_squarefree(self):
        assert is_squarefree(T**4 - ONE)
        assert not is_squarefree((T - ONE) * (T - ONE))
        assert is_squarefree(T**6 + T + ONE)
        with pytest.raises(ValueError):
            is_squarefree(UniPoly())

    def test_lcm(self):
        assert _common_denominator([T - ONE, T + ONE]) == (T * T - ONE, [T + ONE, T - ONE])

@st.composite
def uni_gcd_inputs(draw):
    """(p, q) with a planted common factor of degree 1-4 (or none), and
    sometimes a zero or constant argument."""
    common = ONE
    if draw(st.booleans()):
        common = draw(unipolys(min_degree=1))
    pair = []
    for _ in range(2):
        kind = draw(st.integers(0, 7))
        if kind == 0:
            pair.append(UniPoly())
        elif kind == 1:
            pair.append(draw(unipolys(max_degree=0)))
        else:
            pair.append(common * draw(unipolys(max_degree=3)))
    return pair


def sympy_uni_gcd(p, q):
    if p.is_zero and q.is_zero:
        return UniPoly()
    g = sympy.Poly(sympy.gcd(uni_to_sympy(p), uni_to_sympy(q)), ST).monic()
    return UniPoly(tuple(Fraction(int(c.p), int(c.q)) for c in reversed(g.all_coeffs())))


class TestModularUniGcd:
    @given(uni_gcd_inputs())
    @settings(max_examples=150, derandomize=True, deadline=None)
    # The common factor 1 + _P0 t is 1 mod _P0: a first prime that is not
    # skipped sees coprime images.
    @example([UniPoly.of(1, _P0) * UniPoly.of(3, 1), UniPoly.of(1, _P0) * UniPoly.of(-5, 1)])
    # t + 1 and t + 1 + _P0 agree mod _P0, the unlucky first prime.
    @example([UniPoly.of(1, 1), UniPoly.of(1 + _P0, 1)])
    @example([UniPoly.of(1, 1) * UniPoly.of(2, 0, 1), UniPoly.of(1 + _P0, 1) * UniPoly.of(2, 0, 1)])
    @example([UniPoly(), UniPoly.of(Fraction(-3, 7))])
    @example([UniPoly.of(Fraction(-2, 3)), T * T - ONE])
    @example([UniPoly.of(Fraction(2, 3), 0, 4), UniPoly()])
    def test_equals_oracle_and_sympy(self, pair):
        p, q = pair
        g = uni_gcd(p, q)
        assert g == uni_gcd_oracle(p, q) == sympy_uni_gcd(p, q)
        with brown_only():
            assert uni_gcd(p, q) == g

    def test_candidate_stable_over_two_primes_is_rejected(self):
        # mod p1 and mod p1*p2 the constant 5 + p1*p2 reads 5, so the
        # candidate t + 5 passes the CRT test and only trial division
        # rejects it.
        p1, p2 = islice(_primes(), 2)
        h = T + UniPoly.constant(5 + p1 * p2)
        assert uni_gcd(h * T, h * (T + ONE)) == h
        with brown_only():
            assert uni_gcd(h * T, h * (T + ONE)) == h


def value(p: UniPoly, t: Fraction) -> Fraction:
    """p(t) in Fractions, from the coefficients."""
    return sum((c * t**e for e, c in enumerate(p.coeffs)), Fraction(0))


@st.composite
def ratfuncs(draw):
    num = UniPoly() if draw(st.integers(0, 5)) == 0 else draw(unipolys(max_degree=3))
    return RatFunc(num, draw(unipolys(max_degree=3)))


class TestRatFuncLaws:
    @given(ratfuncs(), ratfuncs(), ratfuncs())
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_field_laws(self, f, g, h):
        zero, one = RatFunc.of(0), RatFunc.of(1)
        assert f + g == g + f and f * g == g * f
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f + zero == f and f * one == f and f - f == zero
        if not f.is_zero:
            assert f * f.inverse() == one

    @given(ratfuncs())
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_normal_form(self, f):
        assert f.den.coeff(f.den.degree) == 1
        assert uni_gcd(f.num, f.den) == ONE
        assert RatFunc(f.num * f.den, f.den * f.den) == f

    @given(unipolys(max_degree=2), unipolys(max_degree=3), unipolys(max_degree=3), st.booleans())
    @settings(max_examples=80, derandomize=True, deadline=None)
    # a non-monic constant denominator; a zero numerator over a cubic
    @example(ONE, T - ONE, UniPoly.of(Fraction(-2, 3)), False)
    @example(T * 3 + ONE, ONE, UniPoly.of(5, 0, 2), True)
    def test_reduced_monic_and_equal_in_value(self, common, a, b, zero):
        """RatFunc(num, den), for num and den sharing a factor, has a monic
        denominator prime to its numerator, by the Fraction Euclid of the
        oracle, and takes the value num(t) / den(t) in Fractions wherever
        den(t) != 0: at 12 or more points, more than the degree of
        num * r.den - den * r.num, which is at most 10."""
        num, den = (UniPoly() if zero else common * a), common * b
        r = RatFunc(num, den)
        assert r.den.coeffs[-1] == 1
        assert uni_gcd_oracle(r.num, r.den) == ONE
        points = [t for t in map(Fraction, range(-8, 9)) if value(den, t)]
        assert len(points) >= 12
        for t in points:
            assert value(r.num, t) / value(r.den, t) == value(num, t) / value(den, t)

class TestRatFunc:
    def test_normalization_idempotent(self):
        rng = random.Random(404)
        for _ in range(50):
            f = rand_ratfunc(rng, 3)
            again = RatFunc(f.num, f.den)
            assert again == f
            assert f.den.is_zero or f.den.coeff(f.den.degree) == 1

    def test_reduction(self):
        f = RatFunc((T - ONE) * (T + ONE), (T - ONE) * UniPoly.constant(2))
        assert f.num == UniPoly.of(Fraction(1, 2), Fraction(1, 2))
        assert f.den == ONE

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RatFunc(ONE, UniPoly())

    def test_field_ops(self):
        rng = random.Random(505)
        for _ in range(30):
            f = rand_ratfunc(rng, 2)
            g = rand_ratfunc(rng, 2)
            h = rand_ratfunc(rng, 2)
            assert (f + g) * h == f * h + g * h
            if not g.is_zero:
                assert f * g.inverse() * g == f

    def test_constant_detection(self):
        assert RatFunc.of(Fraction(3, 4)).is_constant
        assert RatFunc.of(Fraction(3, 4)).constant_value == Fraction(3, 4)
        assert not RatFunc(T, ONE).is_constant

    def test_constant_value_of_zero(self):
        # The zero function has no zero branch: coeff(0) of the zero
        # numerator, whose body is empty over den 1, is Fraction(0).
        zero = RatFunc.of(0)
        assert zero.is_constant
        assert (type(zero.constant_value), zero.constant_value) == (Fraction, 0)


class TestRefusals:
    """The exact type and message of each refusal of the polynomial layer."""

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda: TRI_X**-1, ValueError, "negative power of a polynomial"),
            (lambda: T**-1, ValueError, "negative power of a polynomial"),
            (lambda: RatFunc.of(0).inverse(), ZeroDivisionError,
             "inverse of the zero rational function"),
            (lambda: RatFunc(T).constant_value, ValueError, "rational function is not constant"),
            (lambda: TriHomPoly.of({}), ValueError, "degree required for the zero polynomial"),
            (lambda: tri_divrem(TRI_X, TriHomPoly.zero(1)), ZeroDivisionError,
             "division by the zero polynomial"),
            (lambda: tri_divides(TriHomPoly.zero(1), TRI_X), ZeroDivisionError,
             "divisibility by the zero polynomial"),
        ],
        ids=[
            "trihom-negative-power",
            "unipoly-negative-power",
            "ratfunc-inverse-of-zero",
            "ratfunc-not-constant",
            "trihom-of-empty-without-degree",
            "tri-divrem-by-zero",
            "tri-divides-by-zero",
        ],
    )
    def test_message(self, call, error, message):
        with pytest.raises(error) as info:
            call()
        assert (type(info.value), str(info.value)) == (error, message)


@st.composite
def scaled_terms(draw, degree):
    """{monomial: (p, q)} for the term p/q, not reduced: every p and q share
    a factor k.  One draw in three has only negative coefficients; in one
    draw of two every term is divisible by a drawn power of z.  The dict
    may be empty."""
    zpow = draw(st.integers(0, degree)) if draw(st.booleans()) else 0
    k = draw(st.sampled_from([1, 2, 6]))
    sign = draw(st.sampled_from([1, -1, None]))
    coeffs = st.tuples(st.integers(1, 5), st.integers(1, 4), st.sampled_from([1, -1]))
    monos = [m for m in monomials(degree) if m[2] >= zpow]
    raw = draw(st.dictionaries(st.sampled_from(monos), coeffs, max_size=5))
    return {m: (p * k * (sign or s), q * k) for m, (p, q, s) in raw.items()}


@st.composite
def canonical_cases(draw):
    """(d, a, b, image, other, e): terms a and b of degree d, and terms image
    and other of degree e, as scaled_terms; a is never empty."""
    d, e = draw(st.integers(0, 3)), draw(st.integers(0, 2))
    a = draw(scaled_terms(d).filter(bool))
    return d, a, draw(scaled_terms(d)), draw(scaled_terms(e)), draw(scaled_terms(e)), e


def _fractions(terms):
    return tuple((m, Fraction(p, q)) for m, (p, q) in terms.items())


@st.composite
def substitutions(draw):
    """(f, images): f from trihoms() or zero; images of one degree with
    mixed denominators, some of them ADVERSARIAL factors or zero."""
    if draw(st.integers(0, 9)) == 0:
        f = TriHomPoly.zero(draw(st.integers(0, 3)))
    else:
        f = draw(trihoms())
    e = draw(st.integers(0, 3))
    zero = st.integers(0, 3).map(lambda n: n == 0)
    return f, [TriHomPoly.zero(e) if draw(zero) else draw(trihoms(degree=e)) for _ in range(3)]


class TestTriHomPoly:
    def test_rejects_inhomogeneous(self):
        with pytest.raises(ValueError):
            TriHomPoly(2, (((1, 0, 0), Fraction(1)),))

    def test_repeated_exponents_are_summed(self):
        f = TriHomPoly(2, (((1, 1, 0), Fraction(1, 2)), ((0, 2, 0), 3), ((1, 1, 0), Fraction(1, 3))))
        assert f.terms == (((1, 1, 0), Fraction(5, 6)), ((0, 2, 0), Fraction(3)))
        assert all(type(c) is Fraction for _, c in f.terms)

    def test_cancelled_terms_are_dropped(self):
        f = TriHomPoly(2, (((2, 0, 0), 1), ((0, 1, 1), 0), ((1, 0, 1), 4), ((2, 0, 0), -1)))
        assert f.terms == (((1, 0, 1), Fraction(4)),)
        zero = TriHomPoly(3, (((3, 0, 0), Fraction(2, 3)), ((3, 0, 0), Fraction(-2, 3))))
        assert zero.is_zero and zero.degree == 3
        assert zero == TriHomPoly.zero(3) != TriHomPoly.zero(2)

    @pytest.mark.parametrize("coeff", [1.0, 0.0, True, False])
    def test_float_and_bool_coefficients_rejected(self, coeff):
        with pytest.raises(TypeError):
            TriHomPoly(1, (((1, 0, 0), coeff),))
        with pytest.raises(TypeError):
            TriHomPoly(1, (((1, 0, 0), 1), ((1, 0, 0), coeff)))

    def test_negative_exponents_rejected(self):
        with pytest.raises(ValueError):
            TriHomPoly(1, (((2, -1, 0), 1),))
        with pytest.raises(ValueError):
            TriHomPoly(0, (((1, 0, -1), 1),))

    def test_bool_and_float_exponents_and_degrees_rejected(self):
        # Accepted, (True, 0, 0) was written as [[true, 0, 0], "1"], which the
        # decoder refuses, and the degree 1.0 of the second could not be written.
        for build in (
            lambda: TriHomPoly.monomial((True, 0, 0)),
            lambda: TriHomPoly.of({(1.0, 0, 0): 1}),
            lambda: TriHomPoly(True),
            lambda: TriHomPoly.zero(2.0),
            lambda: TriHomPoly(1, (((0, 0, True), 1),)),
        ):
            with pytest.raises(TypeError):
                build()

    def test_homogeneity_of_products(self):
        rng = random.Random(606)
        for _ in range(40):
            a = rand_trihom(rng, rng.randint(0, 4))
            b = rand_trihom(rng, rng.randint(0, 4))
            assert (a * b).degree == a.degree + b.degree
        # A zero keeps its degree: sums across degrees are refused with it too.
        for f, g in ((TriHomPoly.zero(2), TRI_X), (TRI_X, TriHomPoly.zero(3)), (TRI_X, TRI_Y * TRI_Z)):
            with pytest.raises(ValueError, match="different degrees"):
                f + g
            with pytest.raises(ValueError, match="different degrees"):
                f - g

    def test_distributivity(self):
        rng = random.Random(707)
        for _ in range(70):
            d = rng.randint(1, 3)
            p = rand_trihom(rng, d)
            q = rand_trihom(rng, d)
            r = rand_trihom(rng, rng.randint(1, 3))
            assert (p + q) * r == p * r + q * r

    def test_uni_distributivity(self):
        rng = random.Random(708)
        for _ in range(70):
            p, q, r = (rand_unipoly(rng, 4) for _ in range(3))
            assert (p + q) * r == p * r + q * r

    def test_ratfunc_distributivity(self):
        rng = random.Random(709)
        for _ in range(70):
            p, q, r = (rand_ratfunc(rng, 2) for _ in range(3))
            assert (p + q) * r == p * r + q * r

    def test_substitute_matches_sympy(self):
        rng = random.Random(909)
        for _ in range(10):
            f = rand_trihom(rng, 2)
            images = [rand_trihom(rng, 2, nonzero=True) for _ in range(3)]
            ours = f.substitute(images)
            subs = {
                SX: tri_to_sympy(images[0]),
                SY: tri_to_sympy(images[1]),
                SZ: tri_to_sympy(images[2]),
            }
            theirs = sympy.expand(tri_to_sympy(f).subs(subs, simultaneous=True))
            assert sympy.expand(tri_to_sympy(ours) - theirs) == 0

    def test_substitute_rejects_images_of_mixed_degree(self):
        with pytest.raises(ValueError):
            TRI_X.substitute([TRI_X, TRI_Y * TRI_Z, TRI_Z * TRI_Z])

    @given(substitutions())
    @settings(max_examples=100, derandomize=True, deadline=None)
    @example((TriHomPoly.zero(2), [TRI_X * Fraction(1, 2), TRI_Y * Fraction(2, 3), TRI_Z]))
    @example((TriHomPoly.monomial((0, 0, 0), Fraction(-3, 4)), [TRI_X, TRI_Y, TRI_Z * 5]))
    @example((
        TRI_X * TRI_Y * Fraction(1, 6) - TRI_Z * TRI_Z * Fraction(3, 4),
        [TRI_X * Fraction(1, 2) + TRI_Y * Fraction(2, 3), TriHomPoly.zero(1), TRI_Z * Fraction(5, 7)],
    ))
    @example((TRI_X * 2 + TRI_Y - TRI_Z, [TriHomPoly.zero(2), TRI_X * TRI_Y * Fraction(1, 3), TriHomPoly.zero(2)]))
    def test_substitute_equals_fraction_oracle(self, case):
        f, images = case
        g = f.substitute(images)
        expected = substitute_oracle(f, images)
        assert g == expected
        assert_canonical(g, OldTriHomPoly(expected.degree, expected.terms))

    def test_kronecker_maximal_cancellation(self):
        """(x - y)^d at x = g + h, y = g: every power and product is large,
        and all of it cancels down to h^d, or to 0 when h = 0."""
        for d, e in [(1, 1), (3, 2), (6, 1), (4, 3)]:
            f = (TRI_X - TRI_Y) ** d
            g = (TRI_X * 7 - TRI_Y * 5 + TRI_Z * 3) ** e
            for h in (TRI_Z**e * Fraction(-2, 3), TriHomPoly.zero(e), TRI_X**e * 97):
                images = [g + h, g, TRI_Z**e * 11]
                assert f.substitute(images) == substitute_oracle(f, images) == h**d

    def test_kronecker_all_negative_images(self):
        rng = random.Random(1818)
        for d, e in [(2, 1), (3, 2), (5, 1), (2, 4)]:
            f = sum((TriHomPoly.monomial(m, rng.randint(1, 9)) for m in monomials(d)), TriHomPoly.zero(d))
            images = [
                sum((TriHomPoly.monomial(m, -rng.randint(1, 2**40)) for m in monomials(e)), TriHomPoly.zero(e))
                for _ in range(3)
            ]
            assert f.substitute(images) == substitute_oracle(f, images)
            assert f.substitute([-g for g in images]) == substitute_oracle(f, images) * (-1) ** d

    def test_kronecker_tight_bounds_at_byte_boundaries(self):
        """A coefficient equal to sum |c| * M^deg, the slot bound, with the
        bound at and next to each byte boundary of the slot width: it needs
        the sign bit, and a value one bit short of a byte reads as negative
        without it."""
        for bits in (8, 16, 24, 32, 64, 128):
            for v in (2 ** (bits - 1) - 1, 2 ** (bits - 1), 2**bits - 1, 2**bits):
                for c in (v, -v):
                    f = TRI_X * TRI_Y * c
                    assert f.substitute([TRI_X, TRI_Y, TRI_Z]) == f
                    images = [TRI_X * (TRI_Y + TRI_Z), TRI_Y * TRI_Y, TRI_Z * TRI_X]
                    assert f.substitute(images) == substitute_oracle(f, images)
            for m in (2 ** (bits // 2) - 1, 2 ** (bits // 2), 2 ** (bits // 2 - 1) + 1):
                for sign in (1, -1):
                    f, images = TRI_X * TRI_X * sign, [TRI_X * m, TRI_Y, TRI_Z]
                    assert f.substitute(images) == TRI_X * TRI_X * (sign * m * m)

    @pytest.mark.parametrize("d, e", [(0, 0), (0, 2), (2, 0), (3, 0), (0, 5)])
    def test_kronecker_degree_zero_and_zero_images(self, d, e):
        f = TriHomPoly.monomial((0, 0, 0), Fraction(-7, 3)) if d == 0 else (TRI_X - TRI_Y * 2 + TRI_Z) ** d
        constants = [TriHomPoly.monomial((0, 0, 0), c) for c in (Fraction(5, 2), -3, 2**70)]
        for images in (
            [TriHomPoly.zero(e)] * 3,
            [TriHomPoly.zero(e), TRI_Z**e * -4, TriHomPoly.zero(e)],
            constants if e == 0 else [TRI_X**e * Fraction(1, 3), TRI_Y**e, TRI_Z**e * -2],
        ):
            g = f.substitute(images)
            assert g == substitute_oracle(f, images) and g.degree == d * e

    @given(canonical_cases())
    @settings(max_examples=60, derandomize=True, deadline=None)
    @example((1, {(1, 0, 0): (2, 4), (0, 0, 1): (6, 4)}, {(0, 1, 0): (-3, 6)}, {}, {}, 1))
    @example((2, {(1, 0, 1): (-4, 6), (0, 0, 2): (-2, 6)}, {(1, 0, 1): (4, 6)}, {}, {}, 1))
    def test_every_constructor_stores_the_canonical_form(self, case):
        """The Fraction constructor, the decoder, + - * (by a polynomial and
        by a scalar), partial, substitute and the content removal of
        _primitive_parts, against the Fraction arithmetic of the dataclass.
        The inputs share factors between numerators and denominators, are
        sometimes all negative and sometimes divisible by a power of z."""
        d, a, b, image, other, e = case
        f, g = (TriHomPoly(d, _fractions(t)) for t in (a, b))
        old_f, old_g = (OldTriHomPoly(d, _fractions(t)) for t in (a, b))
        decoded = ser.decode_trihom([[list(m), f"{p}/{q}"] for m, (p, q) in a.items()], (), d)
        h, old_h = TriHomPoly(e, _fractions(image)), OldTriHomPoly(e, _fractions(image))
        k, old_k = TriHomPoly(e, _fractions(other)), OldTriHomPoly(e, _fractions(other))
        images = [h, h * Fraction(-2, 3) + k, TRI_Z**e]
        old_images = [old_h, old_h * Fraction(-2, 3) + old_k, OldTriHomPoly(e, (((0, 0, e), 1),))]
        cases = [
            (f, old_f),
            (decoded, old_f),
            (f + g, old_f + old_g),
            (f - g, old_f - old_g),
            (f * h, old_f * old_h),
            (f * Fraction(-4, 6), old_f * Fraction(-4, 6)),
            (f.substitute(images), old_f.substitute(old_images)),
        ]
        cases += [(f.partial(axis), old_f.partial(axis)) for axis in range(3)]
        for normalise in (False, True):
            polys = (f * h, g * h, TriHomPoly.zero(d + e))
            if f * h or g * h:
                expected = primitive_parts_fold_oracle(polys, normalise)
                for part, want in zip(_primitive_parts(polys, normalise)[1], expected[1]):
                    cases.append((part, OldTriHomPoly(want.degree, want.terms)))
        for new, old in cases:
            assert_canonical(new, old)

    @given(trihoms(max_degree=3))
    @settings(max_examples=40, derandomize=True, deadline=None)
    def test_coeff_is_one_lookup(self, f):
        """coeff(e) is the coefficient of e in the terms view, zero for a
        triple of another degree, and builds one Fraction, not the view."""
        fresh, terms, d = f * 1, dict(f.terms), f.degree
        for e in monomials(d) + [(i, j, k + 1) for i, j, k in terms] + [(d + 1, 0, -1)]:
            c, built = fractions_built(fresh.coeff, e)
            assert c == terms.get(e, 0) and built == 1

    def test_equality_compares_the_degree(self):
        assert TriHomPoly.zero(2) != TriHomPoly.zero(3)
        assert TRI_X * Fraction(2, 4) == TriHomPoly(1, (((1, 0, 0), Fraction(1, 2)),))
        assert TRI_X * TRI_Z != TRI_X * TRI_Y

@st.composite
def one_term_factors(draw, kind):
    """A UniPoly or TriHomPoly with at most one term: zero one draw in six,
    a constant one in three, else c t^e or c x^i y^j z^k; c has a
    denominator one draw in two."""
    c = Fraction(draw(st.integers(-6, 6).filter(bool)), draw(st.sampled_from([1, 1, 2, 9])))
    shape = draw(st.sampled_from(["zero", "constant", "constant", "term", "term", "term"]))
    if kind == "uni":
        if shape == "zero":
            return UniPoly()
        return UniPoly.of(*[0] * (0 if shape == "constant" else draw(st.integers(1, 4))), c)
    degree = draw(st.integers(0, 3))
    if shape == "zero":
        return TriHomPoly.zero(degree)
    exps = (0, 0, degree) if shape == "constant" else draw(st.sampled_from(monomials(degree)))
    return TriHomPoly.monomial(exps, c)


def assert_same_form(f, g):
    """f and g are one polynomial stored in one form, the body in one order."""
    assert (f.degree, f._den, list(f._body.items())) == (g.degree, g._den, list(g._body.items()))


_SCALE = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 12))


@st.composite
def kernel_cases(draw):
    """(polys, images): one to three polynomials of one degree d <= 3, each
    a trihoms() draw, a one-term polynomial or zero, scaled by a rational so
    that their denominators differ; images as in substitutions()."""
    d = draw(st.integers(0, 3))
    polys = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.integers(0, 4))
        if kind == 0:
            f = TriHomPoly.zero(d)
        elif kind == 1:
            f = TriHomPoly.monomial(draw(st.sampled_from(monomials(d))), draw(_SCALE))
        else:
            f = draw(trihoms(degree=d))
        polys.append(f * draw(_SCALE))
    return polys, draw(substitutions())[1]


class TestSubstitutionKernel:
    """_substitute, on one to three polynomials that share one packing of
    the images, gives what the Fraction oracle gives for each alone."""

    @given(kernel_cases())
    @settings(max_examples=60, derandomize=True, deadline=None)
    @example((
        [TRI_X * Fraction(1, 2), TRI_Y * Fraction(3, 7) + TRI_Z, TRI_Z * Fraction(-5, 9)],
        [TRI_X * Fraction(2, 3), TRI_Y + TRI_Z * Fraction(1, 5), TRI_Z * 11],
    ))
    @example((
        [TriHomPoly.monomial((0, 0, 0), Fraction(-3, 4)), TriHomPoly.monomial((0, 0, 0), 5),
         TriHomPoly.zero(0)],
        [TRI_X * TRI_Y, TRI_Z * TRI_Z * Fraction(7, 2), TRI_X * TRI_Z - TRI_Y * TRI_Y],
    ))
    @example((
        [TriHomPoly.monomial((1, 1, 1), Fraction(2, 3)), TriHomPoly.monomial((3, 0, 0), -7),
         TriHomPoly.monomial((0, 0, 3), Fraction(1, 11))],
        [TRI_X - TRI_Z * 2**40, TRI_Y * Fraction(1, 3), TRI_Z],
    ))
    @example(([TRI_X * 2**100 + TRI_Y, TRI_X], [TRI_X * 2**60, TRI_Y * -(2**60), TRI_Z * 3]))
    def test_equals_fraction_oracle(self, case):
        polys, images = case
        got = _substitute(polys, images)
        assert got == [substitute_oracle(f, images) for f in polys]
        for g in got:
            assert_canonical(g, OldTriHomPoly(g.degree, g.terms))


class TestUnpack:
    """_unpack(_pack(F)) is F, keyed in decreasing lex order, at slot widths
    of 8 to 200 bits, byte counts that are a power of two or not alike."""

    @given(st.sampled_from(range(8, 201, 8)), st.integers(1, 6), st.data())
    @settings(max_examples=100, derandomize=True, deadline=None)
    @example(24, 3, None)
    @example(40, 5, None)
    @example(72, 1, None)
    def test_round_trip(self, k, W, data):
        half = 1 << (k - 1)
        if data is None:
            # Every digit at an end of [-2^(k-1), 2^(k-1)), each next to the other.
            F = {divmod(s, W): (-half, half - 1)[s % 2] for s in range(3 * W - 1, -1, -1)}
            n = 3 * W
        else:
            digit = st.one_of(st.integers(-half, half - 1), st.sampled_from([-half, half - 1, -1, 1]))
            keys = st.tuples(st.integers(0, 4), st.integers(0, W - 1))
            F = data.draw(st.dictionaries(keys, digit.filter(bool), max_size=12))
            F = dict(sorted(F.items(), reverse=True))
            n = max((i * W + j for i, j in F), default=0) + 1 + data.draw(st.integers(0, 3))
        got = _unpack(_pack(F, k, W), k, W, n)
        assert list(got.items()) == list(F.items())

    @pytest.mark.parametrize("k", [8, 16, 24, 32, 40, 64, 72, 128, 200])
    def test_boundary_digits(self, k):
        """Runs of -2^(k-1) and of 2^(k-1) - 1, which borrow or carry through
        every slot, and a digit of 2^(k-1), which does not fit its slot and
        reads as -2^(k-1) with a carry of one into the next."""
        half = 1 << (k - 1)
        for pattern in ([-half] * 7, [half - 1] * 7, [-half, -1, half - 1, 1, -half]):
            F = {(0, s): c for s, c in zip(range(len(pattern) - 1, -1, -1), pattern)}
            assert list(_unpack(_pack(F, k, 8), k, 8, 8).items()) == list(F.items())
        assert _unpack(_pack({(0, 0): half}, k, 8), k, 8, 2) == {(0, 1): 1, (0, 0): -half}


class TestMonomialProducts:
    """A product with a one-term factor shifts the keys of the other factor,
    on either side, against the general product (_bimul, then _lex) and the
    Fraction arithmetic of the dataclass."""

    @given(st.one_of(st.just(UniPoly()), unipolys()), one_term_factors("uni"))
    @settings(max_examples=80, derandomize=True, deadline=None)
    @example(UniPoly(), UniPoly.of(0, Fraction(-3, 2)))
    @example(UniPoly.of(1, 2), UniPoly())
    @example(UniPoly.of(Fraction(2, 3), 0, Fraction(4, 9)), UniPoly.of(Fraction(9, 2)))
    def test_unipoly(self, f, m):
        old_f, old_m = OldUniPoly(f.coeffs), OldUniPoly(m.coeffs)
        for product, old in ((f * m, old_f * old_m), (m * f, old_m * old_f)):
            assert_same_form(product, poly_mul_oracle(f, m))
            assert_canonical(product, old)

    @given(st.one_of(st.integers(0, 3).map(TriHomPoly.zero), trihoms()), one_term_factors("tri"))
    @settings(max_examples=80, derandomize=True, deadline=None)
    @example(TriHomPoly.zero(2), TRI_X * Fraction(-3, 2))
    @example(TRI_X + TRI_Y, TriHomPoly.zero(1))
    @example((TRI_X - TRI_Z * Fraction(2, 3)) * Fraction(4, 9), TriHomPoly.monomial((0, 0, 0), 4))
    def test_trihompoly(self, f, m):
        old_f, old_m = (OldTriHomPoly(p.degree, p.terms) for p in (f, m))
        for product, old in ((f * m, old_f * old_m), (m * f, old_m * old_f)):
            assert_same_form(product, poly_mul_oracle(f, m))
            assert_canonical(product, old)


class TestDivisibility:
    def test_trivial_cases(self):
        assert tri_divides(TRI_X, TRI_X * TRI_X * TRI_Y)
        assert tri_divides(TRI_X + TRI_Y, TRI_X * TRI_X - TRI_Y * TRI_Y)
        assert not tri_divides(TRI_X + TRI_Y, TRI_X * TRI_X + TRI_Y * TRI_Y)

    def test_product_always_divisible(self):
        rng = random.Random(111)
        for _ in range(60):
            c = rand_trihom(rng, rng.randint(1, 3))
            q = rand_trihom(rng, rng.randint(0, 3))
            assert tri_divides(c, c * q)
            if not q.is_zero:
                assert tri_divrem(c * q, c) == (q, TriHomPoly.zero(c.degree + q.degree))

    def test_divrem_invariant(self):
        rng = random.Random(222)
        for _ in range(40):
            f = rand_trihom(rng, 4)
            c = rand_trihom(rng, 2, nonzero=True)
            q, r = tri_divrem(f, c)
            assert q * c + r == f

    def test_matches_sympy(self):
        rng = random.Random(333)
        for _ in range(30):
            c = rand_trihom(rng, 2, nonzero=True)
            f = rand_trihom(rng, 4)
            ours = tri_divides(c, f)
            _, rem = sympy.div(tri_to_sympy(f), tri_to_sympy(c), SX, SY, SZ)
            assert ours == (sympy.expand(rem) == 0)


def z_power(n, coeff=1):
    return TriHomPoly.monomial((0, 0, n), coeff)


@st.composite
def divisibility_cases(draw):
    """(c, f): c a rational multiple, mostly not primitive, of z^b times a
    polynomial; f a multiple of c (the quotient has negative coefficients
    one draw in two), one perturbed by a term, one short of a power of z,
    zero, or any polynomial, of lower degree than c included."""
    scale = draw(st.sampled_from([Fraction(1), Fraction(-6, 5), Fraction(4), Fraction(2, 9)]))
    b = draw(st.integers(0, 2))
    base = draw(trihoms(max_degree=2))
    c = base * z_power(b, scale)
    kind = draw(st.sampled_from(["multiple", "perturbed", "short of z", "zero", "any"]))
    if kind == "zero":
        return c, TriHomPoly.zero(draw(st.integers(0, 5)))
    if kind == "any":
        return c, draw(trihoms(max_degree=4))
    q = draw(trihoms(max_degree=2)) * z_power(draw(st.integers(0, 2)))
    if kind == "short of z":
        return c, base * q * z_power(max(b - 1, 0))
    f = c * q
    if kind == "perturbed":
        f = f + draw(trihoms(degree=f.degree))
    return c, f


class TestExactDivision:
    """The integer tri_divides against the Fraction remainder of tri_divrem."""

    @given(divisibility_cases())
    @example(((TRI_X + TRI_Y * 2) * Fraction(-6, 5), (TRI_X + TRI_Y * 2) * (TRI_Y * 3 - TRI_X * 7)))
    @example((z_power(2, 4), TRI_X * z_power(2)))
    @example((TRI_X * z_power(2, Fraction(2, 9)), TRI_X * TRI_X * TRI_Z))
    @example((TRI_X * TRI_Z * 4, TriHomPoly.zero(0)))
    @example((TRI_X * TRI_Y * 6, TRI_X * 3))
    # f = 0 above c's degree, deg f < deg c by a power of z, c with more or
    # fewer powers of z than f, and a constant c.
    @example((TRI_X * TRI_Y, TriHomPoly.zero(3)))
    @example((z_power(2), TRI_Z))
    @example((TRI_Z * (TRI_X + TRI_Y), (TRI_X + TRI_Y) * TRI_Y * z_power(2)))
    @example((z_power(2) * (TRI_X + TRI_Y), (TRI_X + TRI_Y) * TRI_Y * TRI_Z))
    @example((z_power(0, Fraction(-2, 3)), TRI_X * TRI_Y - z_power(2)))
    @example((z_power(0, 5), TriHomPoly.zero(2)))
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_agrees_with_tri_divrem(self, case):
        c, f = case
        assert tri_divides(c, f) == tri_divrem(f, c)[1].is_zero

    @given(divisibility_cases())
    @example((TRI_X * z_power(2, 4), (TRI_X * TRI_Y + TRI_Z * TRI_Z * 3) * TRI_X * TRI_X))
    @example((TRI_Y * 6, TRI_X * TRI_X * 3 + TRI_Y * TRI_Z))
    @example((TRI_X * TRI_Y, TRI_X * TRI_Y * TRI_Z))
    @example((TRI_X - TRI_Y, (TRI_X - TRI_Y) * (TRI_X + TRI_Y) * (TRI_X * 2 + TRI_Z)))
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_quotient_equals_the_max_scan(self, case):
        # The same quotient or None, keys in decreasing lex order, for the
        # dividend in lex order and reversed; a one-term divisor included.
        c, f = case
        C = _content_free(c._body)
        for F in (f._body, dict(reversed(f._body.items()))):
            got = _exact_quotient(F, C)
            assert got == exact_quotient_oracle(F, C)
            assert got is None or list(got) == sorted(got, reverse=True)


class TestTriGcd:
    def test_visible_common_factor(self):
        assert tri_content_gcd(TRI_X * TRI_Y, TRI_X * TRI_Z, TRI_X * TRI_X) == TRI_X

    def test_coprime_coordinates(self):
        one = TriHomPoly.monomial((0, 0, 0))
        assert tri_content_gcd(TRI_X, TRI_Y, TRI_Z) == one

    def test_gcd_divides_inputs(self):
        rng = random.Random(444)
        for _ in range(30):
            c = rand_trihom(rng, rng.randint(1, 2), nonzero=True)
            f = c * rand_trihom(rng, rng.randint(0, 2), nonzero=True)
            g = c * rand_trihom(rng, rng.randint(0, 2), nonzero=True)
            k = c * rand_trihom(rng, rng.randint(0, 2), nonzero=True)
            d = tri_content_gcd(f, g, k)
            assert tri_divides(d, f) and tri_divides(d, g) and tri_divides(d, k)
            assert tri_divides(c, d) or d.degree >= c.degree

    def test_matches_sympy(self):
        rng = random.Random(555)
        for _ in range(25):
            c = rand_trihom(rng, rng.randint(1, 2), nonzero=True)
            f = c * rand_trihom(rng, rng.randint(0, 2), nonzero=True)
            g = c * rand_trihom(rng, rng.randint(0, 2), nonzero=True)
            k = c * rand_trihom(rng, rng.randint(0, 2), nonzero=True)
            ours = tri_content_gcd(f, g, k)
            theirs = sympy.gcd(sympy.gcd(tri_to_sympy(f), tri_to_sympy(g)), tri_to_sympy(k))
            expected = lex_normalized(sympy_to_tri(theirs))
            assert ours == expected

    def test_normalization_is_lex_monic(self):
        f = (TRI_X + TRI_Y) * 6
        g = (TRI_X + TRI_Y) * TRI_Z * Fraction(1, 2)
        d = tri_content_gcd(f, g, TriHomPoly.zero(1))
        assert d == TRI_X + TRI_Y

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            tri_content_gcd(TriHomPoly.zero(1), TriHomPoly.zero(1), TriHomPoly.zero(1))

    def test_zero_arguments_are_skipped(self):
        assert tri_content_gcd(TriHomPoly.zero(2), TRI_X * TRI_Y, TRI_X * TRI_Z) == TRI_X


@st.composite
def gcd_inputs(draw):
    """Three polynomials with a planted common factor of degree 1-3 (or none),
    a shared power of z, extra powers of z and sometimes zero components."""
    common = TRI_Z ** draw(st.integers(0, 3))
    if draw(st.booleans()):
        common = common * draw(trihoms().filter(lambda f: 1 <= f.degree <= 3))
    polys = []
    for _ in range(3):
        if draw(st.integers(0, 5)) == 0:
            polys.append(TriHomPoly.zero(draw(st.integers(0, 4))))
        else:
            polys.append(common * draw(trihoms()) * TRI_Z ** draw(st.integers(0, 2)))
    return polys


def sympy_gcd(*polys):
    g = sympy.Integer(0)
    for f in polys:
        g = sympy.gcd(g, tri_to_sympy(f))
    return lex_normalized(sympy_to_tri(g))


class TestModularGcd:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(gcd_inputs())
    def test_pair_divides_and_matches_sympy(self, polys):
        f, g, _ = polys
        d = tri_gcd(f, g)
        if f.is_zero and g.is_zero:
            assert d.is_zero
            return
        assert tri_divides(d, f) and tri_divides(d, g)
        assert d == sympy_gcd(f, g)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(gcd_inputs())
    def test_triple_divides_and_matches_sympy(self, polys):
        if all(p.is_zero for p in polys):
            with pytest.raises(ValueError):
                tri_content_gcd(*polys)
            return
        d = tri_content_gcd(*polys)
        assert all(tri_divides(d, p) for p in polys)
        assert d == sympy_gcd(*polys)

    def test_adversarial_pairs(self):
        one = TriHomPoly.monomial((0, 0, 0))
        for a in ADVERSARIAL:
            for b in ADVERSARIAL:
                expected = lex_normalized(a) if a == b else one
                assert tri_gcd(a, b) == expected
                c = (TRI_X + TRI_Y * 2 - TRI_Z) * TRI_Z
                assert tri_gcd(a * c, b * c) == lex_normalized(expected * c)
            assert tri_gcd(a * TRI_X, a * (TRI_X + TRI_Z)) == lex_normalized(a)

    def test_candidate_stable_over_two_primes_is_rejected(self):
        # mod p1 and mod p1*p2 the coefficient 5 + p1*p2 reads 5, so the
        # first candidate x + 5y passes the CRT test and only trial
        # division rejects it.
        p1, p2 = islice(_primes(), 2)
        h = TRI_X + TRI_Y * (5 + p1 * p2)
        assert tri_gcd(h * TRI_X, h * (TRI_X + TRI_Z)) == h

    def test_primes_are_prime(self):
        primes = list(islice(_primes(), 6))
        assert primes[0] == _P0 == 2**61 - 1 and sympy.isprime(_P0)
        assert all(sympy.prevprime(a) == b for a, b in zip(primes, primes[1:]))


@st.composite
def denominators(draw):
    """Two to four monic polynomials, as RatFunc denominators, sometimes
    sharing a factor."""
    common = draw(unipolys(min_degree=1, max_degree=2)) if draw(st.booleans()) else ONE
    count = draw(st.integers(2, 4))
    return [monic(common * draw(unipolys(max_degree=2))) for _ in range(count)]


class TestCofactors:
    """A GCD comes with the quotients its acceptance division computed; they
    equal what the earlier code got by dividing a second time."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(gcd_inputs())
    # zero components, one of a smaller nominal degree than the content
    @example([TriHomPoly.zero(3), TRI_X * TRI_Z, TRI_Y * TRI_Z])
    @example([TriHomPoly.zero(0), (TRI_X + TRI_Y) * TRI_X, (TRI_X + TRI_Y) * TRI_Z])
    @example([TriHomPoly.zero(1), TriHomPoly.zero(2), (TRI_X * 2 + TRI_Y) * Fraction(1, 3)])
    # pure powers of z as contents
    @example([TRI_Z**3 * TRI_X, TRI_Z**2 * (TRI_X + TRI_Y), TRI_Z**4])
    @example([TRI_Z**2 * 5, TRI_Z**3 * TRI_Y, TriHomPoly.zero(3)])
    # a nontrivial gcd of the first pair that the third component cancels
    @example([(TRI_X + TRI_Y) * TRI_X * 3, (TRI_X + TRI_Y) * TRI_Y, TRI_Z * TRI_Z])
    @example([(TRI_X - TRI_Y) * TRI_Z * TRI_X, (TRI_X - TRI_Y) * TRI_Z * TRI_Y, TRI_Z * TRI_X**2])
    # a constant component
    @example([TriHomPoly.monomial((0, 0, 0), Fraction(-2, 3)), TRI_X, TRI_Y])
    def test_primitive_parts_equal_oracle(self, polys):
        if all(p.is_zero for p in polys):
            with pytest.raises(ValueError):
                _primitive_parts(polys)
            return
        content, parts = _primitive_parts(polys)
        assert (content, parts) == primitive_parts_oracle(polys)
        assert isinstance(parts, tuple) and len(parts) == len(polys)
        for p, q in zip(polys, parts):
            assert content * q == p if p else q.is_zero
        if content.degree == 0:
            # coprime: the inputs are their own parts, nothing multiplied
            assert all(q is p for p, q in zip(polys, parts))

    def test_primitive_parts_adversarial(self):
        c = (TRI_X + TRI_Y * 2 - TRI_Z) * TRI_Z
        for a in ADVERSARIAL:
            for b in ADVERSARIAL:
                polys = [a * c, b * c, a * b * TRI_Z]
                content, parts = _primitive_parts(polys)
                assert (content, parts) == primitive_parts_oracle(polys)
                assert all(content * q == p for p, q in zip(polys, parts))

    @given(uni_gcd_inputs())
    @settings(max_examples=150, derandomize=True, deadline=None)
    @example([UniPoly(), UniPoly()])
    @example([UniPoly(), UniPoly.of(Fraction(-3, 7), 2)])
    @example([UniPoly.of(Fraction(2, 3), 0, 4), UniPoly()])
    @example([UniPoly.of(Fraction(-2, 3)), T * T - ONE])
    @example([UniPoly.of(1, _P0) * UniPoly.of(3, 1), UniPoly.of(1, _P0) * UniPoly.of(-5, 1)])
    @example([UniPoly.of(1, 1) * UniPoly.of(2, 0, 1), UniPoly.of(1 + _P0, 1) * UniPoly.of(2, 0, 1)])
    def test_uni_cofactors_equal_oracle(self, pair):
        p, q = pair
        g, a, b = uni_cofactors_oracle(p, q)
        if not (p or q):
            with pytest.raises(ValueError):
                _primitive_parts((p, q))
            return
        content, parts = _primitive_parts((p, q))
        assert (content, parts) == (g, (a, b))
        assert g * a == p and g * b == q
        if g.degree == 0 and p and q:
            assert parts[0] is p and parts[1] is q
        with brown_only():
            assert _primitive_parts((p, q)) == (g, (a, b))

    def test_uni_cofactors_adversarial(self):
        for f in UNI_ADVERSARIAL:
            for h in UNI_ADVERSARIAL:
                p, q = f * h * (T - ONE), h * (T + ONE)
                g, a, b = uni_cofactors_oracle(p, q)
                assert _primitive_parts((p, q)) == (g, (a, b))
                with brown_only():
                    assert _primitive_parts((p, q)) == (g, (a, b))

    @given(denominators())
    @settings(max_examples=100, derandomize=True, deadline=None)
    @example([ONE, ONE, ONE, ONE])
    @example([T - ONE, T + ONE, T * T - ONE, ONE])
    @example([monic(UniPoly.of(1, _P0)), monic(UniPoly.of(1, _P0) * (T + ONE))])
    def test_common_denominator_equals_lcm_fold(self, dens):
        D, cofactors = _common_denominator(dens)
        assert (D, cofactors) == common_denominator_oracle(dens)
        assert all(c * d == D for c, d in zip(cofactors, dens))


@st.composite
def planted_pairs(draw):
    """f and g with a common factor c of positive degree, in x only, in y
    only or in both, each times a cofactor and a rational, mostly
    non-primitive multiple."""
    kind = draw(st.sampled_from(["x", "y", "mixed"]))
    if kind == "mixed":
        has = lambda f, axis: any(e[axis] for e, _ in f.terms)
        c = draw(trihoms().filter(lambda f: has(f, 0) and has(f, 1)))
    else:
        u = draw(unipolys(min_degree=1, max_degree=3))
        c = homogenize_uni(u, 0 if kind == "x" else 1, u.degree + draw(st.integers(0, 1)))
    scalars = st.builds(Fraction, st.integers(-12, 12).filter(bool), st.integers(1, 10))
    return [c * draw(trihoms(max_degree=2)) * draw(scalars) for _ in range(2)]


# (y - _POINT z) makes lc_x vanish at the point the lines are taken at.
Y_AT_POINT = TRI_Y - TRI_Z * _POINT


@contextlib.contextmanager
def brown_only():
    """Patch the certificate and the packed candidate to fall back, so that
    Brown's loop answers every GCD."""
    with mock.patch.object(exact_algebra, "_coprime", lambda F, G: False):
        with mock.patch.object(exact_algebra, "_packed_parts", lambda F, G: None):
            yield


def boundary_values(top=130):
    """a near each power of two 2^j, where the width of xi = 2^s changes."""
    return [a for j in range(2, top) for a in (2**j - 2, 2**j - 1, 2**j, 2**j + 1)]


class TestCoprimeImages:
    """The integer certificate of coprimality (_coprime) and its lemma
    (_coprime_lines)."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(planted_pairs())
    @example([TRI_X * 6, TRI_X * Fraction(4, 9) * TRI_Y])
    @example([(TRI_Y * 2 + TRI_Z) * TRI_X, (TRI_Y * 2 + TRI_Z) * (TRI_X + TRI_Z) * Fraction(-3, 4)])
    @example([(TRI_X + TRI_Y) * TRI_Z, (TRI_X + TRI_Y) * Fraction(1, _P0)])
    @example([Y_AT_POINT * TRI_X, Y_AT_POINT])
    def test_never_certifies_a_common_factor(self, pair):
        F, G = (f._body for f in pair)
        assert not _coprime(F, G)
        assert not _coprime(G, F)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(trihoms(), trihoms())
    @example(TRI_X, TRI_Z)
    @example(TRI_Z * TRI_Z, TRI_X + TRI_Y)
    def test_refused_when_the_x_leading_coefficient_vanishes(self, f, g):
        F = (f * Y_AT_POINT * TRI_X + TRI_Z ** (f.degree + 2))._body
        G = g._body
        assert not _coprime(F, G)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(trihoms(), trihoms())
    @example(TRI_X * TRI_Y + TRI_Z * TRI_Z, TRI_X + TRI_Y)
    @example(TRI_X - TRI_Y, TRI_X - TRI_Z * _POINT)
    def test_agrees_with_brown(self, f, g):
        F, G = (h._body for h in (f, g))
        certified = _coprime(F, G)
        with_certificate = tri_gcd(f, g)
        with brown_only():
            brown = tri_gcd(f, g)
        assert with_certificate == brown
        if certified:  # the gcd of the dehomogenised pair is 1, so only z is left
            assert list(brown._body) == [(0, 0)]

    def test_certifies_coprime_pairs(self):
        pairs = [
            (TRI_X * TRI_Y + TRI_Z * TRI_Z, TRI_X + TRI_Y),
            (TRI_X * (TRI_Y + TRI_Z * 2), TRI_Y * TRI_Z + TRI_X * TRI_X),
            (TRI_Y - TRI_Z * 5, TRI_Y + TRI_Z * 7),
        ]
        for f, g in pairs:
            assert _coprime(f._body, g._body)

    def test_lemma_at_the_width_boundaries(self):
        """f = x - a and g = (x - a)(x + 1) are refused, and x - a against
        x - a - 1 is certified, for a at each power of two: xi = 2^s must be
        at least 2N + 2, N + 2 is not enough."""
        for a in boundary_values():
            f, g = [-a, 1], [-a, 1 - a, 1]
            assert not _coprime_lines(f, g) and not _coprime_lines(g, f)
            assert _coprime_lines(f, [-a - 1, 1])
            F, G = ((TRI_X - TRI_Z * a) * h for h in (TRI_Z, TRI_X + TRI_Z))
            assert not _coprime(F._body, G._body)
            assert _coprime(F._body, (TRI_X - TRI_Z * (a + 1))._body)

    def test_a_zero_line_shares_every_factor(self):
        """A zero line is never certified against one of positive degree: xi
        is then 2, so the gcd is a value of the other line, and 0 is refused
        as well as 1 or more.  The three lines in ``big`` have the value 1 at
        2^64, so a floor of 2^64 on xi would certify them against zero."""
        big = [([-(2**64 - 1), 1], [0, 0]), ([1 - 2**128, 0, 1], [0]), ([1 - 2**128, 2**64], [0])]
        for f, g in [([0], [0]), ([0, 0], [-2, 1]), ([0], [-4, 0, 1])] + big:
            assert not _coprime_lines(f, g) and not _coprime_lines(g, f)
        f = TRI_X - TRI_Z * (2**64 - 1)
        assert not _coprime(f._body, (f * Y_AT_POINT)._body)


# Per degree, one to five terms with small integer coefficients.
_SMALL_TERMS = [
    st.dictionaries(
        st.sampled_from(monomials(d)), st.integers(-9, 9).filter(bool), min_size=1, max_size=5
    )
    for d in range(4)
]


@st.composite
def small_trihoms(draw, max_degree):
    """A nonzero polynomial of degree <= max_degree with one to five integer
    terms, cheaper to draw than trihoms()."""
    degree = draw(st.integers(0, max_degree))
    return TriHomPoly.of(draw(_SMALL_TERMS[degree]), degree=degree)


class TestPackedCandidate:
    """The candidate read from the packed integer gcd (_packed_parts)."""

    def test_a_proper_factor_of_the_gcd_is_refused(self):
        """A candidate that divides both inputs is kept only when the
        quotients pass the certificate: here the unpacked gcd is replaced by
        x + y, a proper factor of the gcd (x + y)(x + 2z)."""
        h = (TRI_X + TRI_Y) * (TRI_X + TRI_Z * 2)
        f, g = h * (TRI_X + TRI_Z), h * (TRI_Y + TRI_Z * 2)
        F, G = f._body, g._body
        C, a, b = _packed_parts(F, G)
        assert TriHomPoly._sorted(2, C) == h
        with mock.patch.object(exact_algebra, "_unpack", lambda *_: (TRI_X + TRI_Y)._body):
            assert _packed_parts(F, G) is None
            assert tri_gcd(f, g) == h

    def test_a_shared_integer_factor_goes_to_brown(self):
        """The packings of p and q share 2^k + 1, the packing of t + 1 at
        slot width k, though q has no factor t + 1: the packed candidate
        (t - 2)(t + 1) does not divide q, and Brown's loop gives t - 2."""
        calls, real = [], exact_algebra._candidates
        with mock.patch.object(exact_algebra, "_candidates", lambda F, G: calls.append(1) or real(F, G)):
            for k in (8, 16, 24, 32):
                two = UniPoly.constant(2)
                p, q = (T - two) * (T + ONE), (T - two) * (T * T + UniPoly.constant(2**k))
                assert uni_gcd(p, q) == T - two
        assert calls

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(small_trihoms(3), small_trihoms(3), small_trihoms(2))
    def test_the_unpacked_gcd_is_never_zero(self, f, g, h):
        """_packed_parts has no branch for an empty candidate.  The slots fit
        the lesser top coefficient, so that operand packs to a nonzero
        integer and N >= 1; the keys reach past N's top digit, so the
        candidate C read back packs to N again, and is not empty."""
        seen, real = [], exact_algebra._unpack

        def unpack(N, k, W, keys):
            C = real(N, k, W, keys)
            seen.append((N, k, W, C))
            return C

        with mock.patch.object(exact_algebra, "_unpack", unpack):
            _packed_parts((f * h)._body, (g * h)._body)
        [(N, k, W, C)] = seen
        assert N >= 1 and C and exact_algebra._pack(C, k, W) == N

    def test_past_the_size_limit_brown_answers(self):
        """Operands that pack to more than _PACKED_BITS bits skip the packed
        gcd, which a larger limit would have taken; Brown's loop gives the
        same gcd."""
        big = 2 ** (_PACKED_BITS // 8)
        h = TRI_X + TRI_Y * 2 + TRI_Z * 3
        f, g = (h * (TRI_X * (big + a) + TRI_Y - TRI_Z * (big - a)) for a in (1, 5))
        F, G = f._body, g._body
        assert _packed_parts(F, G) is None
        with mock.patch.object(exact_algebra, "_PACKED_BITS", 4 * _PACKED_BITS):
            assert _packed_parts(F, G)[0] == h._body
        assert tri_gcd(f, g) == h


@st.composite
def content_triples(draw):
    """Three polynomials of one degree: a planted content (1, a power of z,
    a polynomial, or both) times cofactors, some rational; then sometimes
    zero components, f1 = -_LAMBDA f2, or f0 sharing with f1 + _LAMBDA f2 a
    factor e that f2 lacks (integral, so the integer forms share it too)."""
    common = TRI_Z ** draw(st.integers(0, 2))
    if draw(st.booleans()):
        common = common * draw(trihoms(max_degree=2).filter(lambda f: f.degree >= 1))
    d = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["plain", "zeros", "minus-lambda", "shared"]))
    if kind == "shared":
        coeffs = st.integers(-4, 4).filter(bool)
        ints = st.builds(TriHomPoly.monomial, st.sampled_from(monomials(1)), coeffs)
        e = draw(ints) + draw(ints)
        r0, r1 = draw(trihoms(degree=d - 1)), draw(trihoms(degree=d - 1))
        r2 = draw(trihoms(degree=d))
        cofactors = [e * r0, e * r1 - r2 * _LAMBDA, r2]
    else:
        cofactors = [draw(trihoms(degree=d)) for _ in range(3)]
    polys = [common * c for c in cofactors]
    if kind == "zeros":
        for i in draw(st.lists(st.integers(0, 2), min_size=1, max_size=3, unique=True)):
            polys[i] = TriHomPoly.zero(polys[i].degree)
    if kind == "minus-lambda":
        polys[1] = polys[2] * -_LAMBDA
    return polys


X, Y, Z = TRI_X, TRI_Y, TRI_Z
L = X + Y + Z


class TestOneGcdContent:
    """Three polynomials cost one gcd; the parts equal the earlier fold's."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(content_triples(), st.booleans())
    @example([TriHomPoly.zero(2)] * 3, True)
    @example([TriHomPoly.zero(2), TriHomPoly.zero(2), X * Y * Fraction(-4, 3)], True)
    @example([X * Z, TriHomPoly.zero(2), Y * Z * 5], True)
    @example([TriHomPoly.zero(1), TriHomPoly.monomial((0, 0, 0), -2), TriHomPoly.zero(0)], False)
    @example([TriHomPoly.zero(3), TriHomPoly.zero(3), Z**3 * -4], False)
    @example([X * (X + Y), (X + Y) * Y * -_LAMBDA, (X + Y) * Y], True)
    @example([X * Fraction(1, 2), Y * Fraction(2, 3), Z * Fraction(5, 7)], True)
    @example([X * Z * Z, Y * Z * Z * 3, Z**3], True)
    @example([X * (Y + Z * 2), (X - Y * _LAMBDA) * Z, Y * Z], True)
    @example([X * (Y + Z * 2) * L, (X - Y * _LAMBDA) * Z * L, Y * Z * L], True)
    # f1 + lambda f2 keeps no key of f1 but (0, 0): the sum's first key is
    # (0, 0), yet it is not constant, and the content is y + z.
    @example([(Y + Z) * X * X, (Y + Z) * (X + Z) * Z * 3, (Y + Z) * (X * X - X * Z - Y * Z)], False)
    def test_equals_the_fold(self, polys, normalise):
        if not any(polys):
            with pytest.raises(ValueError):
                _primitive_parts(polys, normalise)
            return
        content, parts = _primitive_parts(polys, normalise)
        assert (content, parts) == primitive_parts_fold_oracle(polys, normalise)
        if content.degree == 0 and not normalise:
            assert all(q is p for p, q in zip(polys, parts))
        with brown_only():
            assert _primitive_parts(polys, normalise) == (content, parts)

    @pytest.mark.parametrize(
        "polys, gcds",
        [
            ([X * (X + Y), (X + Y) * Y * 2, (X + Y) * Z], 1),
            ([X * Y, Y * Z, X * Z], 1),
            ([X * (X + Y), (X + Y) * Y * -_LAMBDA, (X + Y) * Y], 1),
            # gcd(f0, f1 + lambda f2) = x does not divide f2: one gcd more
            ([X * (Y + Z * 2), (X - Y * _LAMBDA) * Z, Y * Z], 2),
        ],
    )
    def test_gcd_count(self, polys, gcds):
        calls = []
        real = exact_algebra._gcd_parts
        counted = lambda F, G: calls.append(1) or real(F, G)
        with mock.patch.object(exact_algebra, "_gcd_parts", counted):
            parts = _primitive_parts(polys)
        assert len(calls) == gcds
        assert parts == primitive_parts_fold_oracle(polys)


@st.composite
def same_degree_trihoms(draw):
    """Three polynomials of one degree, each zero one time in seven."""
    d = draw(st.integers(0, 3))
    zero = st.integers(0, 6).map(lambda n: n == 0)
    return tuple(TriHomPoly.zero(d) if draw(zero) else draw(trihoms(degree=d)) for _ in range(3))


maybe_zero_unipolys = st.one_of(st.just(UniPoly()), unipolys())
maybe_zero_trihoms = st.one_of(st.builds(TriHomPoly.zero, st.integers(0, 4)), trihoms(max_degree=4))


class TestRingLaws:
    @given(maybe_zero_unipolys, maybe_zero_unipolys, maybe_zero_unipolys)
    @settings(max_examples=80, derandomize=True, deadline=None)
    def test_unipoly(self, p, q, r):
        assert p + q == q + p and p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    @given(same_degree_trihoms())
    @settings(max_examples=80, derandomize=True, deadline=None)
    def test_trihompoly(self, triple):
        p, q, r = triple
        assert p + q == q + p and p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    @given(maybe_zero_trihoms, trihoms())
    @settings(max_examples=100, derandomize=True, deadline=None)
    def test_tri_divrem_rebuilds_its_input(self, f, c):
        q, r = tri_divrem(f, c)
        if f.degree < c.degree:
            # No quotient has a negative degree: q is the zero of degree 0,
            # and a sum across degrees is refused.
            assert q.is_zero and q.degree == 0 and r == f
        else:
            assert q * c + r == f
        lead, _ = c.terms[0]
        assert not any(all(e[a] >= lead[a] for a in range(3)) for e, _ in r.terms)


    @pytest.mark.parametrize(
        "op",
        [
            lambda: UniPoly.of(1, 2) + TRI_X,
            lambda: TRI_X - UniPoly.of(1, 2),
            lambda: UniPoly.of(1, 2) + 1,
            lambda: TRI_X + 1,
            lambda: UniPoly.of(1, 2) - TRI_X,
            lambda: TRI_X * 2 - 1,
        ],
        ids=["uni+tri", "tri-uni", "uni+int", "tri+int", "uni-tri", "tri-int"],
    )
    def test_sums_across_classes_are_refused(self, op):
        with pytest.raises(TypeError):
            op()


@pytest.mark.parametrize("poly", [UniPoly.of(0, -1), -TRI_Y, RatFunc(UniPoly.of(1), UniPoly.of(0, 1))])
def test_str_is_the_record_repr(poly):
    """The polynomial classes have no text form of their own."""
    assert str(poly) == repr(poly)


@st.composite
def unreduced(draw):
    """(p, q), q > 0, mostly not in lowest terms: p of either sign, or zero
    over a large q one draw in five."""
    if draw(st.integers(0, 4)) == 0:
        return 0, draw(st.sampled_from([7, 10**12 + 39, 2**89 - 1]))
    g = draw(st.sampled_from([1, 2, 6, 35]))
    return draw(st.integers(-9, 9)) * g, draw(st.integers(1, 9)) * g


def _split(draw, terms):
    """The (exponents, "p/q") pairs of ``terms``, each nonzero one split in
    two one draw in two, in shuffled order."""
    out = []
    for e, (p, q) in terms.items():
        if p and draw(st.booleans()):
            r = draw(st.integers(-9, 9))
            out += [(e, f"{p - r}/{q}"), (e, f"{r}/{q}")]
        else:
            out.append((e, f"{p}/{q}"))
    return draw(st.permutations(out))


def assert_integer_form(f, form):
    """f stores the integer form ``form`` = (den, body), body in its order,
    and that form is canonical."""
    den, body = form
    assert (f._den, list(f._body.items())) == (den, list(body.items()))
    assert den > 0 and math.gcd(den, *body.values()) == 1
    assert list(body) == sorted(body, reverse=True) and all(body.values())


class TestOneIntegerForm:
    """Every door into a polynomial stores the form the constructors used to
    compute each on their own: UniPoly(coeffs), decode_unipoly,
    TriHomPoly(degree, terms), TriHomPoly.of and decode_trihom."""

    @given(
        st.dictionaries(st.integers(0, 5), unreduced(), max_size=6), st.integers(0, 1), st.data()
    )
    @settings(max_examples=80, derandomize=True, deadline=None)
    def test_five_doors(self, spec, extra, data):
        """The same polynomial, in t and as its homogenisation in x and z,
        through all five doors: its body keyed (e, 0) is the same in both."""
        d = max(spec, default=0) + extra
        coeffs = tuple(f"{p}/{q}" for p, q in (spec.get(e, (0, 1)) for e in range(d + 1)))
        want = uni_form_oracle(coeffs)
        assert tri_form_oracle(d, [((e, 0, d - e), c) for e, c in enumerate(coeffs)]) == want
        tri = {(e, 0, d - e): r for e, r in spec.items()}
        unsplit = data.draw(st.permutations([(e, f"{p}/{q}") for e, (p, q) in tri.items()]))
        doors = [
            UniPoly(coeffs),
            ser.decode_unipoly([[[e[0]], c] for e, c in unsplit], ()),
            TriHomPoly(d, tuple(_split(data.draw, tri))),
            TriHomPoly.of(dict(unsplit), d),
            ser.decode_trihom([[list(e), c] for e, c in unsplit], (), d),
        ]
        for f in doors:
            assert_integer_form(f, want)

    @given(st.integers(0, 4).flatmap(
        lambda d: st.tuples(st.just(d), st.dictionaries(st.sampled_from(monomials(d)), unreduced()))
    ), st.data())
    @settings(max_examples=80, derandomize=True, deadline=None)
    def test_trivariate_doors(self, case, data):
        d, spec = case
        unsplit = data.draw(st.permutations([(e, f"{p}/{q}") for e, (p, q) in spec.items()]))
        split = _split(data.draw, spec)
        want = tri_form_oracle(d, split)
        assert tri_form_oracle(d, unsplit) == want
        for f in (
            TriHomPoly(d, tuple(split)),
            TriHomPoly.of(dict(unsplit), d),
            ser.decode_trihom([[list(e), c] for e, c in unsplit], (), d),
        ):
            assert_integer_form(f, want)


class TestHomogenize:
    @given(unipolys() | st.just(UniPoly()), st.integers(0, 1), st.integers(0, 2))
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_matches_the_two_axis_oracle(self, p, axis, extra):
        """On x and y, zero p, degree above deg p and rational coefficients."""
        d = max(p.degree, 0) + extra
        got, want = homogenize_uni(p, axis, d), homogenize_uni_oracle(p, axis, 2, d)
        assert got.degree == want.degree == d
        assert (got._den, list(got._body.items())) == (want._den, list(want._body.items()))

    def test_roundtrip_on_chart(self):
        p = UniPoly.of(1, 0, -2, 1)  # 1 - 2t^2 + t^3
        f = homogenize_uni(p, 0, 5)
        assert f.degree == 5
        # setting z = 1 returns the coefficients
        assert OldTriHomPoly(f.degree, f.terms).evaluate((3, 0, 1)) == 1 - 2 * 3**2 + 3**3

    def test_degree_too_small(self):
        with pytest.raises(ValueError):
            homogenize_uni(UniPoly.of(0, 0, 1), 0, 1)
