import random
import time
from fractions import Fraction
from unittest import mock

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cremona_kit import serialization as ser
from cremona_kit.cremona_maps import compose, fixes_curve_pointwise, is_identity
from cremona_kit.errors import GroupMismatch, InvalidElement
from cremona_kit.cremona_maps import _jonquieres_map
from cremona_kit.exact_algebra import RatFunc, UniPoly, is_squarefree
from cremona_kit.jonquieres import (
    JonqElement,
    PGL_INFINITE,
    _order,
    hyperelliptic_curve_poly,
    invert,
    leminv_check,
    mul,
    to_cremona,
)

from _util import (
    H4,
    H6,
    H8,
    ST,
    encode_unipoly_oracle,
    fractions_built,
    is_scalar_oracle,
    leminv_check_oracle,
    mat_mul_oracle,
    order_oracle,
    pgl_order_oracle,
    rand_jonq,
    uni_to_sympy,
    unipolys,
)

T = UniPoly.variable()

# h that no element may be built over: zero, degree 2, odd degree 5, and the
# non-squarefree (t - 1)^2 (t^2 + 1) and t^2 (t^2 + 1).
BAD_H = (
    UniPoly.of(),
    UniPoly.of(-1, 0, 1),
    UniPoly.of(-1, 0, 0, 0, 0, 1),
    (T - UniPoly.constant(1)) ** 2 * (T * T + UniPoly.constant(1)),
    T * T * (T * T + UniPoly.constant(1)),
)


@st.composite
def squarefree_h(draw):
    """A squarefree h of degree 4, 6 or 8 with rational coefficients."""
    degree = draw(st.sampled_from((4, 6, 8)))
    coeffs = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3))
    lead = st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 3))
    h = UniPoly(tuple(draw(st.lists(coeffs, min_size=degree, max_size=degree))) + (draw(lead),))
    assume(is_squarefree(h))
    return h


@st.composite
def elements(draw, kind, h=None):
    """An element over h (drawn when not given) of kind "general" (a1, a2
    both nonzero), "involution" (a1 = 0) or "scalar" (a2 = 0).  Entries have
    rational coefficients and non-constant denominators; the numerators share
    a drawn factor, and so do the denominators, so that lambda and the
    determinant have factors to cancel."""
    h = draw(squarefree_h()) if h is None else h
    nums, dens = (draw(unipolys(max_degree=2)) for _ in range(2))

    def entry():
        return RatFunc(draw(unipolys(max_degree=2)) * nums, draw(unipolys(1, 2)) * dens)

    a1 = RatFunc.of(0) if kind == "involution" else entry()
    a2 = RatFunc.of(0) if kind == "scalar" else entry()
    return JonqElement(a1, a2, h)


KINDS = ("general", "involution", "scalar")


def assert_is_the_norm(u: JonqElement) -> None:
    """det() is nonzero and is a1^2 - h a2^2: with a1 = p1 / q1 and
    a2 = p2 / q2, det (q1 q2)^2 = (p1 q2)^2 - h (p2 q1)^2 over Q[x]."""
    d = u.det()
    assert not d.is_zero
    (p1, q1), (p2, q2) = (u.a1.num, u.a1.den), (u.a2.num, u.a2.den)
    assert d.num * (q1 * q2) ** 2 == d.den * ((p1 * q2) ** 2 - u.h * (p2 * q1) ** 2)


class TestDeterminantAndLambda:
    """det() computed on request, and lambda read in closed form, on
    elements whose entries have denominators other than 1 (the benchmark's
    function_field elements all have den = 1)."""

    @pytest.mark.parametrize("kind", KINDS)
    @given(data=st.data())
    @settings(max_examples=15, derandomize=True, deadline=None)
    def test_det_of_elements_products_and_inverses(self, kind, data):
        u = data.draw(elements(kind))
        v = data.draw(elements(data.draw(st.sampled_from(KINDS)), u.h))
        decoded = ser.decode_jonq(ser.encode_jonq(u))
        assert decoded == u
        for w in (decoded, mul(u, v), invert(u)):
            assert_is_the_norm(w)
        assert mul(u, v).det() == u.det() * v.det()
        assert invert(u).det() == u.det().inverse()

    @pytest.mark.parametrize("kind", KINDS)
    @given(data=st.data())
    @settings(max_examples=40, derandomize=True, deadline=None)
    def test_leminv_check_matches_lambda_over_det(self, kind, data):
        u = data.draw(elements(kind))
        assert leminv_check(u) == leminv_check_oracle(u)

    def test_lambda_is_reduced_once(self):
        """lambda of a general element is one RatFunc construction: the
        gcd of 4 (p1 q2)^2 and (p1 q2)^2 - h (p2 q1)^2 is taken once."""
        a1 = RatFunc(UniPoly.of(1, 1), UniPoly.of(3, 2))
        u = JonqElement(a1, RatFunc(UniPoly.of(-1, 0, 1), UniPoly.of(-5, 1)), H6)
        init = mock.patch.object(RatFunc, "__init__", autospec=True, side_effect=RatFunc.__init__)
        with init as calls:
            report = leminv_check(u)
        assert calls.call_count == 1
        assert report == leminv_check_oracle(u)


class TestElementInvariants:
    def test_rejects_bad_h(self):
        with pytest.raises(InvalidElement):
            JonqElement.of(UniPoly.of(1, 1), 1, 0)  # degree 1
        with pytest.raises(InvalidElement):
            JonqElement.of(UniPoly.of(-1, 0, 0, 0, 0, 1), 1, 0)  # odd degree 5
        with pytest.raises(InvalidElement):  # (t-1)^2 (t^2+1): not squarefree
            JonqElement.of((T - UniPoly.constant(1)) ** 2 * (T * T + UniPoly.constant(1)), 1, 0)

    @pytest.mark.parametrize("h", BAD_H, ids=["zero", "deg2", "deg5", "sq1", "sq2"])
    def test_bad_h_refused_by_every_constructor(self, h):
        for build in (
            lambda: JonqElement(RatFunc.of(1), RatFunc.of(0), h),
            lambda: JonqElement.of(h, T, 1),
            lambda: JonqElement.of(h, 1, 0),
            lambda: hyperelliptic_curve_poly(h),
        ):
            with pytest.raises(InvalidElement):
                build()

    def test_products_and_inverses_equal_checked_construction(self):
        # mul and invert build over an h already checked; their results must
        # equal, with the same det, the elements the constructor builds.
        rng = random.Random(31)
        for h in (H4, H6):
            for _ in range(5):
                u, v = rand_jonq(rng, h), rand_jonq(rng, h)
                for w in (mul(u, v), invert(u)):
                    checked = JonqElement(w.a1, w.a2, w.h)
                    assert w == checked and w.det() == checked.det()

    def test_rejects_zero_element(self):
        with pytest.raises(InvalidElement):
            JonqElement.of(H4, 0, 0)

    def test_det_nonzero_automatically(self):
        # a1^2 = h a2^2 would force h to be a square in Q(x)
        rng = random.Random(7)
        for _ in range(50):
            u = rand_jonq(rng, H6)
            assert not u.det().is_zero


class TestGroupLaw:
    def test_identity_neutral(self):
        rng = random.Random(13)
        e = JonqElement.of(H4, 1, 0)
        for _ in range(10):
            u = rand_jonq(rng, H4)
            assert mul(u, e) == u
            assert mul(e, u) == u

    def test_involution_squares_to_scalar(self):
        u = JonqElement.of(H4, 0, 1)
        sq = mul(u, u)
        assert sq.a1 == RatFunc(H4)
        assert sq.a2.is_zero

    def test_commutative(self):
        rng = random.Random(17)
        for h in (H4, H6, H8):
            for _ in range(7):
                u, v = rand_jonq(rng, h), rand_jonq(rng, h)
                assert mul(u, v) == mul(v, u)

    def test_associative(self):
        rng = random.Random(19)
        for _ in range(10):
            u, v, w = (rand_jonq(rng, H6, max_deg=1) for _ in range(3))
            assert mul(mul(u, v), w) == mul(u, mul(v, w))

    def test_mismatched_h_rejected(self):
        with pytest.raises(GroupMismatch):
            mul(JonqElement.of(H4, 1, 0), JonqElement.of(H6, 1, 0))

    def test_invert(self):
        assert invert(JonqElement.of(H4, 1, 0)) == JonqElement.of(H4, 1, 0)
        u = JonqElement.of(H4, 0, 1)
        v = invert(u)
        assert v.a1.is_zero
        assert v.a2 == RatFunc(UniPoly.constant(1), H4)
        rng = random.Random(23)
        for _ in range(10):
            u = rand_jonq(rng, H6)
            assert mul(u, invert(u)).a2.is_zero

    def test_products_and_inverses_carry_their_determinant(self):
        """mul and invert run no entry check, and the determinant of their
        results is a1^2 - h a2^2."""
        rng = random.Random(29)
        for h in (H4, H6):
            for kind in (None, "involution", "scalar", None):
                u, v = rand_jonq(rng, h, kind=kind), rand_jonq(rng, h)
                with mock.patch.object(
                    JonqElement, "_check_entries", autospec=True, side_effect=JonqElement._check_entries
                ) as check:
                    w = mul(invert(u), mul(u, v))
                    results = (mul(u, v), invert(u), invert(w), w)
                assert check.call_count == 0
                for r in results:
                    assert r.det() == r.a1 * r.a1 - RatFunc(h) * (r.a2 * r.a2)
                assert w == JonqElement(w.a1, w.a2, h)

    def test_roadmap_degree_12_product(self):
        # h squarefree of degree 12 with 6 terms, entries of degree 6 over 6
        # with 4 terms; the product's entries have degrees 35/23 and 23/23.
        # Euclid over Fraction needs about 86 s for this product.
        rng = random.Random(5)

        def sparse(deg, terms):
            c = [0] * (deg + 1)
            for e in rng.sample(range(deg + 1), terms):
                c[e] = rng.randint(-9, 9) or 1
            c[deg] = rng.randint(1, 9)
            return UniPoly.of(*c)

        h = sparse(12, 6)
        while not is_squarefree(h):
            h = sparse(12, 6)
        u1, u2, v1, v2 = (RatFunc(sparse(6, 4), sparse(6, 4)) for _ in range(4))
        u, v = JonqElement(u1, u2, h), JonqElement(v1, v2, h)
        start = time.perf_counter()
        w = mul(u, v)
        assert time.perf_counter() - start < 1.0

        def expr(f):
            return uni_to_sympy(f.num) / uni_to_sympy(f.den)

        def reduced(e):
            num, den = (sympy.Poly(x, ST) for x in sympy.fraction(sympy.cancel(e)))
            monic = ([c / den.LC() for c in reversed(x.all_coeffs())] for x in (num, den))
            return tuple(tuple(Fraction(int(c.p), int(c.q)) for c in cs) for cs in monic)

        hs = uni_to_sympy(h)
        a1 = expr(u1) * expr(v1) + hs * expr(u2) * expr(v2)
        a2 = expr(u1) * expr(v2) + expr(u2) * expr(v1)
        degrees = (w.a1.num.degree, w.a1.den.degree, w.a2.num.degree, w.a2.den.degree)
        assert degrees == (35, 23, 23, 23)
        assert (w.a1.num.coeffs, w.a1.den.coeffs) == reduced(a1)
        assert (w.a2.num.coeffs, w.a2.den.coeffs) == reduced(a2)

    def test_det_multiplicative(self):
        rng = random.Random(29)
        for _ in range(15):
            u, v = rand_jonq(rng, H4), rand_jonq(rng, H4)
            assert mul(u, v).det() == u.det() * v.det()


def _entries(*entries):
    return tuple(RatFunc.of(e) for e in entries)


class TestPglOrder:
    """_order on lambda = trace^2 / det and the scalarity of a matrix, as the
    four-entry oracle computes them."""

    def test_identity(self):
        assert pgl_order_oracle(1, 0, 0, 1)[0] == 1
        assert pgl_order_oracle(RatFunc(T), 0, 0, RatFunc(T))[0] == 1

    def test_involution(self):
        assert pgl_order_oracle(0, RatFunc(H4), 1, 0)[0] == 2

    def test_order_three(self):
        # [[0, -1], [1, 1]]: trace^2/det = 1 and the cube is -I
        m = _entries(0, -1, 1, 1)
        assert pgl_order_oracle(*m)[0] == 3
        square = mat_mul_oracle(m, m)
        assert is_scalar_oracle(mat_mul_oracle(square, m))
        assert not is_scalar_oracle(square)

    def test_order_four_and_six(self):
        m4 = _entries(1, -1, 1, 1)  # trace^2/det = 2
        assert pgl_order_oracle(*m4)[0] == 4
        square = mat_mul_oracle(m4, m4)
        assert is_scalar_oracle(mat_mul_oracle(square, square))
        assert pgl_order_oracle(2, -1, 1, 1)[0] == 6  # trace^2/det = 3

    def test_unipotent_is_infinite(self):
        assert pgl_order_oracle(1, 1, 0, 1)[0] == PGL_INFINITE

    def test_other_constant_lambda_is_infinite(self):
        assert pgl_order_oracle(2, 0, 0, 1)[0] == PGL_INFINITE  # lambda = 9/2

    def test_nonconstant_lambda_is_infinite(self):
        assert pgl_order_oracle(RatFunc(T), RatFunc(H4), 1, RatFunc(T))[0] == PGL_INFINITE

    def test_order_reads_lambda_and_scalarity(self):
        """lambda = trace^2 / det; lambda = 4 is the identity only when
        scalar.  The earlier _order on the trace and det agrees."""
        four = RatFunc.of(4)
        assert _order(four, True) == 1 == order_oracle(RatFunc.of(2), RatFunc.of(1), True)[0]
        assert _order(four, False) == PGL_INFINITE
        for trace, det, order in ((0, 1, 2), (1, 1, 3), (2, 2, 4), (3, 3, 6), (5, 5, PGL_INFINITE)):
            lam = RatFunc.of(Fraction(trace * trace, det))
            assert _order(lam, False) == order
            assert order_oracle(RatFunc.of(trace), RatFunc.of(det), False) == (order, lam)
        assert _order(RatFunc(T), True) == PGL_INFINITE


class TestOrderReport:
    def test_involution_case(self):
        rep = leminv_check(JonqElement.of(H4, 0, 1))
        assert rep.order == 2
        assert rep.conclusion_holds
        assert rep.lam_constant and rep.lam == RatFunc.of(0)

    def test_scalar_case(self):
        rep = leminv_check(JonqElement.of(H4, 1, 0))
        assert rep.order == 1
        assert rep.conclusion_holds

    def test_generic_case(self):
        rep = leminv_check(JonqElement.of(H4, UniPoly.variable(), 1))
        assert rep.order == PGL_INFINITE
        assert not rep.lam_constant
        assert rep.conclusion_holds
        # lambda = 4x^2 / (x^2 - x^4 + 1)
        expected = RatFunc(UniPoly.of(0, 0, 4), UniPoly.of(1, 0, 1, 0, -1))
        assert rep.lam == expected

    def test_report_shares_det_and_lambda_with_pgl_order(self):
        """leminv_check(u) against the four-entry oracle on the matrix
        [[a1, h a2], [a2, a1]]."""
        rng = random.Random(32)
        for h in (H4, H6, H8):
            for kind in (None, "involution", "scalar"):
                u = rand_jonq(rng, h, kind=kind)
                m = (u.a1, RatFunc(h) * u.a2, u.a2, u.a1)
                rep = leminv_check(u)
                assert u.det() == m[0] * m[3] - m[1] * m[2]
                assert u.det() == u.a1 * u.a1 - RatFunc(h) * u.a2 * u.a2
                assert (rep.order, rep.lam) == pgl_order_oracle(*m)
                assert rep.lam == (m[0] + m[3]) * (m[0] + m[3]) * u.det().inverse()

    def test_classification_property(self):
        rng = random.Random(31)

        def order(u):
            want = pgl_order_oracle(u.a1, RatFunc(u.h) * u.a2, u.a2, u.a1)[0]
            assert leminv_check(u).order == want
            return want

        for h in (H4, H6, H8):
            for _ in range(15):
                assert order(rand_jonq(rng, h)) == PGL_INFINITE
            for _ in range(5):
                assert order(rand_jonq(rng, h, kind="involution")) == 2
                assert order(rand_jonq(rng, h, kind="scalar")) == 1


class TestToCremona:
    def test_group_pipeline_builds_no_fraction(self):
        """The order check, the inverse, the plane map, the curve, the
        fixation certificate and the JSON encoders run on the stored integer
        forms."""
        u = JonqElement.of(H6, UniPoly.of(1, 2), 3)
        report, built = fractions_built(leminv_check, u)
        assert report.order == PGL_INFINITE and built == 0
        inverse, built = fractions_built(invert, u)
        assert mul(u, inverse).a2.is_zero and built == 0
        for encode, value in ((ser.encode_jonq, inverse), (ser.encode_order_report, report)):
            encoded, built = fractions_built(encode, value)
            assert built == 0
            with mock.patch.object(ser, "encode_unipoly", encode_unipoly_oracle):
                assert encoded == encode(value)
        F, built = fractions_built(to_cremona, u)
        assert built == 0
        curve, built = fractions_built(hyperelliptic_curve_poly, H6)
        assert built == 0
        fixed, built = fractions_built(fixes_curve_pointwise, F, curve)
        assert fixed and built == 0

    def test_identity_element(self):
        assert is_identity(to_cremona(JonqElement.of(H4, 1, 0)))

    def test_involution_map(self):
        # (x, y) -> (x, h(x)/y) homogenised: (x y z^2 : x^4 - z^4 : y z^3)
        F = to_cremona(JonqElement.of(H4, 0, 1))
        from cremona_kit.exact_algebra import TriHomPoly

        assert F.degree == 4
        assert F.f0 == TriHomPoly.of({(1, 1, 2): 1})
        assert F.f1 == TriHomPoly.of({(4, 0, 0): 1, (0, 0, 4): -1})
        assert F.f2 == TriHomPoly.of({(0, 1, 3): 1})

    def test_fixes_the_hyperelliptic_curve(self):
        rng = random.Random(37)
        curve = hyperelliptic_curve_poly(H4)
        for _ in range(10):
            u = rand_jonq(rng, H4, max_deg=1)
            assert fixes_curve_pointwise(to_cremona(u), curve)

    def test_homomorphism(self):
        u = JonqElement.of(H4, 0, 1)
        v = JonqElement.of(H4, 1, 1)
        w = JonqElement.of(H4, UniPoly.variable(), 0)
        for a, b in ((u, v), (v, w), (u, w)):
            assert to_cremona(mul(a, b)) == compose(to_cremona(a), to_cremona(b))

    def test_general_matrix(self):
        # a map on the pencil of vertical lines that moves the curve
        F = _jonquieres_map(_entries(1, 1, 0, 1), 1)  # (x, y) -> (x, y + 1)
        from cremona_kit.exact_algebra import TRI_X, TRI_Y, TRI_Z
        from cremona_kit.cremona_maps import CremonaMap

        assert F == CremonaMap.of(TRI_X, TRI_Y + TRI_Z, TRI_Z)
        assert not fixes_curve_pointwise(F, hyperelliptic_curve_poly(H4))


def certifies_fixation(u: JonqElement) -> bool:
    """The minor-divisibility certificate on the curve y^2 = h(x)."""
    return fixes_curve_pointwise(to_cremona(u), hyperelliptic_curve_poly(u.h))


class TestHyperellipticFixation:
    def test_named_cases(self):
        assert certifies_fixation(JonqElement.of(H4, 0, 1))
        assert certifies_fixation(JonqElement.of(H4, 1, 0))

    def test_random_cases(self):
        rng = random.Random(41)
        for _ in range(20):
            assert certifies_fixation(rand_jonq(rng, H6))

    def test_against_sympy_expansion(self):
        rng = random.Random(43)
        y = sympy.Symbol("y")
        for _ in range(5):
            u = rand_jonq(rng, H6, max_deg=1)
            a1 = uni_to_sympy(u.a1.num) / uni_to_sympy(u.a1.den)
            a2 = uni_to_sympy(u.a2.num) / uni_to_sympy(u.a2.den)
            h = uni_to_sympy(u.h)
            lhs = (a1 * y + h * a2) ** 2 - h * (a2 * y + a1) ** 2
            rhs = (a1**2 - h * a2**2) * (y**2 - h)
            assert sympy.simplify(lhs - rhs) == 0
            assert certifies_fixation(u)

    def test_curve_poly_shape(self):
        curve = hyperelliptic_curve_poly(H4)
        assert curve.degree == 4
        assert curve.coeff((0, 2, 2)) == 1
        assert curve.coeff((4, 0, 0)) == -1
        assert curve.coeff((0, 0, 4)) == 1
