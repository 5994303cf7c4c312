import math
import random
from fractions import Fraction
from itertools import permutations

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cremona_kit.curve_model import (
    CurveCheck,
    PlaneCurveModel,
    PointSpec,
    SingularityData,
    curve_from_mults,
    genus,
    is_perfect_power,
    multiplicity_at,
    validate,
    validate_curve_data,
)
from cremona_kit.errors import InvalidCurveData
from cremona_kit.exact_algebra import TRI_X, TRI_Y, TRI_Z, TriHomPoly

from _util import (
    fractions_built,
    is_perfect_power_oracle,
    monomials,
    multiplicity_at_oracle,
    rand_curve,
    tri_to_sympy,
    trihoms,
)

# Sextic with ordinary triple points at (1:0:0) and (0:1:0): the six lines
# x y (x^2 - z^2)(y^2 - z^2) perturbed by z^6.
TWO_TRIPLE_SEXTIC = TriHomPoly.of(
    {(3, 3, 0): 1, (3, 1, 2): -1, (1, 3, 2): -1, (1, 1, 4): 1, (0, 0, 6): 1}
)


class TestGenus:
    def test_hyperelliptic_models(self):
        for g in range(2, 7):
            assert genus(curve_from_mults(g + 2, [g])) == g

    def test_seven_node_sextic(self):
        assert genus(curve_from_mults(6, [2] * 7)) == 3

    def test_eight_triple_point_nonic(self):
        assert genus(curve_from_mults(9, [3] * 8)) == 4

    def test_smooth_curves(self):
        for d in range(1, 11):
            assert genus(curve_from_mults(d, [])) == (d - 1) * (d - 2) // 2

    def test_permutation_invariance(self):
        mults = [2, 3, 4, 2]
        values = {genus(curve_from_mults(9, p)) for p in permutations(mults)}
        assert len(values) == 1


class TestConstructorInvariants:
    def test_negative_genus_rejected(self):
        with pytest.raises(InvalidCurveData):
            curve_from_mults(4, [3, 3])

    def test_multiplicity_above_degree_rejected(self):
        with pytest.raises(InvalidCurveData):
            curve_from_mults(4, [5])

    def test_bool_degree_rejected(self):
        # Accepted, True was written by encode_curve as "degree": true.
        with pytest.raises(InvalidCurveData, match="degree-positive"):
            PlaneCurveModel(True)
        (check,) = validate_curve_data(True, ()).checks
        assert (check.name, check.passed) == ("degree-positive", False)

    def test_duplicate_labels_rejected(self):
        sings = (
            SingularityData(PointSpec("p"), 2),
            SingularityData(PointSpec("p"), 2),
        )
        with pytest.raises(InvalidCurveData):
            PlaneCurveModel(6, sings)

    def test_duplicate_labels_are_named_once_in_order(self):
        labels = ["q", "p", "q", "r", "p", "q"]
        sings = tuple(SingularityData(PointSpec(l), 2) for l in labels)
        (check,) = [c for c in validate_curve_data(9, sings).checks if not c.passed]
        assert (check.name, check.detail) == ("labels-unique", "duplicate labels ['p', 'q']")
        with pytest.raises(InvalidCurveData, match=r"labels-unique: duplicate labels \['p', 'q'\]$"):
            PlaneCurveModel(9, sings)

    def test_non_ordinary_rejected(self):
        # Every declared point is read as ordinary: there is no flag to say otherwise.
        with pytest.raises(TypeError):
            SingularityData(PointSpec("p"), 2, ordinary=False)

    def test_multiplicity_below_two_rejected(self):
        with pytest.raises(InvalidCurveData):
            SingularityData(PointSpec("p"), 1)

    def test_zero_coordinates_rejected(self):
        with pytest.raises(InvalidCurveData):
            PointSpec("p", (Fraction(0), Fraction(0), Fraction(0)))

    def test_poly_degree_mismatch_rejected(self):
        with pytest.raises(InvalidCurveData):
            PlaneCurveModel(3, (), TRI_X * TRI_X)

    def test_perfect_power_rejected(self):
        square = (TRI_X * TRI_X + TRI_Y * TRI_Z) ** 2
        with pytest.raises(InvalidCurveData):
            PlaneCurveModel(4, (), square)

    def test_accepted_models_have_valid_numerics(self):
        rng = random.Random(1234)
        for _ in range(50):
            c = rand_curve(rng, min_genus=0)
            assert genus(c) >= 0
            assert all(s.multiplicity <= c.degree for s in c.singularities)


class TestPerfectPower:
    def test_squares_and_cubes(self):
        f = TRI_X * TRI_X + TRI_Y * TRI_Z
        assert is_perfect_power(f * f)
        assert is_perfect_power((TRI_X + TRI_Y) ** 3)
        assert is_perfect_power(TRI_X * TRI_X)

    def test_non_powers(self):
        assert not is_perfect_power(TRI_X * TRI_X + TRI_Y * TRI_Z)
        assert not is_perfect_power(TWO_TRIPLE_SEXTIC)
        # squarefree but reducible: not a perfect power
        assert not is_perfect_power(TRI_X * TRI_Y)
        # x^2 y: non-squarefree, still not a perfect power
        assert not is_perfect_power(TRI_X * TRI_X * TRI_Y)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(trihoms(max_degree=2).filter(lambda g: g.degree > 0))
    def test_powers_of_random_forms(self, g):
        assert is_perfect_power(g * g)
        assert is_perfect_power(g * g * g)
        _, factors = sympy.factor_list(tri_to_sympy(g))
        if all(m == 1 for _, m in factors):
            assert not is_perfect_power(g)


def _primitive_form(v):
    g = math.gcd(*v)
    v = tuple(c // g for c in v)
    return v if next(c for c in v if c) > 0 else tuple(-c for c in v)


@st.composite
def planted_powers(draw):
    """(forms, exponents, scale): one to three distinct linear forms, each
    with an exponent of 1 to 3, times a nonzero scale."""
    linear = st.tuples(*[st.integers(-3, 3)] * 3).filter(any).map(_primitive_form)
    forms = draw(st.lists(linear, min_size=1, max_size=3, unique=True))
    exponents = [draw(st.integers(1, 3)) for _ in forms]
    return forms, exponents, draw(st.sampled_from([1, -1, Fraction(3, 2)]))


class TestPerfectPowerOracle:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(planted_powers())
    @example(([(1, 0, 0), (0, 1, 0)], [2, 3], 1))  # x^2 y^3
    @example(([(1, 0, 0), (0, 1, 0)], [2, 4], 1))
    @example(([(1, 1, 0), (1, -1, 0), (0, 0, 1)], [3, 3, 3], -1))
    @example(([(1, 2, 3)], [1], Fraction(3, 2)))
    def test_planted_products(self, case):
        forms, exponents, scale = case
        f = TriHomPoly.monomial((0, 0, 0), scale)
        for (a, b, c), e in zip(forms, exponents):
            f = f * (TRI_X * a + TRI_Y * b + TRI_Z * c) ** e
        expected = math.gcd(*exponents) >= 2
        _, factors = sympy.factor_list(tri_to_sympy(f))
        assert sorted(m for _, m in factors) == sorted(exponents)
        assert is_perfect_power(f) == expected


@st.composite
def products(draw):
    """A nonzero scale times one to three forms of degree 0 to 2, each to a
    power 1 to 3, of degree at most 8: constants, non-squarefree products
    and perfect powers."""
    f = TriHomPoly.monomial((0, 0, 0), draw(st.sampled_from([1, -2, Fraction(3, 2)])))
    for form in draw(st.lists(trihoms(max_degree=2), min_size=1, max_size=3)):
        e = draw(st.integers(1, 3))
        if f.degree + e * form.degree <= 8:
            f = f * form**e
    return f


class TestPerfectPowerAgainstGcdFold:
    """One content GCD of the three partials per level, against the fold of
    one gcd per partial that it replaced."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(products())
    @example(TriHomPoly.monomial((0, 0, 0), 5))
    @example(TRI_X * TRI_Z * TRI_Z)  # w_x = z^2, w_y = 0: the level needs w_z
    @example((TRI_X + TRI_Z) ** 2 * TRI_Z**2)
    @example(TRI_Z**3)
    @example((TRI_X * TRI_Y - TRI_Z * TRI_Z) ** 3 * TRI_Y**3)
    def test_agrees_with_the_oracle(self, f):
        assert is_perfect_power(f) == is_perfect_power_oracle(f)


# Points with zero and with rational coordinates; (0, 0, 0) is filtered out.
POINT_COORDS = st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)])
POINTS = st.tuples(POINT_COORDS, POINT_COORDS, POINT_COORDS).filter(any)


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _linear(row):
    return TRI_X * row[0] + TRI_Y * row[1] + TRI_Z * row[2]


@st.composite
def planted_multiplicities(draw):
    """(f, point, m).  g has degree d >= m and every term of total degree
    >= m in x and y, some exactly m: multiplicity m at (0:0:1).  f is g
    after the invertible change of coordinates (a.X, b.X, P.X), with P the
    point scaled to integers and a = u x P, b = v x P orthogonal to it, so
    f has multiplicity m at the point."""
    m = draw(st.integers(0, 4))
    d = m + draw(st.integers(0, 2))
    point = draw(POINTS)
    scale = math.lcm(*(Fraction(c).denominator for c in point))
    P = tuple(int(c * scale) for c in point)
    coeff = st.integers(-3, 3)
    terms = {e: draw(coeff) for e in monomials(d) if e[0] + e[1] >= m}
    lowest = [(i, m - i, d - m) for i in range(m + 1)]
    terms[draw(st.sampled_from(lowest))] = draw(st.integers(1, 3))
    vector = st.tuples(*[st.integers(-2, 2)] * 3)
    u, v = draw(vector), draw(vector)
    a, b = _cross(u, P), _cross(v, P)
    assume(any(_cross(a, b)))  # u, v and P independent
    f = TriHomPoly.of(terms, d).substitute([_linear(a), _linear(b), _linear(P)])
    return f, point, m


class TestMultiplicityAgainstPartials:
    """The one substitution against the earlier search over the partials."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(planted_multiplicities())
    def test_planted_multiplicity(self, case):
        f, point, m = case
        assert multiplicity_at(f, point) == multiplicity_at_oracle(f, point) == m

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(trihoms(max_degree=4), POINTS)
    def test_random_forms_and_points(self, f, point):
        assert multiplicity_at(f, point) == multiplicity_at_oracle(f, point)

    @pytest.mark.parametrize("point", [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 3, -2)])
    def test_degree_zero(self, point):
        assert multiplicity_at(TriHomPoly.monomial((0, 0, 0), -7), point) == 0


class TestMultiplicityAt:
    def test_cuspidal_cubic(self):
        f = TRI_Y * TRI_Y * TRI_Z - TRI_X**3
        assert multiplicity_at(f, (0, 0, 1)) == 2

    def test_coordinate_triangle(self):
        f = TRI_X * TRI_Y * TRI_Z
        assert multiplicity_at(f, (0, 0, 1)) == 2

    def test_smooth_point_on_conic(self):
        f = TRI_X * TRI_Z - TRI_Y * TRI_Y
        assert multiplicity_at(f, (0, 0, 1)) == 1

    def test_point_off_curve(self):
        f = TRI_X * TRI_Z - TRI_Y * TRI_Y
        assert multiplicity_at(f, (1, 1, 0)) == 0

    def test_two_triple_sextic(self):
        assert multiplicity_at(TWO_TRIPLE_SEXTIC, (1, 0, 0)) == 3
        assert multiplicity_at(TWO_TRIPLE_SEXTIC, (0, 1, 0)) == 3
        assert multiplicity_at(TWO_TRIPLE_SEXTIC, (0, 0, 1)) == 0


class TestValidate:
    # 2 (3y - z)^2 z = (9/4) (2x - z)^3: a cusp at (1/2, 1/3, 1), smooth at (3/2, 4/3, 1).
    CUSPIDAL = (TRI_Y * 3 - TRI_Z) ** 2 * TRI_Z * 2 - (TRI_X * 2 - TRI_Z) ** 3 * Fraction(9, 4)

    @pytest.mark.parametrize(
        "x, y, found", [(Fraction(1, 2), Fraction(1, 3), 2), (Fraction(3, 2), Fraction(4, 3), 1)]
    )
    def test_multiplicities_are_tested_on_integers(self, x, y, found):
        """multiplicity_at tests zeros on the point scaled to integers: validation
        builds no Fraction and reports as before."""
        sings = (SingularityData(PointSpec("p", (x, y, Fraction(1))), 2),)
        report, built = fractions_built(validate_curve_data, 3, sings, self.CUSPIDAL)
        assert built == 0
        *structural, last = report.checks
        assert all(check.passed for check in structural)
        assert (last.name, last.passed) == ("poly-multiplicity-at-p", found == 2)
        assert last.detail == f"declared multiplicity 2, polynomial has {found}"

    def test_abstract_model_passes(self):
        report = validate(curve_from_mults(6, [2] * 7))
        assert report.passed

    def test_multiplicity_exceeds_degree(self):
        report = validate_curve_data(4, (SingularityData(PointSpec("p"), 5),))
        assert not report.passed
        assert any(c.name == "multiplicity-range" and not c.passed for c in report.checks)

    def test_explicit_sextic_passes(self):
        sings = (
            SingularityData(PointSpec("p", (Fraction(1), Fraction(0), Fraction(0))), 3),
            SingularityData(PointSpec("q", (Fraction(0), Fraction(1), Fraction(0))), 3),
        )
        model = PlaneCurveModel(6, sings, TWO_TRIPLE_SEXTIC)
        assert validate(model).passed

    def test_only_failing_structural_checks_carry_text(self):
        """A passing structural check has detail "", a failing one names the
        fault."""
        sings = (
            SingularityData(PointSpec("p", (Fraction(1), Fraction(0), Fraction(0))), 3),
            SingularityData(PointSpec("q", (Fraction(0), Fraction(1), Fraction(0))), 3),
        )
        report = validate_curve_data(6, sings, TWO_TRIPLE_SEXTIC)
        structural = [c for c in report.checks if not c.name.startswith("poly-multiplicity-at-")]
        assert len(structural) == 7 and all(c.passed and c.detail == "" for c in structural)
        failing = {
            (0, (), None): ("degree-positive", "degree 0 must be >= 1"),
            (3, (SingularityData(PointSpec("p"), 3),), None): (
                "genus-nonnegative",
                "computed genus -2 is negative",
            ),
            (5, sings, TWO_TRIPLE_SEXTIC): (
                "poly-degree-matches",
                "polynomial degree 6 != declared degree 5",
            ),
        }
        for args, (name, detail) in failing.items():
            (check,) = [c for c in validate_curve_data(*args).checks if not c.passed]
            assert (check.name, check.detail) == (name, detail)

    def test_wrong_declared_multiplicity_fails(self):
        sings = (
            SingularityData(PointSpec("p", (Fraction(1), Fraction(0), Fraction(0))), 2),
            SingularityData(PointSpec("q", (Fraction(0), Fraction(1), Fraction(0))), 3),
        )
        report = validate_curve_data(6, sings, TWO_TRIPLE_SEXTIC)
        assert not report.passed
        assert any(c.name == "poly-multiplicity-at-p" and not c.passed for c in report.checks)

    def test_zero_polynomial_fails_and_ends_the_checks(self):
        report = validate_curve_data(4, (), TriHomPoly.zero(4))
        assert not report.passed
        assert report.checks[-1] == CurveCheck("poly-nonzero", False, "defining polynomial is zero")
        assert [c for c in report.checks if not c.passed] == [report.checks[-1]]


class TestRefusals:
    """The exact type and message of each refusal of bad input."""

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda: multiplicity_at(TriHomPoly.zero(2), (0, 0, 1)), ValueError,
             "multiplicity of the zero polynomial is undefined"),
            (lambda: multiplicity_at(TRI_X, (0, 0, 0)), ValueError,
             "expected a valid projective point"),
            (lambda: multiplicity_at(TRI_X, (0, 1)), ValueError,
             "expected a valid projective point"),
            (lambda: multiplicity_at(TRI_X, (0.5, 1, 1)), TypeError,
             "expected an exact rational, got float"),
            (lambda: is_perfect_power(TriHomPoly.zero(2)), ValueError,
             "perfect-power test on the zero polynomial"),
            (lambda: PointSpec(3), InvalidCurveData, "point labels must be nonempty strings"),
            (lambda: PointSpec(""), InvalidCurveData, "point labels must be nonempty strings"),
        ],
        ids=[
            "multiplicity-of-zero",
            "multiplicity-at-zero-point",
            "multiplicity-at-two-coordinates",
            "multiplicity-at-float-point",
            "perfect-power-of-zero",
            "non-string-label",
            "empty-label",
        ],
    )
    def test_message(self, call, error, message):
        with pytest.raises(error) as info:
            call()
        assert (type(info.value), str(info.value)) == (error, message)
