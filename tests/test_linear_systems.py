import pickle
import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cremona_kit.curve_model import curve_from_mults, genus
from cremona_kit.errors import (
    AdjointDoesNotExist,
    DegenerateSystem,
    NegativeDegree,
    NegativeMultiplicity,
)
from cremona_kit.linear_systems import (
    Classification,
    LinSysData,
    PencilReduction,
    _first_rule,
    adjoint_chain,
    adjoint_raw,
    adjoint_step,
    member_genus,
    pencil_decompose,
    quadratic_transform,
    remove_fixed_components,
    self_intersection,
    virtual_dim,
)
from cremona_kit.rational_pencils import as_linear_system, enumerate_pencil_types

from _util import (
    _applicable_rules,
    pencil_decompose_oracle,
    rand_curve,
    rand_system,
    rand_usable_system,
    remove_fixed_components_oracle,
    remove_fixed_components_random_order,
)


def sysd(n, mults):
    return LinSysData.of(n, mults)


@st.composite
def bezout_cases(draw):
    """(n, mults) with n <= 30, at most 10 points, multiplicities 0..n+2.

    Labels are short strings drawn in any order, so label order differs
    from insertion order.  Uniform multiplicities almost never leave a
    conic as the first rule, so half the cases take at least five points
    with multiplicities near n/2, where a pair rarely exceeds n but five
    points can exceed 2n.
    """
    n = draw(st.integers(0, 30))
    near_half = draw(st.booleans())
    labels = draw(
        st.lists(
            st.text("abc", min_size=1, max_size=2),
            unique=True,
            min_size=5 if near_half else 0,
            max_size=10,
        )
    )
    mult = st.integers(2 * n // 5, n // 2 + 1) if near_half else st.integers(0, n + 2)
    return n, {l: draw(mult) for l in labels}


GEISER = sysd(6, {f"p{i}": 2 for i in range(7)})
BERTINI = sysd(9, {f"p{i}": 3 for i in range(8)})


class TestNumericalInvariants:
    def test_virtual_dim(self):
        assert virtual_dim(sysd(1, {"p": 1})) == 1
        assert virtual_dim(sysd(3, {f"p{i}": 1 for i in range(7)})) == 2
        assert virtual_dim(sysd(3, {f"p{i}": 1 for i in range(8)})) == 1

    def test_member_genus(self):
        assert member_genus(GEISER) == 3
        assert member_genus(sysd(6, {f"p{i}": 2 for i in range(8)})) == 2
        assert member_genus(sysd(2, {"p": 1, "q": 1})) == 0

    def test_self_intersection(self):
        assert self_intersection(sysd(1, {"p": 1})) == 0
        assert self_intersection(sysd(3, {f"p{i}": 1 for i in range(9)})) == 0
        assert self_intersection(sysd(2, {"p": 1, "q": 1})) == 2

    def test_cached_sums_stay_out_of_pickles(self):
        L = sysd(6, {"p": 3, "q": 2})
        before = pickle.dumps(L)
        assert member_genus(L) == 6
        assert pickle.dumps(L) == before
        assert member_genus(pickle.loads(before)) == 6

    def test_zero_mults_dropped(self):
        L = sysd(3, {"a": 0, "b": 2})
        assert L.labels() == ("b",)
        assert L.mult("a") == 0

    def test_negative_rejected(self):
        with pytest.raises(DegenerateSystem):
            LinSysData(-1)
        with pytest.raises(DegenerateSystem):
            sysd(3, {"a": -1})

    @pytest.mark.parametrize(
        "degree, mults, message",
        [
            (True, {}, "linear system with non-integer degree True"),
            ("x", {}, "linear system with non-integer degree 'x'"),
            (2.0, {}, "linear system with non-integer degree 2.0"),
            (-1, {}, "linear system with negative degree -1"),
            (3, {"a": True, "b": 2}, "non-integer multiplicity True at 'a'"),
            (3, {"a": False}, "non-integer multiplicity False at 'a'"),
            (3, {"a": 1.0}, "non-integer multiplicity 1.0 at 'a'"),
            (3, {"a": -2}, "negative multiplicity -2 at 'a'"),
        ],
    )
    def test_fault_named(self, degree, mults, message):
        # bool is an int subclass, yet a system of bools would encode as
        # JSON true and false.
        with pytest.raises(DegenerateSystem) as info:
            LinSysData.of(degree, mults)
        assert str(info.value) == message


class TestAdjointRaw:
    def test_formula(self):
        assert adjoint_raw(sysd(6, {"p": 3, "q": 3})) == sysd(3, {"p": 2, "q": 2})
        assert adjoint_raw(BERTINI) == sysd(6, {f"p{i}": 2 for i in range(8)})
        assert adjoint_raw(sysd(5, {"p": 3})) == sysd(2, {"p": 2})

    def test_accepts_curve_models(self):
        c = curve_from_mults(6, [3, 3])
        assert adjoint_raw(c) == sysd(3, {"p0": 2, "p1": 2})

    def test_requires_genus_above_one(self):
        for bad in (sysd(3, {}), sysd(4, {"p": 3}), sysd(1, {})):
            assert member_genus(bad) <= 1
            with pytest.raises(AdjointDoesNotExist):
                adjoint_raw(bad)

    def test_canonical_dimension_identity(self):
        rng = random.Random(99)
        for _ in range(100):
            c = rand_curve(rng)
            assert virtual_dim(adjoint_raw(c)) == genus(c) - 1


class TestRemoveFixedComponents:
    def test_line_between_double_points(self):
        reduced, removed = remove_fixed_components(sysd(3, {"p": 2, "q": 2}))
        assert reduced == sysd(2, {"p": 1, "q": 1})
        assert len(removed) == 1
        assert removed[0].kind == "line"
        assert removed[0].labels == ("p", "q")
        assert removed[0].count == 1
        assert removed[0].system == sysd(1, {"p": 1, "q": 1})

    def test_no_fixed_part(self):
        L = sysd(3, {f"p{i}": 1 for i in range(7)})
        reduced, removed = remove_fixed_components(L)
        assert reduced == L and removed == ()

    def test_partial_line_removal(self):
        reduced, removed = remove_fixed_components(sysd(2, {"p": 2, "q": 1}))
        assert reduced == sysd(1, {"p": 1})
        assert [(r.kind, r.count) for r in removed] == [("line", 1)]

    def test_repeated_line(self):
        # quartics triple at two points contain the line twice
        reduced, removed = remove_fixed_components(sysd(4, {"p": 3, "q": 3}))
        assert removed[0].count == 2
        assert reduced == sysd(2, {"p": 1, "q": 1})

    def test_conic_rule(self):
        L = sysd(4, {"p0": 2, "p1": 2, "p2": 2, "p3": 2, "p4": 1})
        reduced, removed = remove_fixed_components(L)
        assert [(r.kind, r.count) for r in removed] == [("conic", 1)]
        assert removed[0].labels == ("p0", "p1", "p2", "p3", "p4")
        assert reduced == sysd(2, {f"p{i}": 1 for i in range(4)})

    def test_conic_removed_twice_when_degenerate(self):
        # (4; 2^5) is numerically empty: the conic through the five points
        # is forced out twice, leaving the constants.
        reduced, removed = remove_fixed_components(sysd(4, {f"p{i}": 2 for i in range(5)}))
        assert [(r.kind, r.count) for r in removed] == [("conic", 2)]
        assert reduced == sysd(0, {})

    def test_confluence_random_orders(self):
        # Confluence is guaranteed on usable systems (virtual dim >= 1).
        rng = random.Random(2718)
        for case in range(40):
            L = rand_usable_system(rng)
            expected = remove_fixed_components(L)
            for k in range(10):
                sub = random.Random(1000 * case + k)
                assert remove_fixed_components_random_order(L, sub) == expected

    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(bezout_cases())
    # The screen's boundaries: the two largest summing to n, then n + 1;
    # the five largest summing to 2n, then 2n + 1 (the top four at most 2n);
    # four points with a large sum, and one point above 2n, with no conic.
    @example((6, {"a": 3, "b": 3, "c": 1, "d": 2}))
    @example((6, {"a": 3, "b": 4, "c": 1, "d": 2}))
    @example((5, {"a": 2, "b": 2, "c": 2, "d": 2, "e": 2, "f": 1}))
    @example((5, {"a": 2, "b": 3, "c": 2, "d": 1, "e": 2, "f": 2}))
    @example((4, {"a": 2, "b": 3, "c": 2, "d": 2}))
    @example((1, {"a": 3}))
    def test_first_rule_matches_enumerator(self, case):
        n, mults = case
        rules = _applicable_rules(n, mults)
        labels = sorted(l for l, m in mults.items() if m >= 1)
        assert _first_rule(n, labels, [mults[l] for l in labels]) == (rules[0] if rules else None)

    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(bezout_cases())
    def test_removal_matches_oracle_loop(self, case):
        L = sysd(*case)
        try:
            expected = remove_fixed_components_oracle(L)
        except DegenerateSystem:
            with pytest.raises(DegenerateSystem):
                remove_fixed_components(L)
        else:
            assert remove_fixed_components(L) == expected


class TestPencilDecompose:
    def test_multiple_of_line_pencil(self):
        result = pencil_decompose(sysd(4, {"p": 4}))
        assert result is not None
        assert result.content == 4
        assert result.pencil == sysd(1, {"p": 1})

    def test_irreducible_net(self):
        assert pencil_decompose(sysd(3, {f"p{i}": 1 for i in range(7)})) is None

    def test_content_one(self):
        assert pencil_decompose(sysd(2, {"p": 1, "q": 1})) is None

    def test_content_without_pencil_structure(self):
        # (6; 2^8) has content 2 but its primitive part is an elliptic pencil
        assert pencil_decompose(sysd(6, {f"p{i}": 2 for i in range(8)})) is None

    def test_decomposed_pencils_are_rational_pencils(self):
        rng = random.Random(31415)
        for _ in range(50):
            t = rng.randint(2, 4)
            base = rng.choice(
                [
                    sysd(1, {"p": 1}),
                    sysd(2, {f"p{i}": 1 for i in range(4)}),
                    sysd(3, {"p": 2, **{f"q{i}": 1 for i in range(5)}}),
                ]
            )
            scaled = sysd(base.degree * t, {l: m * t for l, m in base.mults})
            result = pencil_decompose(scaled)
            assert result is not None
            P = result.pencil
            assert member_genus(P) == 0
            assert self_intersection(P) == 0
            assert virtual_dim(P) == 1


PENCIL_TYPES_10 = enumerate_pencil_types(10, 10)


@st.composite
def pencil_multiples(draw):
    """c copies of a rational pencil type of degree <= 10, for c in 2..4;
    one draw in three moves one multiplicity by c, leaving a primitive part
    that is no pencil."""
    p = draw(st.sampled_from(PENCIL_TYPES_10))
    c = draw(st.integers(2, 4))
    mults = {l: c * m for l, m in as_linear_system(p).mults}
    if draw(st.integers(0, 2)) == 0:
        label = draw(st.sampled_from(sorted(mults)))
        mults[label] += draw(st.sampled_from((-c, c)))
    return sysd(c * p.degree, mults)


class TestPencilDimension:
    """Genus 0 and self-intersection 0 give dimension 1, since
    vdim = selfint - genus + 1 (``TestAdjointChain.test_dimension_identity``):
    so ``pencil_decompose`` tests the first two only."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.one_of(pencil_multiples(), bezout_cases().map(lambda case: sysd(*case))))
    def test_decomposition_equals_the_three_condition_test(self, L):
        result = pencil_decompose(L)
        assert result == pencil_decompose_oracle(L)
        if result is not None:
            assert virtual_dim(result.pencil) == 1

    def test_every_pencil_type_is_reduced(self):
        for p in enumerate_pencil_types(12, 12):
            P = as_linear_system(p)
            assert virtual_dim(P) == 1
            L = sysd(3 * p.degree, {l: 3 * m for l, m in P.mults})
            assert pencil_decompose(L) == PencilReduction(3, P)


class TestAdjointStep:
    def test_two_triple_point_sextic(self):
        step = adjoint_step(sysd(6, {"p": 3, "q": 3}))
        assert step.raw_adjoint == sysd(3, {"p": 2, "q": 2})
        assert step.output == sysd(2, {"p": 1, "q": 1})

    def test_bertini_first_step(self):
        step = adjoint_step(BERTINI)
        assert step.output == sysd(6, {f"p{i}": 2 for i in range(8)})
        assert step.pencil_reduction is None

    def test_hyperelliptic_step_yields_pencil(self):
        step = adjoint_step(sysd(7, {"p": 5}))
        assert step.raw_adjoint == sysd(4, {"p": 4})
        assert step.pencil_reduction is not None
        assert step.pencil_reduction.content == 4
        assert step.output == sysd(1, {"p": 1})

    def test_degree_drops_by_three_before_removal(self):
        rng = random.Random(777)
        for _ in range(50):
            c = rand_curve(rng)
            report = adjoint_chain(c)
            for s in report.steps:
                assert s.raw_adjoint.degree == s.input.degree - 3

    def test_chain_length_bound(self):
        rng = random.Random(778)
        for _ in range(50):
            c = rand_curve(rng)
            report = adjoint_chain(c)
            assert len(report.steps) <= c.degree // 3 + 1


class TestAdjointChain:
    def test_hyperelliptic_models(self):
        for g in range(2, 7):
            report = adjoint_chain(curve_from_mults(g + 2, [g]))
            assert report.classification is Classification.RATIONAL_PENCIL
            assert report.terminal == sysd(1, {"p0": 1})
            assert len(report.steps) == 1

    def test_geiser_model(self):
        report = adjoint_chain(curve_from_mults(6, [2] * 7))
        assert report.classification is Classification.ELLIPTIC_NET
        assert report.terminal == sysd(3, {f"p{i}": 1 for i in range(7)})

    def test_bertini_model(self):
        report = adjoint_chain(curve_from_mults(9, [3] * 8))
        assert report.classification is Classification.ELLIPTIC_PENCIL
        assert [s.output for s in report.steps] == [
            sysd(6, {f"p{i}": 2 for i in range(8)}),
            sysd(3, {f"p{i}": 1 for i in range(8)}),
        ]

    def test_two_triple_point_sextic(self):
        report = adjoint_chain(curve_from_mults(6, [3, 3]))
        assert report.classification is Classification.RATIONAL_SYSTEM
        assert report.terminal == sysd(2, {"p0": 1, "p1": 1})

    def test_rejects_low_genus(self):
        with pytest.raises(AdjointDoesNotExist):
            adjoint_chain(curve_from_mults(3, []))

    def test_steps_are_arithmetically_consistent(self):
        rng = random.Random(779)
        for _ in range(30):
            report = adjoint_chain(rand_curve(rng))
            for a, b in zip(report.steps, report.steps[1:]):
                assert b.input == a.output
            assert report.terminal == report.steps[-1].output
            assert member_genus(report.terminal) <= 1 or virtual_dim(report.terminal) <= 0

    def test_smooth_quartic_gives_lines(self):
        report = adjoint_chain(curve_from_mults(4, []))
        assert report.terminal == sysd(1, {})
        assert report.classification is Classification.RATIONAL_SYSTEM

    def test_genus_one_dim_three_is_exhausted_with_warning(self):
        # six-node sextic: the cubics through the six points have genus-1
        # members and dimension 3, outside the rational/elliptic case split
        report = adjoint_chain(curve_from_mults(6, [2] * 6))
        assert report.terminal == sysd(3, {f"p{i}": 1 for i in range(6)})
        assert report.classification is Classification.EXHAUSTED
        assert report.warnings

    def test_dimension_identity(self):
        # vdim = selfint - genus + 1 holds identically for any system
        rng = random.Random(991)
        for _ in range(100):
            L = rand_system(rng)
            assert virtual_dim(L) == self_intersection(L) - member_genus(L) + 1

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(bezout_cases())
    @example((7, {"p": 5}))  # a pencil reduction
    @example((6, {"p": 3, "q": 3}))  # a removed line
    def test_report_systems_are_canonical(self, case):
        # Each system a step derives, by the trusted LinSysData._sorted, is
        # the one the validating constructor builds from its fields.
        n, mults = case
        while member_genus(sysd(n, mults)) <= 1:  # raise the degree until a chain starts
            n += 1
        report = adjoint_chain(sysd(n, mults))
        systems = [report.terminal]
        for step in report.steps:
            systems += [step.input, step.raw_adjoint, step.reduced]
            systems += [r.system for r in step.removed_fixed]
            if step.pencil_reduction is not None:
                systems.append(step.pencil_reduction.pencil)
        for L in systems:
            assert L == LinSysData.of(L.degree, L.mults)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(bezout_cases())
    @example((7, {"p": 5}))  # a pencil reduction
    @example((6, {"p": 3, "q": 3}))  # a removed line
    @example((6, {f"p{i}": 2 for i in range(6)}))  # Exhausted: genus 1, dimension 3
    def test_no_system_of_a_chain_is_empty(self, case):
        # The adjoint of a genus-g system has dimension g - 1 >= 1, no line or
        # conic rule lowers it, and a pencil has dimension 1: the chain needs
        # no branch for a system of dimension <= 0.
        n, mults = case
        while member_genus(sysd(n, mults)) <= 1:  # raise the degree until a chain starts
            n += 1
        for step in adjoint_chain(sysd(n, mults)).steps:
            assert virtual_dim(step.raw_adjoint) == member_genus(step.input) - 1 >= 1
            assert virtual_dim(step.reduced) >= virtual_dim(step.raw_adjoint)
            assert virtual_dim(step.output) >= 1

    @pytest.mark.parametrize(
        "degree, mult, points, steps, classification, terminal",
        [
            (200, 20, 40, 66, Classification.RATIONAL_SYSTEM, sysd(2, {})),
            (90, 10, 30, 29, Classification.EXHAUSTED, sysd(3, {})),
        ],
    )
    def test_many_point_chains(self, degree, mult, points, steps, classification, terminal):
        # Each step searches up to C(k, 5) conics for k points; listing them
        # all made these chains take seconds.
        report = adjoint_chain(curve_from_mults(degree, [mult] * points))
        assert len(report.steps) == steps
        assert report.classification == classification
        assert report.terminal == terminal


class TestQuadraticTransform:
    def test_geiser_class_invariant(self):
        labels = GEISER.labels()
        out = quadratic_transform(GEISER, labels[:3])
        assert out == GEISER

    def test_line_to_conic(self):
        out = quadratic_transform(sysd(1, {}), ("a", "b", "c"))
        assert out == sysd(2, {"a": 1, "b": 1, "c": 1})

    def test_conic_back_to_line(self):
        out = quadratic_transform(sysd(2, {"a": 1, "b": 1, "c": 1}), ("a", "b", "c"))
        assert out == sysd(1, {})

    def test_involutive(self):
        rng = random.Random(515)
        for _ in range(30):
            L = rand_system(rng, n_max=9, points=6)
            base = ("a", "b", "c")
            try:
                once = quadratic_transform(L, base)
            except (NegativeDegree, NegativeMultiplicity):
                continue
            assert quadratic_transform(once, base) == L

    def test_inadmissible_base(self):
        with pytest.raises(NegativeMultiplicity):
            quadratic_transform(sysd(3, {"a": 3, "b": 3}), ("a", "b", "c"))
        with pytest.raises(NegativeDegree):
            quadratic_transform(sysd(1, {"a": 1, "b": 1, "c": 1}), ("a", "b", "c"))

    def test_distinct_labels_required(self):
        with pytest.raises(ValueError):
            quadratic_transform(GEISER, ("p0", "p0", "p1"))

    def test_covariance_on_geiser(self):
        for base in combinations(GEISER.labels(), 3):
            lhs = quadratic_transform(adjoint_step(GEISER).output, base)
            rhs = adjoint_step(quadratic_transform(GEISER, base)).output
            assert lhs == rhs

    def test_covariance_on_bertini(self):
        for base in combinations(BERTINI.labels(), 3):
            lhs = quadratic_transform(adjoint_step(BERTINI).output, base)
            rhs = adjoint_step(quadratic_transform(BERTINI, base)).output
            assert lhs == rhs
