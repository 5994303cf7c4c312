"""Acceptance suite: every criterion exact, one pass/fail line each.

Each test exercises one exit criterion at its stated size (counts,
degree ranges, runtime bounds) with deterministic seeds; the conftest
hook prints a PASS/FAIL line per criterion after the run.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

from cremona_kit import jonquieres as jq
from cremona_kit.cremona_maps import (
    compose,
    fixes_curve_pointwise,
    is_identity,
    make_H_element,
    make_linear_G,
    make_phi,
)
from cremona_kit.curve_model import curve_from_mults, genus
from cremona_kit.exact_algebra import RatFunc, TriHomPoly, UniPoly
from cremona_kit.linear_systems import (
    Classification,
    LinSysData,
    adjoint_chain,
    adjoint_raw,
    adjoint_step,
    quadratic_transform,
    remove_fixed_components,
    virtual_dim,
)
from cremona_kit.rational_pencils import (
    PencilType,
    check_rational_pencil,
    enumerate_pencil_types,
    sextic_free_intersection_bound,
)

from _util import (
    H4,
    H6,
    H8,
    pgl_order_oracle,
    rand_jonq,
    rand_usable_system,
    remove_fixed_components_random_order,
)


def sysd(n, mults):
    return LinSysData.of(n, mults)


def test_c1_classical_chains_reproduce_exactly():
    start = time.monotonic()

    # degree g+2 with one ordinary g-fold point, g = 2..6
    for g in range(2, 7):
        report = adjoint_chain(curve_from_mults(g + 2, [g]))
        assert report.classification is Classification.RATIONAL_PENCIL
        assert len(report.steps) == 1
        step = report.steps[0]
        assert step.raw_adjoint == sysd(g - 1, {"p0": g - 1})
        assert report.terminal == sysd(1, {"p0": 1})
        if g >= 3:
            assert step.pencil_reduction is not None
            assert step.pencil_reduction.content == g - 1
            assert step.pencil_reduction.pencil == sysd(1, {"p0": 1})
        else:
            assert step.pencil_reduction is None

    # sextic with two ordinary triple points: connecting line removed
    report = adjoint_chain(curve_from_mults(6, [3, 3]))
    step = report.steps[0]
    assert step.raw_adjoint == sysd(3, {"p0": 2, "p1": 2})
    assert [(r.kind, r.labels, r.count) for r in step.removed_fixed] == [
        ("line", ("p0", "p1"), 1)
    ]
    assert report.terminal == sysd(2, {"p0": 1, "p1": 1})

    # sextic with seven nodes: elliptic net of cubics
    report = adjoint_chain(curve_from_mults(6, [2] * 7))
    terminal = sysd(3, {f"p{i}": 1 for i in range(7)})
    assert report.terminal == terminal
    assert report.classification is Classification.ELLIPTIC_NET
    from cremona_kit.linear_systems import member_genus

    assert member_genus(terminal) == 1 and virtual_dim(terminal) == 2

    # nonic with eight triple points: two steps down to an elliptic pencil
    report = adjoint_chain(curve_from_mults(9, [3] * 8))
    assert [s.output for s in report.steps] == [
        sysd(6, {f"p{i}": 2 for i in range(8)}),
        sysd(3, {f"p{i}": 1 for i in range(8)}),
    ]
    assert report.classification is Classification.ELLIPTIC_PENCIL

    assert time.monotonic() - start < 1.0


def test_c2_canonical_dimension_identity_500_models():
    rng = random.Random(20260809)
    count = 0
    while count < 500:
        d = rng.randint(4, 15)
        k = rng.randint(0, 8)
        mults = [rng.randint(2, max(2, min(d, 6))) for _ in range(k)]
        g = (d - 1) * (d - 2) // 2 - sum(m * (m - 1) // 2 for m in mults)
        if g < 2:
            continue
        model = curve_from_mults(d, mults)
        assert virtual_dim(adjoint_raw(model)) == genus(model) - 1
        count += 1


def test_c3_quadratic_covariance_all_base_triples():
    geiser = sysd(6, {f"p{i}": 2 for i in range(7)})
    bertini = sysd(9, {f"p{i}": 3 for i in range(8)})
    for system in (geiser, bertini):
        step_first = adjoint_step(system).output
        for base in combinations([l for l, _ in system.mults], 3):
            transformed = quadratic_transform(system, base)
            assert adjoint_step(transformed).output == quadratic_transform(
                step_first, base
            )


def test_c4_order_classification_200_elements():
    rng = random.Random(1729)
    hs = (H4, H6, H8)
    seen = {"involution": 0, "scalar": 0, "generic": 0}
    for i in range(200):
        h = hs[i % 3]
        kind = ("involution", "scalar", None, None, None)[i % 5]
        u = rand_jonq(rng, h, kind=kind)
        order = pgl_order_oracle(u.a1, RatFunc(h) * u.a2, u.a2, u.a1)[0]
        assert jq.leminv_check(u).order == order
        assert order in (1, 2, jq.PGL_INFINITE)
        if u.a1.is_zero:
            assert order == 2
            seen["involution"] += 1
        elif u.a2.is_zero:
            assert order == 1
            seen["scalar"] += 1
        else:
            assert order == jq.PGL_INFINITE
            seen["generic"] += 1
        assert jq.leminv_check(u).conclusion_holds
    assert min(seen.values()) >= 40


def test_c5_hyperelliptic_fixation():
    start = time.monotonic()
    rng = random.Random(65537)

    # the minor-divisibility certificate, 100 random elements across three h's
    for i in range(100):
        h = (H4, H6, H8)[i % 3]
        u = rand_jonq(rng, h)
        assert fixes_curve_pointwise(jq.to_cremona(u), jq.hyperelliptic_curve_poly(h))

    # exact pointwise fixation of the induced plane maps, 20 elements
    # (degrees capped by taking small numerators/denominators)
    for i in range(20):
        h = (H4, H6)[i % 2]
        u = rand_jonq(rng, h, max_deg=1)
        curve = jq.hyperelliptic_curve_poly(h)
        assert fixes_curve_pointwise(jq.to_cremona(u), curve)

    assert time.monotonic() - start < 30.0


def test_c6_involution_suite():
    rng = random.Random(4242)
    line = TriHomPoly.monomial((1, 0, 0))

    pairs = []
    while len(pairs) < 10:
        mu = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        nu = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        if (mu, nu) != (0, 0):
            pairs.append((mu, nu))
    for mu, nu in pairs:
        phi = make_phi(mu, nu)
        assert is_identity(compose(phi, phi))
        assert fixes_curve_pointwise(phi, line)

    # a concrete non-commuting pair from the two families fixing the line
    g = make_linear_G(2, 1, 3)
    ginv = make_linear_G(Fraction(1, 2), Fraction(-1, 2), Fraction(-3, 2))
    t = UniPoly.variable()
    h = make_H_element(RatFunc(t), RatFunc.of(1))
    hinv = make_H_element(RatFunc(-t), RatFunc.of(1))
    assert is_identity(compose(g, ginv)) and is_identity(compose(h, hinv))
    assert compose(g, h) != compose(h, g)
    commutator = compose(compose(g, h), compose(ginv, hinv))
    assert not is_identity(commutator)
    assert fixes_curve_pointwise(commutator, line)


def test_c7_pencil_lemma_arithmetic():
    types = enumerate_pencil_types(6)
    assert types[0] == PencilType(1, (1,))
    for p in types:
        report = check_rational_pencil(p.degree, p.mults)
        assert report.valid
        assert report.genus_residual == 0
        assert report.pencil_residual == 0
        assert report.linear_residual == 0
        total = sum(p.mults)
        for assigned in range(total + 1):
            assert sextic_free_intersection_bound(p, (assigned,)) >= 4
    assert sextic_free_intersection_bound(PencilType(1, (1,)), (1,)) == 4


def test_c8_removal_confluence_100_systems_50_orders():
    rng = random.Random(314159)
    for case in range(100):
        L = rand_usable_system(rng)
        expected = remove_fixed_components(L)
        for k in range(50):
            shuffled = remove_fixed_components_random_order(
                L, random.Random(10_000 * case + k)
            )
            assert shuffled == expected
