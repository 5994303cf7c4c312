"""Built-in reproduction corpus.

Each entry rebuilds one of the package's flagship constructions end to
end and checks the expected outcome, so a single command exercises the
whole stack: adjoint chains on the classical curve models, the quadratic
involutions and the linear family on a fixed line, the function-field
group with its order classification, and the rational-pencil arithmetic.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, List, Tuple

from . import jonquieres as jq
from ._record import Record
from .cremona_maps import (
    compose,
    fixes_curve_pointwise,
    free_intersection,
    is_identity,
    make_H_element,
    make_linear_G,
    make_phi,
)
from .curve_model import curve_from_mults, multiplicity_at, validate
from .curve_model import PlaneCurveModel, PointSpec, SingularityData
from .exact_algebra import RatFunc, TriHomPoly, UniPoly
from .linear_systems import (
    Classification,
    LinSysData,
    adjoint_chain,
    member_genus,
    virtual_dim,
)
from .rational_pencils import (
    PencilType,
    check_rational_pencil,
    enumerate_pencil_types,
    sextic_free_intersection_bound,
)


class EntryResult(Record):
    __slots__ = ("name", "description", "passed", "details")
    _defaults = ((),)


class _Checker:
    def __init__(self) -> None:
        self.failures: List[str] = []

    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            self.failures.append(message)


_ENTRIES: List[Tuple[str, str, Callable[[_Checker], None]]] = []


def _entry(name: str, description: str):
    def register(fn: Callable[[_Checker], None]):
        _ENTRIES.append((name, description, fn))
        return fn

    return register


@_entry(
    "hyperelliptic-model-chains",
    "A degree-(g+2) curve with one ordinary g-fold point has adjoint chain "
    "(g-1; g-1) = (g-1) copies of the pencil of lines through the point, "
    "for g = 2..6.",
)
def _hyperelliptic_chains(c: _Checker) -> None:
    for g in range(2, 7):
        model = curve_from_mults(g + 2, [g])
        report = adjoint_chain(model)
        c.expect(
            report.classification is Classification.RATIONAL_PENCIL,
            f"g={g}: expected a rational pencil, got {report.classification.value}",
        )
        c.expect(len(report.steps) == 1, f"g={g}: expected a single step")
        c.expect(
            report.terminal == LinSysData.of(1, {"p0": 1}),
            f"g={g}: terminal {report.terminal} is not the pencil of lines",
        )
        pr = report.steps[0].pencil_reduction
        if g == 2:
            c.expect(pr is None, "g=2: the adjoint is already the pencil")
        else:
            c.expect(
                pr is not None and pr.content == g - 1,
                f"g={g}: expected pencil content {g - 1}",
            )


@_entry(
    "two-triple-point-sextic",
    "For a sextic with two ordinary triple points, the cubics doubly "
    "through both points acquire the connecting line as a fixed component; "
    "removing it leaves the conics through the two points.",
)
def _two_triple_points(c: _Checker) -> None:
    model = curve_from_mults(6, [3, 3])
    report = adjoint_chain(model)
    step = report.steps[0]
    c.expect(
        step.raw_adjoint == LinSysData.of(3, {"p0": 2, "p1": 2}),
        f"raw adjoint is {step.raw_adjoint}",
    )
    c.expect(
        len(step.removed_fixed) == 1
        and step.removed_fixed[0].kind == "line"
        and step.removed_fixed[0].labels == ("p0", "p1")
        and step.removed_fixed[0].count == 1,
        "expected exactly one removed line through the two triple points",
    )
    c.expect(
        report.terminal == LinSysData.of(2, {"p0": 1, "p1": 1}),
        f"terminal {report.terminal} is not the conics through the two points",
    )
    # The same numerics carry a concrete curve: perturbing the six lines
    # x y (x^2 - z^2)(y^2 - z^2) by z^6 keeps ordinary triple points at
    # (1:0:0) and (0:1:0) while destroying the product structure.
    poly = TriHomPoly.of(
        {(3, 3, 0): 1, (3, 1, 2): -1, (1, 3, 2): -1, (1, 1, 4): 1, (0, 0, 6): 1}
    )
    explicit = PlaneCurveModel(
        6,
        (
            SingularityData(PointSpec("p0", (Fraction(1), Fraction(0), Fraction(0))), 3),
            SingularityData(PointSpec("p1", (Fraction(0), Fraction(1), Fraction(0))), 3),
        ),
        poly,
    )
    c.expect(validate(explicit).passed, "explicit sextic failed validation")
    c.expect(
        multiplicity_at(poly, (0, 0, 1)) == 0,
        "the explicit sextic should not pass through (0:0:1)",
    )


@_entry(
    "seven-node-sextic",
    "A sextic with seven ordinary double points has the net of cubics "
    "through the seven points as its adjoint (genus 1, dimension 2), and a "
    "general cubic of the net meets the sextic in 4 points off the nodes.",
)
def _seven_node_sextic(c: _Checker) -> None:
    model = curve_from_mults(6, [2] * 7)
    report = adjoint_chain(model)
    cubics = LinSysData.of(3, {f"p{i}": 1 for i in range(7)})
    c.expect(report.terminal == cubics, f"terminal {report.terminal}")
    c.expect(
        report.classification is Classification.ELLIPTIC_NET,
        f"classification {report.classification.value}",
    )
    c.expect(member_genus(cubics) == 1 and virtual_dim(cubics) == 2, "net numerics")
    sextic = LinSysData.of(6, {f"p{i}": 2 for i in range(7)})
    c.expect(
        free_intersection(cubics, sextic) == 4,
        "free intersection of the net with the sextic should be 4",
    )


@_entry(
    "eight-triple-point-nonic",
    "A nonic with eight ordinary triple points needs two adjoint steps: "
    "sextics doubly through the eight points, then the pencil of cubics "
    "through them (genus 1, dimension 1).",
)
def _eight_triple_point_nonic(c: _Checker) -> None:
    model = curve_from_mults(9, [3] * 8)
    report = adjoint_chain(model)
    c.expect(len(report.steps) == 2, f"expected 2 steps, got {len(report.steps)}")
    c.expect(
        report.steps[0].output == LinSysData.of(6, {f"p{i}": 2 for i in range(8)}),
        f"first step output {report.steps[0].output}",
    )
    c.expect(
        report.terminal == LinSysData.of(3, {f"p{i}": 1 for i in range(8)}),
        f"terminal {report.terminal}",
    )
    c.expect(
        report.classification is Classification.ELLIPTIC_PENCIL,
        f"classification {report.classification.value}",
    )


@_entry(
    "function-field-torus",
    "Elements (a1, a2) over squarefree h of degree 6: the group is "
    "commutative, every element fixes y^2 = h(x) pointwise (by minor divisibility), "
    "and projective orders only take the values 1, 2 and infinity.",
)
def _function_field_torus(c: _Checker) -> None:
    h = UniPoly.of(1, 1, 0, 0, 0, 0, 1)  # x^6 + x + 1, squarefree
    rng = random.Random(2026_08_09)

    def rand_ratfunc() -> RatFunc:
        num = UniPoly(tuple(Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))))
        den = UniPoly()
        while den.is_zero:
            den = UniPoly(tuple(Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))))
        return RatFunc(num, den)

    elements = [jq.JonqElement.of(h, 0, 1), jq.JonqElement.of(h, 5, 0)]
    while len(elements) < 20:
        a1, a2 = rand_ratfunc(), rand_ratfunc()
        if a1.is_zero and a2.is_zero:
            continue
        elements.append(jq.JonqElement(a1, a2, h))
    elements.append(jq.JonqElement.of(h, UniPoly.variable(), 1))

    curve = jq.hyperelliptic_curve_poly(h)
    for i, u in enumerate(elements):
        c.expect(
            fixes_curve_pointwise(jq.to_cremona(u), curve),
            f"element {i}: induced map must fix the hyperelliptic curve pointwise",
        )
        order = jq.leminv_check(u).order
        c.expect(
            order in (1, 2, jq.PGL_INFINITE),
            f"element {i} has unexpected order {order}",
        )
        if u.a1.is_zero:
            c.expect(order == 2, f"element {i}: a1 = 0 must be an involution")
        elif u.a2.is_zero:
            c.expect(order == 1, f"element {i}: a2 = 0 must be scalar")
        else:
            c.expect(order == jq.PGL_INFINITE, f"element {i} should have infinite order")

    u, v = elements[2], elements[3]
    c.expect(jq.mul(u, v) == jq.mul(v, u), "the group must be commutative")


@_entry(
    "quadratic-involutions",
    "The quadratic maps (-x(mu y + nu z) : y(x + mu y + nu z) : "
    "z(x + mu y + nu z)) are involutions and fix the line x = 0 pointwise.",
)
def _quadratic_involutions(c: _Checker) -> None:
    rng = random.Random(41)
    line = TriHomPoly.monomial((1, 0, 0))
    pairs = [(1, 0), (0, 1), (1, 1)]
    while len(pairs) < 8:
        mu, nu = rng.randint(-4, 4), rng.randint(-4, 4)
        if (mu, nu) != (0, 0):
            pairs.append((mu, nu))
    for mu, nu in pairs:
        phi = make_phi(mu, nu)
        c.expect(phi.degree == 2, f"phi({mu},{nu}) must be quadratic")
        c.expect(
            is_identity(compose(phi, phi)),
            f"phi({mu},{nu}) composed with itself is not the identity",
        )
        c.expect(
            fixes_curve_pointwise(phi, line),
            f"phi({mu},{nu}) must fix the line x = 0 pointwise",
        )


@_entry(
    "fixed-line-linear-family",
    "The linear maps (a x : y + b x : z + c x) fix the line x = 0, are "
    "closed under composition, and do not commute with the maps "
    "(x, y) -> (x/(alpha(y) x + beta(y)), y) fixing the same line.",
)
def _fixed_line_family(c: _Checker) -> None:
    line = TriHomPoly.monomial((1, 0, 0))
    g1 = make_linear_G(2, 1, 3)
    g2 = make_linear_G(Fraction(1, 2), -1, 0)
    c.expect(fixes_curve_pointwise(g1, line), "g1 must fix the line")
    c.expect(
        compose(g1, g2) == make_linear_G(1, Fraction(-1, 2), Fraction(3, 2)),
        "family must be closed",
    )
    c.expect(
        is_identity(compose(make_linear_G(1, 1, 1), make_linear_G(1, -1, -1))),
        "(1,1,1) and (1,-1,-1) must compose to the identity",
    )
    t = UniPoly.variable()
    hmap = make_H_element(RatFunc(t), RatFunc.of(1))
    c.expect(fixes_curve_pointwise(hmap, line), "the H-family map must fix the line")
    c.expect(
        compose(g1, hmap) != compose(hmap, g1),
        "the two families must give a non-commuting pair",
    )
    ginv = make_linear_G(Fraction(1, 2), Fraction(-1, 2), Fraction(-3, 2))
    hinv = make_H_element(RatFunc(-t), RatFunc.of(1))
    commutator = compose(compose(g1, hmap), compose(ginv, hinv))
    c.expect(
        not is_identity(commutator),
        "the commutator of the two families must not be the identity",
    )
    c.expect(
        fixes_curve_pointwise(commutator, line),
        "maps fixing the line pointwise form a group",
    )


@_entry(
    "rational-pencil-arithmetic",
    "Every numerical rational-pencil type of degree <= 6 satisfies both "
    "pencil equations and the linear relation 3n - sum(m) = 2, and meets a "
    "nodal sextic in at least 4 points away from the base points, with 4 "
    "attained by the lines through one node.",
)
def _pencil_arithmetic(c: _Checker) -> None:
    types = enumerate_pencil_types(6)
    c.expect(types[0] == PencilType(1, (1,)), "degree 1 must give the line pencil")
    c.expect(PencilType(2, (1, 1, 1, 1)) in types, "conics through 4 points missing")
    for p in types:
        rep = check_rational_pencil(p.degree, p.mults)
        c.expect(rep.valid, f"{p} fails the pencil equations")
        c.expect(rep.linear_residual == 0, f"{p} fails the linear relation")
        total = sum(p.mults)
        for assigned in range(total + 1):
            value = sextic_free_intersection_bound(p, (assigned,))
            c.expect(value >= 4, f"{p} with {assigned} assigned gives {value} < 4")
    c.expect(
        sextic_free_intersection_bound(PencilType(1, (1,)), (1,)) == 4,
        "lines through one node must attain the bound 4",
    )


def run_corpus() -> Tuple[EntryResult, ...]:
    results = []
    for name, description, fn in _ENTRIES:
        checker = _Checker()
        try:
            fn(checker)
            failures = tuple(checker.failures)
        except Exception as exc:  # a crash is a failure, not an abort
            failures = tuple(checker.failures) + (f"raised {type(exc).__name__}: {exc}",)
        results.append(EntryResult(name, description, not failures, failures))
    return tuple(results)


def corpus_passed(results: Tuple[EntryResult, ...]) -> bool:
    return all(r.passed for r in results)
