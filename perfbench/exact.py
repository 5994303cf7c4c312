"""Small exact-arithmetic helpers owned by the benchmark.

The generator builds its inputs with these helpers and the checker
verifies outputs with them, so neither depends on the code under test.
Homogeneous trivariate polynomials are dicts {(i, j, k): Fraction};
univariate polynomials are lists of coefficients, ascending exponents.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

Tri = Dict[Tuple[int, int, int], Fraction]

X: Tri = {(1, 0, 0): Fraction(1)}
Y: Tri = {(0, 1, 0): Fraction(1)}
Z: Tri = {(0, 0, 1): Fraction(1)}


# -- trivariate ---------------------------------------------------------------


def tri_add(*polys: Tri) -> Tri:
    out: Tri = {}
    for p in polys:
        for e, c in p.items():
            out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c != 0}


def tri_scale(p: Tri, s) -> Tri:
    s = Fraction(s)
    return {e: c * s for e, c in p.items()} if s != 0 else {}


def tri_mul(p: Tri, q: Tri) -> Tri:
    out: Tri = {}
    for (a, b, c), u in p.items():
        for (d, e, f), v in q.items():
            key = (a + d, b + e, c + f)
            out[key] = out.get(key, Fraction(0)) + u * v
    return {e: c for e, c in out.items() if c != 0}


def tri_degree(p: Tri) -> int:
    return sum(next(iter(p))) if p else -1


def tri_substitute(p: Tri, images: Sequence[Tri]) -> Tri:
    """p(g0, g1, g2), expanded; no content is removed."""
    powers: List[Dict[int, Tri]] = [{0: {(0, 0, 0): Fraction(1)}} for _ in range(3)]

    def power(axis: int, n: int) -> Tri:
        cache = powers[axis]
        if n not in cache:
            cache[n] = tri_mul(power(axis, n - 1), images[axis])
        return cache[n]

    out: Tri = {}
    for (i, j, k), c in p.items():
        term = tri_mul(tri_mul(power(0, i), power(1, j)), power(2, k))
        for e, v in term.items():
            out[e] = out.get(e, Fraction(0)) + c * v
    return {e: c for e, c in out.items() if c != 0}


def tri_eval(p: Tri, pt: Sequence[Fraction]) -> Fraction:
    a, b, c = pt
    return sum((v * a**i * b**j * c**k for (i, j, k), v in p.items()), Fraction(0))


def uni_homogenize(coeffs: Sequence, main: int, aux: int, degree: int) -> Tri:
    """sum c_e t^e -> sum c_e main^e aux^(degree - e)."""
    out: Tri = {}
    for e, c in enumerate(coeffs):
        if c:
            exps = [0, 0, 0]
            exps[main] = e
            exps[aux] = degree - e
            out[tuple(exps)] = Fraction(c)
    return out


def tri_to_json(p: Tri) -> list:
    return [[list(e), str(c)] for e, c in sorted(p.items(), reverse=True)]


def tri_from_json(items) -> Tri:
    out: Tri = {}
    for exps, c in items:
        out[tuple(exps)] = Fraction(c)
    return out


def map_to_json(comps: Sequence[Tri]) -> dict:
    deg = max(tri_degree(c) for c in comps)
    return {"deg": deg, "components": [tri_to_json(c) for c in comps]}


def map_from_json(obj: dict) -> List[Tri]:
    return [tri_from_json(c) for c in obj["components"]]


def map_eval(comps: Sequence[Tri], pt: Sequence[Fraction]) -> Tuple[Fraction, ...]:
    return tuple(tri_eval(c, pt) for c in comps)


def proportional(u: Sequence[Fraction], v: Sequence[Fraction]) -> bool:
    return (
        u[0] * v[1] == u[1] * v[0]
        and u[0] * v[2] == u[2] * v[0]
        and u[1] * v[2] == u[2] * v[1]
    )


# -- univariate, modulo a large prime ------------------------------------------
#
# Degrees of composites and gcds are computed on restrictions to lines
# with coefficients reduced modulo P.  A degree found this way is the
# degree over Q unless the prime or the line is special, which for a
# 61-bit prime and random lines does not happen in practice.

P = (1 << 61) - 1
Uni = List[int]


def mod_p(c) -> int:
    c = Fraction(c)
    return c.numerator % P * pow(c.denominator, P - 2, P) % P


def uni_trim(p: Uni) -> Uni:
    while p and p[-1] == 0:
        p.pop()
    return p


def uni_add(p: Uni, q: Uni) -> Uni:
    out = [0] * max(len(p), len(q))
    for i, c in enumerate(p):
        out[i] = c
    for i, c in enumerate(q):
        out[i] = (out[i] + c) % P
    return uni_trim(out)


def uni_mul(p: Uni, q: Uni) -> Uni:
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return uni_trim([c % P for c in out])


def uni_rem(p: Uni, q: Uni) -> Uni:
    r = list(p)
    inv = pow(q[-1], P - 2, P)
    while len(r) >= len(q):
        s = r[-1] * inv % P
        shift = len(r) - len(q)
        for i, c in enumerate(q):
            r[shift + i] = (r[shift + i] - s * c) % P
        r.pop()
        uni_trim(r)
    return r


def uni_gcd_degree(polys: Sequence[Uni]) -> int:
    """Degree of the gcd of nonzero polynomials (-1 if all are zero)."""
    g: Uni = []
    for p in polys:
        a, b = list(p), g
        while b:
            a, b = b, uni_rem(a, b)
        g = a
    return len(g) - 1


def uni_eval(p: Sequence, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + Fraction(c)
    return acc


def _substitute_univariate(p: Tri, images: Sequence[Uni]) -> Uni:
    deg = tri_degree(p)
    powers: List[List[Uni]] = [[[1]] for _ in range(3)]
    for axis in range(3):
        for _ in range(deg):
            powers[axis].append(uni_mul(powers[axis][-1], images[axis]))
    out: Uni = []
    for (i, j, k), c in p.items():
        term = uni_mul(uni_mul(powers[0][i], powers[1][j]), powers[2][k])
        out = uni_add(out, [mod_p(c) * v % P for v in term])
    return out


def composite_degree(outer: Sequence[Tri], inner: Sequence[Tri], lines) -> int:
    """Degree of the map outer o inner once the common content is removed.

    Along a general line the content of the raw composite is the gcd of
    its three restrictions, so the degree is the largest restricted
    degree minus the gcd degree; a special line can only give less, so
    the largest value over the lines is taken.
    """
    best = 0
    for base, direction in lines:
        line = [uni_trim([mod_p(b), mod_p(d)]) for b, d in zip(base, direction)]
        inner_t = [_substitute_univariate(g, line) for g in inner]
        comps = [c for c in (_substitute_univariate(f, inner_t) for f in outer) if c]
        if comps:
            best = max(best, max(len(c) for c in comps) - 1 - uni_gcd_degree(comps))
    return best
