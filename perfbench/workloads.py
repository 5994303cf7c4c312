"""Seeded request lists for the three workloads.

Every workload is a fixed schedule of request templates, repeated in
blocks; the seed only draws the small parameters of each template and
the order of the requests within a block.
That keeps the cost of one pass nearly the same from seed to seed while
the inputs differ.  The inputs are built with the benchmark's own exact
helpers, so they do not depend on the code under test.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import exact as ex
from checks import genus, vdim

# The curve x = 0, fixed pointwise by every generator of compose_words.
LINE_X0 = [[[1, 0, 0], "1"]]


@dataclass
class Request:
    """One CLI call.  ``payload`` is the --inline JSON (None when the call
    takes none); a request with ``pipe`` set builds its payload from the
    stdout of the request just before it."""

    kind: str
    argv: List[str]
    payload: Optional[str] = None
    meta: Dict = field(default_factory=dict)
    pipe: Optional[Callable[[str], str]] = None

    def command(self, previous_stdout: str) -> List[str]:
        if self.pipe is not None:
            return self.argv + ["--inline", self.pipe(previous_stdout)]
        if self.payload is not None:
            return self.argv + ["--inline", self.payload]
        return list(self.argv)

    def identity(self) -> list:
        """What the generator decided for this request, for the input digest."""
        return [self.kind, self.argv, self.payload, "piped" if self.pipe else None]


def inputs_sha256(requests: Sequence[Request]) -> str:
    text = json.dumps([r.identity() for r in requests], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _nonzero(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        v = rng.randint(lo, hi)
        if v:
            return v


def _point(rng: random.Random) -> List[Fraction]:
    return [Fraction(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(3)]


# -- compose_words ------------------------------------------------------------
#
# Generators, as raw triples (the program removes content on input):
#   G(a, b, c)      = (a x : y + b x : z + c x)
#   P(mu, nu)       = (-x l : y (x + l) : z (x + l)),  l = mu y + nu z
#   H(alpha, beta)  = (x z^m : y den : z den),  den = x A + B, the map
#                     (x, y) -> (x / (alpha(y) x + beta(y)), y) for
#                     polynomial alpha, beta homogenised in (y, z).
# All of them fix the line x = 0 pointwise.


def _small(rng: random.Random) -> int:
    return rng.choice((1, 2)) * rng.choice((1, -1))


def _gen_G(rng):
    return ("G", (_small(rng), _small(rng), _small(rng)))


def _gen_P(rng):
    return ("P", (_small(rng), _small(rng)))


def _gen_H3(rng):
    return ("H", ((_small(rng), _small(rng)), (_small(rng),)))


def _gen_H4(rng):
    return ("H", ((_small(rng), _small(rng), _small(rng)), (_small(rng), _small(rng))))


def _triple(gen) -> List[ex.Tri]:
    kind, params = gen
    if kind == "G":
        a, b, c = (Fraction(v) for v in params)
        return [
            ex.tri_scale(ex.X, a),
            ex.tri_add(ex.Y, ex.tri_scale(ex.X, b)),
            ex.tri_add(ex.Z, ex.tri_scale(ex.X, c)),
        ]
    if kind == "P":
        mu, nu = params
        l = ex.tri_add(ex.tri_scale(ex.Y, mu), ex.tri_scale(ex.Z, nu))
        m = ex.tri_add(ex.X, l)
        return [ex.tri_scale(ex.tri_mul(ex.X, l), -1), ex.tri_mul(ex.Y, m), ex.tri_mul(ex.Z, m)]
    alpha, beta = params
    m = max(1, len(beta) - 1, len(alpha))
    den = ex.tri_add(
        ex.tri_mul(ex.X, ex.uni_homogenize(alpha, 1, 2, m - 1)),
        ex.uni_homogenize(beta, 1, 2, m),
    )
    return [{(1, 0, m): Fraction(1)}, ex.tri_mul(ex.Y, den), ex.tri_mul(ex.Z, den)]


def _inverse(gen):
    kind, params = gen
    if kind == "G":
        a, b, c = (Fraction(v) for v in params)
        return ("G", (1 / a, -b / a, -c / a))
    if kind == "P":
        return gen
    alpha, (b0,) = params  # only constant beta is inverted
    return ("H", (tuple(Fraction(-a, b0) for a in alpha), (Fraction(1, b0),)))


def _word(gens) -> List[ex.Tri]:
    """gens[0] o gens[1] o ... as a raw triple."""
    comps = _triple(gens[-1])
    for gen in reversed(gens[:-1]):
        comps = [ex.tri_substitute(f, comps) for f in _triple(gen)]
    return comps


_SHAPES = {
    "GP": (_gen_G, _gen_P),
    "PG": (_gen_P, _gen_G),
    "GPG": (_gen_G, _gen_P, _gen_G),
    "PGP": (_gen_P, _gen_G, _gen_P),
    "H3": (_gen_H3,),
    "GH3": (_gen_G, _gen_H3),
    "H3G": (_gen_H3, _gen_G),
    "PH3": (_gen_P, _gen_H3),
    "GH4": (_gen_G, _gen_H4),
}

# (outer shape, inner shape, copies per block, degree of the composite).
# "inv" pairs a word with its inverse, so the composite collapses to the
# identity.  Parameters are redrawn until the composite has the listed
# degree, the one most draws give, so every seed runs the same mix of
# degrees.  On the first rows a request takes about 2-50 ms, on the
# last two 0.2-0.4 s, nearly all of it in the content GCD and in
# substitution.  The copies put about 70% of the requests below 25 ms
# and the p90 among the GH4*GH4 composites, so that the median and p90
# fall inside runs of similar requests rather than in a gap between
# cheap and costly ones.
COMPOSE_TEMPLATES: Tuple[Tuple[str, str, int, int], ...] = (
    ("GPG", "GH4", 7, 8),
    ("PGP", "H3", 2, 8),
    ("H3G", "GP", 5, 6),
    ("PG", "GH4", 7, 8),
    ("GP", "inv", 7, 1),
    ("GH3", "inv", 5, 1),
    ("PGP", "GP", 2, 8),
    ("GP", "PGP", 2, 6),
    ("GH4", "GP", 2, 8),
    ("GH4", "GH4", 5, 14),
    ("PGP", "GH3", 1, 12),
    ("PGP", "PH3", 1, 10),
    ("GH3", "PGP", 1, 8),
    ("PGP", "GH4", 3, 16),
    ("PGP", "inv", 1, 1),
)
# Degree of each word PGP once its content is removed, for most draws.
PGP_DEGREE = 4
IDENTITY = [ex.X, ex.Y, ex.Z]


def _compose_unit(rng: random.Random, outer_shape: str, inner_shape: str, degree: int):
    lines = [(_point(rng), _point(rng)) for _ in range(2)]
    while True:
        outer_gens = [g(rng) for g in _SHAPES[outer_shape]]
        if inner_shape == "inv":
            inner_gens = [_inverse(g) for g in reversed(outer_gens)]
        else:
            inner_gens = [g(rng) for g in _SHAPES[inner_shape]]
        outer, inner = _word(outer_gens), _word(inner_gens)
        words = [(s, w) for s, w in ((outer_shape, outer), (inner_shape, inner)) if s == "PGP"]
        if any(ex.composite_degree(w, IDENTITY, lines) != PGP_DEGREE for _, w in words):
            continue
        if ex.composite_degree(outer, inner, lines) == degree:
            return outer, inner


def compose_words(rng: random.Random, blocks: int) -> List[Request]:
    requests = []
    for _ in range(blocks):
        units = []
        for outer_shape, inner_shape, copies, degree in COMPOSE_TEMPLATES:
            for _ in range(copies):
                outer, inner = _compose_unit(rng, outer_shape, inner_shape, degree)
                outer_map, inner_map = ex.map_to_json(outer), ex.map_to_json(inner)
                meta = {
                    "template": f"{outer_shape}*{inner_shape}",
                    "outer": outer_map,
                    "inner": inner_map,
                    "degree": degree,
                    "identity": inner_shape == "inv",
                    "points": [_point(rng) for _ in range(3)],
                }
                payload = json.dumps({"outer": outer_map, "inner": inner_map}, sort_keys=True)
                units.append([
                    Request("map-compose", ["map-compose"], payload, meta),
                    Request("map-fixcheck", ["map-fixcheck"], meta={"compose": meta},
                            pipe=_fixcheck_payload),
                ])
        rng.shuffle(units)
        requests.extend(r for unit in units for r in unit)
    return requests


def _fixcheck_payload(compose_stdout: str) -> str:
    return '{"curve": %s, "map": %s}' % (json.dumps(LINE_X0), compose_stdout.strip() or "null")


# -- adjoint_chains -----------------------------------------------------------


def _chain_shape(d: int, ms: Sequence[int]) -> Optional[Tuple[int, int]]:
    """(steps, Bezout rules fired) of the adjoint chain of (d; ms), or None
    if removal would drive the degree negative.  Rules are applied to the
    largest multiplicities; whether any rule fires at all does not depend
    on that order, the count of firings may."""
    n, cur = d, list(ms)
    steps = fired = 0
    while genus(n, cur) > 1:
        n, cur = n - 3, sorted((m - 1 for m in cur if m > 1), reverse=True)
        steps += 1
        while True:
            if len(cur) >= 2 and cur[0] + cur[1] > n:
                n, hit = n - 1, 2
            elif len(cur) >= 5 and sum(cur[:5]) > 2 * n:
                n, hit = n - 2, 5
            else:
                break
            cur = sorted([m - 1 for m in cur[:hit]] + cur[hit:], reverse=True)
            cur = [m for m in cur if m > 0]
            fired += 1
        if n < 0:
            return None
        if vdim(n, cur) <= 0:
            break
        c = math.gcd(n, *cur)
        if c >= 2:
            p, pm = n // c, [m // c for m in cur]
            if genus(p, pm) == 0 and vdim(p, pm) == 1 and p * p == sum(m * m for m in pm):
                break
    return steps, fired


# (points, degree, planted rule) per system; every block holds the same
# systems up to the seed's multiplicities.  A planted pair sums to d, or
# five points sum to 2d, so the rule fires on the first adjoint; the
# other systems never fire and only scan.
ADJOINT_SYSTEMS: Tuple[Tuple[int, int, Optional[str]], ...] = (
    (12, 45, "line"),
    (12, 45, None),
    (14, 55, "conic"),
    (14, 55, None),
    (16, 65, "line"),
    (16, 65, None),
    (18, 75, "conic"),
    (18, 75, None),
    (20, 80, "line"),
    (20, 80, None),
    (24, 100, "conic"),
    (24, 100, None),
    (32, 44, None),
)
PENCIL_ENUM_MAX = (14, 15, 16)


def _curve_payload(d: int, ms: Sequence[int]) -> str:
    sings = [{"label": f"p{i:02d}", "mult": m, "coords": None} for i, m in enumerate(ms)]
    return json.dumps({"degree": d, "poly": None, "singularities": sings}, sort_keys=True)


def _plant(rng: random.Random, d: int, free: List[int], plant: Optional[str]) -> List[int]:
    if plant == "line":
        a = rng.randint(d // 3, d // 2)
        free = free[2:] + [a, d - a]
    elif plant == "conic":
        five = [(2 * d) // 5] * 5
        for i in range(2 * d - sum(five)):
            five[i] += 1
        free = free[5:] + five
    ms = list(free)
    rng.shuffle(ms)
    return ms


def _system(rng: random.Random, k: int, d: int, plant: Optional[str]) -> List[int]:
    """Multiplicities for one system of the schedule.

    A reference system, the same for every seed, fixes the free
    multiplicities; the seed moves a few units between points, plants the
    rule and shuffles the labels.  Draws are kept only when the chain has
    the reference's number of steps and of rule firings, so seeds differ
    in their inputs but hardly in the work they ask for.
    """
    ref = random.Random(f"adjoint-reference:{k}:{d}:{plant}")
    top = max(3, int(d / math.sqrt(k)))
    while True:
        free = [ref.randint(2, top) for _ in range(k)]
        ms = _plant(ref, d, free, plant)
        target = _chain_shape(d, ms) if genus(d, ms) > 1 else None
        if target and (target[1] > 0) == (plant is not None):
            break
    while True:
        moved = list(free)
        for _ in range(3):
            i, j = rng.sample(range(k), 2)
            if moved[j] > 2:
                moved[i] += 1
                moved[j] -= 1
        ms = _plant(rng, d, moved, plant)
        if genus(d, ms) > 1 and _chain_shape(d, ms) == target:
            return ms


# Classical landmarks: (degree, multiplicities, class).
def _landmarks(rng: random.Random) -> List[Tuple[int, List[int], str]]:
    g = rng.randint(2, 9)
    return [
        (g + 2, [g], "RationalPencil"),
        (6, [2] * 7, "EllipticNet"),
        (9, [3] * 8, "EllipticPencil"),
    ]


def adjoint_chains(rng: random.Random, blocks: int) -> List[Request]:
    requests = []
    for _ in range(blocks):
        units = []
        systems = [(d, _system(rng, k, d, plant), plant is not None, None)
                   for k, d, plant in ADJOINT_SYSTEMS]
        systems += [(d, ms, None, cls) for d, ms, cls in _landmarks(rng)]
        for d, ms, planted, cls in systems:
            payload = _curve_payload(d, ms)
            meta = {"degree": d, "mults": ms, "planted": planted, "landmark": cls}
            units.append(Request("adjoint-chain", ["adjoint-chain"], payload, meta))
            units.append(Request("classify", ["classify"], payload, meta))
        for top in PENCIL_ENUM_MAX:
            argv = ["pencil-enum", "--max", str(top), "--bound", str(top)]
            units.append(Request("pencil-enum", argv, meta={"max": top}))
        rng.shuffle(units)
        requests.extend(units)
    return requests


# -- function_field -----------------------------------------------------------


def _squarefree(coeffs: Sequence[int]) -> bool:
    """gcd(h, h') = 1 modulo P, which implies it over Q."""
    p = [c % ex.P for c in coeffs]
    dp = [e * c % ex.P for e, c in enumerate(p)][1:]
    return ex.uni_gcd_degree([p, dp]) == 0


def _random_h(rng: random.Random, degree: int) -> List[int]:
    while True:
        h = [rng.randint(-3, 3) for _ in range(degree)] + [_nonzero(rng, -3, 3)]
        if _squarefree(h):
            return h


def _random_a(rng: random.Random, degree: int) -> List[int]:
    return [rng.randint(-2, 2) for _ in range(degree)] + [_small(rng)]


def _uni_json(coeffs: Sequence) -> list:
    return [[[e], str(Fraction(c))] for e, c in enumerate(coeffs) if c]


def _element(h, a1, a2) -> dict:
    one = [[[0], "1"]]
    return {
        "h": _uni_json(h),
        "a1": {"num": _uni_json(a1), "den": one},
        "a2": {"num": _uni_json(a2), "den": one},
    }


def _int_mul(p: Sequence[int], q: Sequence[int]) -> List[int]:
    out = [0] * (len(p) + len(q) - 1) if p and q else []
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _int_add(p: Sequence[int], q: Sequence[int]) -> List[int]:
    out = [0] * max(len(p), len(q))
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    while out and out[-1] == 0:
        out.pop()
    return out


def _product(h, u, v):
    """(u1 v1 + h u2 v2, u1 v2 + u2 v1) for integer polynomial entries."""
    a1 = _int_add(_int_mul(u[0], v[0]), _int_mul(h, _int_mul(u[1], v[1])))
    a2 = _int_add(_int_mul(u[0], v[1]), _int_mul(u[1], v[0]))
    return a1, a2


def _det_nonzero(h, a1, a2) -> bool:
    return bool(_int_add(_int_mul(a1, a1), [-c for c in _int_mul(h, _int_mul(a2, a2))]))


def _map_degree(h, a1, a2, lines) -> int:
    """Degree of the plane map (x, y) -> (x, (a1 y + h a2) / (a2 y + a1)) in
    coprime form, for polynomial a1, a2."""
    h_a2 = _int_mul(h, a2)
    deg = max(1, len(a1), len(h_a2) - 1, len(a2))
    num = ex.tri_add(ex.tri_mul(ex.Y, ex.uni_homogenize(a1, 0, 2, deg - 1)), ex.uni_homogenize(h_a2, 0, 2, deg))
    den = ex.tri_add(ex.tri_mul(ex.Y, ex.uni_homogenize(a2, 0, 2, deg - 1)), ex.uni_homogenize(a1, 0, 2, deg))
    comps = [ex.tri_mul(ex.X, den), ex.tri_mul(ex.Z, num), ex.tri_mul(ex.Z, den)]
    return ex.composite_degree(comps, IDENTITY, lines)


# Per block, for h of degree 4, 6 and 8 (genus 1, 2, 3): elements u with
# (deg a1, deg a2) = (1, 0) and v with (1, 1), their product, an element
# with a1 = 0 or a2 = 0, and the plane model of y^2 = h(x).  Products are
# redrawn until their plane map has degree deg h + 2, the degree most
# draws give, because the cost of jonq-fix-check follows that degree.
FIELD_DEGREES = (4, 6, 8)


def function_field(rng: random.Random, blocks: int) -> List[Request]:
    requests = []
    lines = [(_point(rng), _point(rng)) for _ in range(2)]
    for _ in range(blocks):
        units = []
        for deg in FIELD_DEGREES:
            h = _random_h(rng, deg)
            while True:
                u = (_random_a(rng, 1), _random_a(rng, 0))
                v = (_random_a(rng, 1), _random_a(rng, 1))
                uv = _product(h, u, v)
                if _det_nonzero(h, *uv) and _map_degree(h, *uv, lines) == deg + 2:
                    break
            # a2 = 0 is projectively the identity, a1 = 0 the involution.
            special = (_random_a(rng, 1), [0]) if deg == 6 else ([0], _random_a(rng, 1))
            points = [Fraction(rng.randint(-20, 20), rng.randint(1, 5)) for _ in range(3)]
            mul = json.dumps({"u": _element(h, *u), "v": _element(h, *v)}, sort_keys=True)
            units.append(Request("jonq-mul", ["jonq-mul"], mul,
                                 {"h": h, "u": u, "v": v, "points": points}))
            for a1, a2 in (uv, special):
                meta = {"a1_zero": not any(a1), "a2_zero": not any(a2)}
                payload = json.dumps(_element(h, a1, a2), sort_keys=True)
                units.append(Request("jonq-order", ["jonq-order"], payload, meta))
            for a1, a2 in (u, uv):
                payload = json.dumps(_element(h, a1, a2), sort_keys=True)
                meta = {"map_degree": _map_degree(h, a1, a2, lines)}
                units.append(Request("jonq-fix-check", ["jonq-fix-check"], payload, meta))
            g = (deg - 2) // 2
            # y^2 z^(2g) - H(x, z); (0:1:0) is a point of multiplicity 2g.
            curve = ex.tri_add({(0, 2, deg - 2): Fraction(1)}, ex.tri_scale(ex.uni_homogenize(h, 0, 2, deg), -1))
            sing = [{"label": "inf", "mult": 2 * g, "coords": ["0", "1", "0"]}]
            payload = json.dumps(
                {"degree": deg, "poly": ex.tri_to_json(curve), "singularities": sing}, sort_keys=True
            )
            units.append(Request("validate", ["validate"], payload, {"label": "inf"}))
        rng.shuffle(units)
        requests.extend(units)
    return requests


GENERATORS: Dict[str, Callable[[random.Random, int], List[Request]]] = {
    "compose_words": compose_words,
    "adjoint_chains": adjoint_chains,
    "function_field": function_field,
}


def generate(workload: str, seed: int, blocks: int) -> List[Request]:
    rng = random.Random(f"{workload}:{seed}")
    return GENERATORS[workload](rng, blocks)
