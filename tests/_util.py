"""Shared helpers for the test suite: random generators, sympy bridges and
the reference fixed-component search.

sympy acts as the independent oracle for polynomial identities (gcd,
divisibility, expansion); the package itself never imports it.  The
Bezout-rule enumerator below is the oracle for the package's direct
first-rule search, the Fraction ``substitute_oracle`` the one for the
package's integer substitution, the Fraction Euclid ``uni_gcd_oracle``
the one for the modular ``uni_gcd``, and the recursive generator
``partitions_oracle``, the explicit-stack ``partitions_walk_oracle`` and
the explicit-stack ``partitions_stack_oracle`` with closed-form tails the
ones for the recursive pencil-type walk with closed-form tails,
``check_rational_pencil_oracle`` (the two closed residual formulas) the
one for ``check_rational_pencil``, which reads the numbers of a linear
system, and ``fixes_curve_pointwise_oracle`` (Fraction minors,
``tri_divrem``) the one for the integer fixation certificate.  ``multiplicity_at_oracle`` (the
partials at the point) and ``is_perfect_power_oracle`` (one gcd per
partial) are the ones for the substitution and the one content GCD per
level of ``curve_model``, ``pgl_order_oracle`` (the order of a matrix
given by its four entries) and ``order_oracle`` (the order from the trace,
determinant and scalarity) the ones for ``_order``, and
``leminv_check_oracle`` (lambda = trace^2 / det by ``RatFunc`` arithmetic)
the one for ``leminv_check``, which reads lambda in closed form.
The cofactor
oracles divide a second time by a GCD already computed, as the package
used to: ``primitive_parts_oracle`` (``tri_content_gcd``, then
``tri_divrem`` per component), ``uni_cofactors_oracle`` (``uni_gcd_oracle``,
then ``uni_divmod_oracle``) and ``common_denominator_oracle`` (a fold of
``uni_lcm_oracle``, then ``uni_divmod_oracle``), ``uni_divmod_oracle``
being the Fraction long division ``UniPoly`` had.
``poly_mul_oracle`` (``_bimul``, then ``_lex``) is the one for the key
shift that multiplies by a one-term factor.  ``pencil_decompose_oracle``,
which also tested the primitive part for dimension 1, is the one for
``pencil_decompose``, which reads a rational pencil off genus 0 and
self-intersection 0 alone, and ``render_text_oracle``, with a branch for a
scalar at the top, the one for ``cli._render_text``.
``uni_form_oracle`` and ``tri_form_oracle``, the integer forms that the
``UniPoly`` and ``TriHomPoly`` constructors computed each on their own, are
the oracles for the one builder ``_Poly._integer_form`` that the
constructors and the JSON decoders share, and ``homogenize_uni_oracle``,
with its aux axis and ``_lex`` sort, the one for ``homogenize_uni``.
``tri_gcd``, the content of two polynomials from ``_primitive_parts``, is
what the package's GCD of a pair was; the GCD tests and the fold oracles
call it.
``primitive_parts_fold_oracle``, the earlier fold of pairwise gcds with the
1/lead scaling of ``CremonaMap.of``, is the one for the one-gcd content of
three polynomials.
``DATACLASS_ORACLES`` holds the package's records as the frozen dataclasses
they were, the oracle for the ``__slots__`` records that replaced them;
``OldUniPoly`` and ``OldTriHomPoly`` also keep the earlier Fraction
arithmetic of ``UniPoly`` and ``TriHomPoly``, the oracle for their
arithmetic on the stored integer form.  ``encode_unipoly_oracle`` and
``encode_trihom_oracle``, which print the Fractions of the ``coeffs`` and
``terms`` views, are the oracles for the ``dumps`` writer of the
``UniPoly`` and ``TriHomPoly`` records, which prints the stored integer
form.  ``decode_unipoly_oracle`` and ``decode_trihom_oracle``, each
with its own fast test per term and its own namer of a failing term, are
the oracles for the one term reader that both decoders share.
``read_terms_oracle``, that reader as it was before it read each term in one
pass (a path and a ``_read_rational`` call per term), and ``read_form_oracle``,
it with the decoders' later passes (the degree set, the re-key and the sort
of ``_integer_form``), are the oracles for the one-pass ``_read_terms``.
``lines_oracle``, ``reduced_oracle``, ``coprime_lines_oracle`` and
``coprime_oracle``, route 1 of the GCD with the powers of the point built per
call and every line copied, are the oracles for the route 1 that keeps the
powers and reads the lines in place.
``as_obj_oracle``, ``as_list_oracle``, ``as_int_oracle``, ``as_str_oracle``
and ``get_oracle``, the four type guards and the field reader that
``serialization`` had, are the oracles for its one typed reader ``_as`` and
``_get``, and the decoder oracles check types through them.
``encode_pencil_type_oracle``, the dict that ``pencil-enum``
built for each pencil type, is the oracle for the template through which
``serialization.dumps`` writes a ``PencilType`` record.
``encode_linsys_oracle`` and the chain encoders built on it
(``encode_removed_oracle``, ``encode_chain_step_oracle`` and
``encode_chain_report_oracle``), which wrote each linear system, removed
component and step as a fresh dict, are the oracles for the chain reports
that hand ``dumps`` the ``LinSysData``, ``RemovedComponent`` and
``ChainStep`` records themselves.  ``adjoint_chain_oracle``, the earlier
chain of ``adjoint_step_oracle`` over ``remove_fixed_components_scan_oracle``
and ``first_rule_scan_oracle`` (the suffix data of every point built for
either kind of rule, every system built and summed afresh), is the oracle
for the chain of one lean step that carries its columns and sums.  ``plain_oracle`` replaces every record
of a payload by its oracle's plain JSON, and ``json_of`` reads back the
JSON that ``dumps`` writes of a payload.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import pickle
import random
import sys
from fractions import Fraction
from itertools import combinations
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import sympy
from hypothesis import strategies as st

from cremona_kit import exact_algebra
from cremona_kit import serialization as ser
from cremona_kit.cremona_maps import CremonaMap
from cremona_kit.curve_model import (
    CurveCheck,
    PlaneCurveModel,
    PointSpec,
    SingularityData,
    _structural_checks,
    curve_from_mults,
)
from cremona_kit.errors import AdjointDoesNotExist, DegenerateSystem, InvalidCurveData, InvalidElement
from cremona_kit.exact_algebra import (
    _P0,
    _POINT,
    TRI_X,
    TRI_Y,
    TRI_Z,
    RatFunc,
    TriHomPoly,
    UniPoly,
    _bimul,
    _frac,
    _lex,
    _primitive_parts,
    tri_content_gcd,
    tri_divrem,
)
from cremona_kit.jonquieres import PGL_INFINITE, JonqElement, OrderReport, _check_h, _order
from cremona_kit.linear_systems import (
    ChainReport,
    ChainStep,
    Classification,
    LinSysData,
    PencilReduction,
    RemovedComponent,
    _Rule,
)
from cremona_kit.rational_pencils import PencilCheckReport, PencilType

SX, SY, SZ = sympy.symbols("x y z")
ST = sympy.Symbol("t")


def frac_to_sympy(c: Fraction):
    return sympy.Rational(c.numerator, c.denominator)


def uni_to_sympy(p: UniPoly):
    return sum(
        (frac_to_sympy(c) * ST**e for e, c in enumerate(p.coeffs)), sympy.Integer(0)
    )


def tri_to_sympy(f: TriHomPoly):
    return sum(
        (frac_to_sympy(c) * SX**i * SY**j * SZ**k for (i, j, k), c in f.terms),
        sympy.Integer(0),
    )


def sympy_to_tri(expr, degree: Optional[int] = None) -> TriHomPoly:
    poly = sympy.Poly(sympy.expand(expr), SX, SY, SZ)
    terms = {}
    for exps, coeff in poly.terms():
        q = sympy.Rational(coeff)
        terms[tuple(int(e) for e in exps)] = Fraction(int(q.p), int(q.q))
    if degree is None:
        return TriHomPoly.of(terms)
    return TriHomPoly(degree, tuple(terms.items()))


def rand_frac(rng: random.Random, lo: int = -4, hi: int = 4, max_den: int = 3) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def rand_unipoly(
    rng: random.Random, max_deg: int = 3, nonzero: bool = False
) -> UniPoly:
    while True:
        size = rng.randint(0, max_deg) + 1
        p = UniPoly(tuple(Fraction(rng.randint(-4, 4)) for _ in range(size)))
        if not nonzero or not p.is_zero:
            return p


def rand_ratfunc(rng: random.Random, max_deg: int = 2, nonzero: bool = False) -> RatFunc:
    num = rand_unipoly(rng, max_deg, nonzero=nonzero)
    den = rand_unipoly(rng, max_deg, nonzero=True)
    return RatFunc(num, den)


def monomials(degree: int) -> List[Tuple[int, int, int]]:
    return [
        (i, j, degree - i - j)
        for i in range(degree + 1)
        for j in range(degree - i + 1)
    ]


def rand_trihom(
    rng: random.Random, degree: int, density: float = 0.5, nonzero: bool = True
) -> TriHomPoly:
    while True:
        terms = {
            e: Fraction(rng.randint(-4, 4))
            for e in monomials(degree)
            if rng.random() < density
        }
        f = TriHomPoly(degree, tuple(terms.items()))
        if not nonzero or not f.is_zero:
            return f


# Factors that defeat the first prime _P0 or the first evaluation point
# _POINT: a lex-leading coefficient or a denominator divisible by _P0, an
# x-leading coefficient vanishing at _POINT (the last one becomes constant
# there), and pairs like x - y and x - _POINT z that are coprime but share
# a root on the line y = _POINT.
ADVERSARIAL = (
    TRI_Y - TRI_Z * _POINT,
    TRI_X - TRI_Z * _POINT,
    TRI_X - TRI_Y,
    TRI_X * _P0 + TRI_Y,
    TRI_X + TRI_Y + TRI_Z * _P0,
    TRI_X * Fraction(1, _P0) + TRI_Z,
    TRI_X * TRI_Y * Fraction(3, 2 * _P0) - TRI_Z * TRI_Z,
    TRI_X * (TRI_Y - TRI_Z * _POINT) + TRI_Z * TRI_Z,
)


# The strategies that trihoms and unipolys draw from, each built once (per
# degree where it depends on one): a strategy built once draws the same
# examples as one rebuilt on every draw, and the rebuilding was a large
# share of the drawing time.
_ONE_IN_FIVE = st.integers(0, 4)
_COEFF = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
_NONZERO_COEFF = st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 4))


@functools.lru_cache(maxsize=None)
def _tri_factors(degree: Optional[int]):
    """The ADVERSARIAL factors of ``degree`` (of any degree for None) to
    sample from, or None when there is none."""
    pool = [f for f in ADVERSARIAL if degree in (None, f.degree)]
    return st.sampled_from(pool) if pool else None


@functools.lru_cache(maxsize=None)
def _tri_terms(degree: int):
    """Nonempty {exponents: nonzero coefficient} of homogeneous ``degree``."""
    return st.dictionaries(st.sampled_from(monomials(degree)), _NONZERO_COEFF, min_size=1)


@st.composite
def trihoms(draw, max_degree=3, degree=None):
    """A nonzero homogeneous polynomial, of ``degree`` if given; one draw in
    five is an ADVERSARIAL factor, when one has that degree."""
    factors = _tri_factors(degree)
    if factors is not None and draw(_ONE_IN_FIVE) == 0:
        return draw(factors)
    if degree is None:
        degree = draw(st.integers(0, max_degree))
    terms = draw(_tri_terms(degree))
    return TriHomPoly(degree, tuple(terms.items()))


# Univariate factors against the first prime _P0: leading coefficients
# divisible by _P0 (the first one vanishes mod _P0, so skipping that prime
# is what keeps a common factor of it visible), a denominator _P0, and
# t + 1 + _P0, which is t + 1 mod _P0: coprime to t + 1 over Q, but not at
# the first prime.
UNI_ADVERSARIAL = (
    UniPoly.of(1, _P0),
    UniPoly.of(1 + _P0, 1),
    UniPoly.of(1, 1),
    UniPoly.of(Fraction(1, _P0), 0, 1),
    UniPoly.of(-1, 0, 2 * _P0),
)


@functools.lru_cache(maxsize=None)
def _uni_factors(min_degree: int, max_degree: int):
    """The UNI_ADVERSARIAL factors of degree in [min_degree, max_degree] to
    sample from, or None when there is none."""
    pool = [f for f in UNI_ADVERSARIAL if min_degree <= f.degree <= max_degree]
    return st.sampled_from(pool) if pool else None


@functools.lru_cache(maxsize=None)
def _uni_tail(degree: int):
    """The ``degree`` coefficients below the leading one."""
    return st.lists(_COEFF, min_size=degree, max_size=degree)


@st.composite
def unipolys(draw, min_degree=0, max_degree=4):
    """A nonzero polynomial; one draw in five is a UNI_ADVERSARIAL factor."""
    factors = _uni_factors(min_degree, max_degree)
    if factors is not None and draw(_ONE_IN_FIVE) == 0:
        return draw(factors)
    degree = draw(st.integers(min_degree, max_degree))
    return UniPoly(tuple(draw(_uni_tail(degree))) + (draw(_NONZERO_COEFF),))


def encode_unipoly_oracle(p: UniPoly) -> list:
    """The earlier ``serialization.encode_unipoly``: ``str`` of each nonzero
    Fraction of the ``coeffs`` view."""
    return [[[e], str(c)] for e, c in enumerate(p.coeffs) if c != 0]


def encode_trihom_oracle(f: TriHomPoly) -> list:
    """The earlier ``serialization.encode_trihom``: ``str`` of each Fraction
    of the ``terms`` view."""
    return [[list(e), str(c)] for e, c in f.terms]


def as_obj_oracle(v, path) -> dict:
    if not isinstance(v, dict):
        ser._fail(path, f"expected an object, got {type(v).__name__}")
    return v


def as_list_oracle(v, path) -> list:
    if not isinstance(v, list):
        ser._fail(path, f"expected an array, got {type(v).__name__}")
    return v


def as_int_oracle(v, path) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        ser._fail(path, f"expected an integer, got {type(v).__name__}")
    return v


def as_str_oracle(v, path) -> str:
    if not isinstance(v, str):
        ser._fail(path, f"expected a string, got {type(v).__name__}")
    return v


def get_oracle(obj, key, path):
    if key not in obj:
        ser._fail(path + (key,), "missing required field")
    return obj[key]


# The earlier guard of each JSON type, keyed by the kind ``serialization._as`` takes.
GUARD_ORACLES = {dict: as_obj_oracle, list: as_list_oracle, int: as_int_oracle, str: as_str_oracle}


def _uni_term_oracle(item, path):
    """The exponent and the coefficient of a term [[e], c], checked in
    order, so the first failure names its field."""
    pair = as_list_oracle(item, path)
    if len(pair) != 2:
        ser._fail(path, "expected [[exponent], coefficient]")
    exps = as_list_oracle(pair[0], path + (0,))
    if len(exps) != 1:
        ser._fail(path + (0,), "univariate terms have a single exponent")
    e = as_int_oracle(exps[0], path + (0, 0))
    if e < 0:
        ser._fail(path + (0, 0), "exponents must be >= 0")
    return e, pair[1]


def decode_unipoly_oracle(v, path) -> UniPoly:
    """The earlier ``serialization.decode_unipoly``, with its own fast test
    per term and its own namer of a failing term."""
    items = as_list_oracle(v, path)
    terms = {}
    for i, item in enumerate(items):
        try:
            exps, c = item
            (e,) = exps
            ok = type(item) is list and type(exps) is list and type(e) is int and e >= 0
        except (TypeError, ValueError):
            ok = False
        if not ok:
            e, c = _uni_term_oracle(item, path + (i,))
        if (e, 0) in terms:
            ser._fail(path + (i,), f"duplicate exponent {e}")
        terms[e, 0] = ser._read_rational(c, path + (i, 1))
    ser._check_cap(max(terms, default=(-1, 0))[0], f"the polynomial at {ser._pstr(path)}")
    return UniPoly._sorted(*UniPoly._integer_form(terms))


def _tri_term_oracle(item, path):
    """The exponents and the coefficient of a term [[i, j, k], c], checked in
    order, so the first failure names its field."""
    pair = as_list_oracle(item, path)
    if len(pair) != 2:
        ser._fail(path, "expected [[i, j, k], coefficient]")
    exps = as_list_oracle(pair[0], path + (0,))
    if len(exps) != 3:
        ser._fail(path + (0,), "trivariate terms need three exponents")
    e = tuple(as_int_oracle(x, path + (0, a)) for a, x in enumerate(exps))
    if min(e) < 0:
        ser._fail(path + (0,), "exponents must be >= 0")
    return e, pair[1]


def decode_trihom_oracle(v, path, degree: Optional[int] = None) -> TriHomPoly:
    """The earlier ``serialization.decode_trihom``, with its own fast test
    per term and its own namer of a failing term."""
    items = as_list_oracle(v, path)
    terms = {}
    for n, item in enumerate(items):
        try:
            (i, j, k), c = item
            ok = type(item) is list and type(item[0]) is list
            ok = ok and type(i) is int and type(j) is int and type(k) is int and min(i, j, k) >= 0
        except (TypeError, ValueError):
            ok = False
        if ok:
            e = (i, j, k)
        else:
            e, c = _tri_term_oracle(item, path + (n,))
        if e in terms:
            ser._fail(path + (n,), f"duplicate monomial {list(e)}")
        terms[e] = ser._read_rational(c, path + (n, 1))
    degrees = {sum(e) for e in terms}
    if len(degrees) > 1:
        ser._fail(path, f"terms are not homogeneous: total degrees {sorted(degrees)}")
    if degree is None:
        if not degrees:
            ser._fail(path, "cannot infer the degree of a zero polynomial")
        degree = degrees.pop()
    elif degrees and degrees != {degree}:
        ser._fail(path, f"terms have degree {degrees.pop()}, expected {degree}")
    if degree < 0:
        raise ValueError("homogeneous degree must be >= 0")
    body, den = TriHomPoly._integer_form({e[:2]: r for e, r in terms.items()})
    return TriHomPoly._sorted(degree, body, den)


# The term reader's naming data per arity, as the earlier reader had it.
_ARITY_ORACLE = {
    1: ("expected [[exponent], coefficient]", "univariate terms have a single exponent",
        (0, 0), "duplicate exponent %d"),
    3: ("expected [[i, j, k], coefficient]", "trivariate terms need three exponents",
        (0,), "duplicate monomial [%d, %d, %d]"),
}


def read_terms_oracle(v, path, n):
    """The earlier ``serialization._read_terms``: {exponents: (p, q)} of a
    list of terms [[e1, ..., en], c], checked in order, each coefficient
    read by ``_read_rational`` at its own path."""
    shape, count, negative, duplicate = _ARITY_ORACLE[n]
    terms = {}
    for t, item in enumerate(ser._as(v, list, path)):
        exps = item[0] if type(item) is list and len(item) == 2 else None
        ok = type(exps) is list and len(exps) == n and {int}.issuperset(map(type, exps))
        if not (ok and min(exps) >= 0):
            at = path + (t,)
            pair = ser._as(item, list, at)
            if len(pair) != 2:
                ser._fail(at, shape)
            exps = ser._as(pair[0], list, at + (0,))
            if len(exps) != n:
                ser._fail(at + (0,), count)
            for a, x in enumerate(exps):
                ser._as(x, int, at + (0, a))
            if min(exps) < 0:
                ser._fail(at + negative, "exponents must be >= 0")
        e = tuple(exps)
        if e in terms:
            ser._fail(path + (t,), duplicate % e)
        terms[e] = ser._read_rational(item[1], path + (t, 1))
    return terms


def read_form_oracle(v, path, n):
    """(body, den, degrees) of a list of terms by the earlier reader and the
    decoders' later passes: the set of total degrees, the re-key of (i, j, k)
    to (i, j) and of (e,) to (e, 0), and the sort of ``_integer_form``."""
    terms = read_terms_oracle(v, path, n)
    degrees = {sum(e) for e in terms}
    body, den = TriHomPoly._integer_form({(e[0], e[1] if n == 3 else 0): r for e, r in terms.items()})
    return body, den, degrees


# -- the earlier route 1 of the GCD: the certificate of coprimality ----------


def lines_oracle(F, t):
    """The earlier ``exact_algebra._lines``: the coefficients of F(x, t) and
    of F(t, y), constant term first, with the powers of t built per call."""
    fx, fy = [0] * (max(F)[0] + 1), [0] * (max(j for _, j in F) + 1)
    powers = [t**e for e in range(max(len(fx), len(fy)))]
    for (i, j), c in F.items():
        fx[i] += c * powers[j]
        fy[j] += c * powers[i]
    return fx, fy


def reduced_oracle(h):
    """The earlier ``exact_algebra._reduced``, which always copies."""
    g = math.gcd(*h)
    h = [c // g for c in h] if g else []
    while h and not h[-1]:
        h.pop()
    return h[next((e for e, c in enumerate(h) if c), 0):]


def coprime_lines_oracle(f, g):
    """The earlier ``exact_algebra._coprime_lines``: both lines reduced, then
    a constant, or the lemma with N read from the reduced lines."""
    if not (f[0] or g[0]):
        return False
    f, g = reduced_oracle(f), reduced_oracle(g)
    if len(f) == 1 or len(g) == 1:
        return True
    N = min(max(map(abs, h), default=0) for h in (f, g))
    s = max((2 * N + 1).bit_length(), 64 if N else 0)
    gamma = math.gcd(*(sum(c << s * e for e, c in enumerate(h)) for h in (f, g)))
    return 0 < gamma < 1 << (s - 1)


def coprime_oracle(F, G):
    """The earlier ``exact_algebra._coprime``, route 1 at t = _POINT."""
    (fx, fy), (gx, gy) = lines_oracle(F, _POINT), lines_oracle(G, _POINT)
    return fx[-1] != 0 and coprime_lines_oracle(fx, gx) and coprime_lines_oracle(fy, gy)


def assert_route_one_as_before(polys):
    """_coprime, against the earlier route 1, on every ordered pair of the
    nonzero bodies of ``polys`` and, for three, on the pair F0, F1 + _LAMBDA F2
    that _common takes."""
    bodies = [f._body for f in polys if f]
    pairs = [(F, G) for F in bodies for G in bodies if F is not G]
    if len(bodies) == 3:
        pairs.append((bodies[0], exact_algebra._axpy(bodies[1], exact_algebra._LAMBDA, bodies[2])))
    for F, G in pairs:
        if G:
            assert exact_algebra._coprime(F, G) == coprime_oracle(F, G)


def encode_pencil_type_oracle(p: PencilType) -> dict:
    """The earlier ``serialization.encode_pencil_type``: the plain dict that
    ``dumps`` wrote for each type before it took the record itself."""
    return {"degree": p.degree, "mults": list(p.mults)}


def encode_linsys_oracle(L: LinSysData) -> dict:
    """The earlier ``serialization.encode_linsys``: the plain dict of a system."""
    return {"degree": L.degree, "mults": {l: m for l, m in L.mults}}


def plain_oracle(value):
    """``value`` with each record replaced by the plain JSON of its oracle:
    a pencil type, linear system, chain step, removed component, univariate
    or homogeneous polynomial."""
    encode = _PLAIN_ORACLES.get(type(value))
    if encode is not None:
        return encode(value)
    if type(value) is list:
        return [plain_oracle(x) for x in value]
    if type(value) is dict:
        return {k: plain_oracle(x) for k, x in value.items()}
    return value


def json_of(payload):
    """The plain JSON of a payload that holds records: ``json.loads`` of the
    text ``serialization.dumps`` writes."""
    return json.loads(ser.dumps(payload))


def encode_removed_oracle(r: RemovedComponent) -> dict:
    return {
        "kind": r.kind,
        "labels": list(r.labels),
        "count": r.count,
        "system": encode_linsys_oracle(r.system),
    }


def encode_chain_step_oracle(s: ChainStep) -> dict:
    pencil = None
    if s.pencil_reduction is not None:
        pencil = {
            "content": s.pencil_reduction.content,
            "system": encode_linsys_oracle(s.pencil_reduction.pencil),
        }
    return {
        "input": encode_linsys_oracle(s.input),
        "raw": encode_linsys_oracle(s.raw_adjoint),
        "removed": [encode_removed_oracle(r) for r in s.removed_fixed],
        "pencil": pencil,
        "output": encode_linsys_oracle(s.output),
        "warnings": list(s.warnings),
    }


_PLAIN_ORACLES = {
    PencilType: encode_pencil_type_oracle,
    LinSysData: encode_linsys_oracle,
    ChainStep: encode_chain_step_oracle,
    RemovedComponent: encode_removed_oracle,
    UniPoly: encode_unipoly_oracle,
    TriHomPoly: encode_trihom_oracle,
}


def encode_chain_report_oracle(r) -> dict:
    """The earlier ``serialization.encode_chain_report``, each system a fresh
    dict of ``encode_linsys_oracle``."""
    return {
        "steps": [encode_chain_step_oracle(s) for s in r.steps],
        "terminal": encode_linsys_oracle(r.terminal),
        "class": r.classification.value,
        "warnings": list(r.warnings),
    }


def lex_normalized(f: TriHomPoly) -> TriHomPoly:
    """Scale so the lex-leading coefficient (x > y > z) equals one."""
    lc = f.terms[0][1] if f.terms else 1
    return f * (1 / lc) if lc != 1 else f


def monic(p: UniPoly) -> UniPoly:
    """p divided by its leading coefficient; zero stays zero."""
    return p * (1 / p.coeff(p.degree)) if p else p


def uni_gcd_oracle(p: UniPoly, q: UniPoly) -> UniPoly:
    """The earlier Fraction implementation of ``uni_gcd``: Euclid over Q."""
    a, b = p, q
    while not b.is_zero:
        a, b = b, uni_divmod_oracle(a, b)[1]
    return monic(a)


def uni_divmod_oracle(p: UniPoly, d: UniPoly) -> Tuple[UniPoly, UniPoly]:
    """The earlier ``divmod`` of ``UniPoly``: long division over Q, by
    ``OldUniPoly``."""
    q, r = divmod(OldUniPoly(p.coeffs), OldUniPoly(d.coeffs))
    return UniPoly(q.coeffs), UniPoly(r.coeffs)


def _exact_quotient(p, d):
    q, r = uni_divmod_oracle(p, d) if isinstance(p, UniPoly) else tri_divrem(p, d)
    assert r.is_zero, "inexact division"
    return q


def uni_cofactors_oracle(p: UniPoly, q: UniPoly) -> Tuple[UniPoly, UniPoly, UniPoly]:
    """(g, p / g, q / g) by ``uni_gcd_oracle`` and a second, exact division."""
    g = uni_gcd_oracle(p, q)
    if g.is_zero:
        return g, p, q
    return g, _exact_quotient(p, g), _exact_quotient(q, g)


def uni_lcm_oracle(p: UniPoly, q: UniPoly) -> UniPoly:
    """The earlier ``uni_lcm``: p * q divided by their gcd, made monic."""
    return monic(_exact_quotient(p * q, uni_gcd_oracle(p, q)))


def common_denominator_oracle(dens: Sequence[UniPoly]) -> Tuple[UniPoly, List[UniPoly]]:
    """The lcm D of dens, nested pairwise as the package used to, and D / d
    for each d by a second division."""
    level = list(dens)
    while len(level) > 1:
        pairs = [level[i : i + 2] for i in range(0, len(level), 2)]
        level = [uni_lcm_oracle(*pair) if len(pair) == 2 else pair[0] for pair in pairs]
    D = level[0]
    return D, [_exact_quotient(D, d) for d in dens]


def primitive_parts_oracle(
    polys: Sequence[TriHomPoly],
) -> Tuple[TriHomPoly, Tuple[TriHomPoly, ...]]:
    """The earlier content removal of ``CremonaMap.of``: ``tri_content_gcd``,
    then ``tri_divrem`` of every nonzero component by it."""
    content = tri_content_gcd(*polys)
    return content, tuple(
        _exact_quotient(p, content) if p else TriHomPoly.zero(max(p.degree - content.degree, 0))
        for p in polys
    )


def assert_canonical(
    f: Union[UniPoly, TriHomPoly], old: Union["OldUniPoly", "OldTriHomPoly"]
) -> None:
    """f stores the canonical form of its polynomial, and is equal to, hashes,
    reprs and pickles like ``old``, the same polynomial as the dataclass.

    The form is F / den, homogenised to the degree for a TriHomPoly: den a
    positive integer prime to the content of F, F keyed in decreasing lex
    order with no zero coefficient, in Z[x, y] for a TriHomPoly and in Z[t]
    keyed (e, 0) for a UniPoly.  It is the one form of its polynomial, so the
    Fraction constructor rebuilds it from ``old``'s terms or coefficients.
    """
    den, F = f._den, f._body
    assert type(den) is int and den > 0 and math.gcd(den, *F.values()) == 1
    assert list(F) == sorted(F, reverse=True)
    assert all(type(c) is int and c and i >= 0 and j >= 0 for (i, j), c in F.items())
    if isinstance(f, UniPoly):
        assert all(j == 0 for _, j in F)
        rebuilt = UniPoly(old.coeffs)
        assert f.coeffs == old.coeffs and f.degree == len(old.coeffs) - 1
    else:
        d = f.degree
        assert all(i + j <= d for i, j in F)
        rebuilt = TriHomPoly(old.degree, old.terms)
        assert rebuilt.degree == d and (d, f.terms) == (old.degree, old.terms)
    assert (rebuilt._den, rebuilt._body) == (den, F) and rebuilt == f
    assert hash(f) == hash(old) and repr(f) == repr(old)
    clone = pickle.loads(pickle.dumps(f))
    assert (clone._den, clone._body) == (den, F)
    assert clone == f and hash(clone) == hash(f) and repr(clone) == repr(f)


def fractions_built(fn, *args):
    """(fn(*args), the number of Fractions built during the call)."""
    # Python 3.12 builds the results of Fraction arithmetic in _from_coprime_ints.
    names = ("__new__", "_from_coprime_ints")
    codes = {getattr(Fraction, name).__code__ for name in names if hasattr(Fraction, name)}
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code in codes:
            count += 1

    sys.setprofile(profile)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
    return result, count


def tri_gcd(f: TriHomPoly, g: TriHomPoly) -> TriHomPoly:
    """GCD of two homogeneous polynomials, lex-normalised; gcd(f, 0) is f.
    The content of the pair, from the package's one GCD front end."""
    return _primitive_parts((f, g))[0] if f or g else g


def primitive_parts_fold_oracle(
    polys: Sequence[TriHomPoly], normalise: bool = False
) -> Tuple[TriHomPoly, Tuple[TriHomPoly, ...]]:
    """The earlier ``_primitive_parts``: a fold of pairwise gcds over the
    nonzero polys, the cofactors of each step multiplied into the parts;
    with ``normalise``, then the earlier 1/lead scaling of ``CremonaMap.of``.
    The cofactors of a pair come from ``tri_gcd`` and ``tri_divrem``."""
    nonzero = [p for p in polys if p]
    if not nonzero:
        raise ValueError("gcd of three zero polynomials")
    content, parts = nonzero[0], [None]
    for p in nonzero[1:]:
        if content.degree == 0:
            break
        d = tri_gcd(content, p)
        content, a, b = d, _exact_quotient(content, d), _exact_quotient(p, d)
        parts = [a if q is None else q * a if a.degree else q for q in parts] + [b]
    if content.degree == 0:
        content, result = TriHomPoly.monomial((0, 0, 0)), tuple(polys)
    else:
        if parts[0] is None:  # one nonzero poly
            lc = content.terms[0][1]
            content, parts = content * (1 / lc), [TriHomPoly.monomial((0, 0, 0), lc)]
        rest = iter(parts)
        zero = lambda p: TriHomPoly.zero(max(p.degree - content.degree, 0))
        result = tuple(next(rest) if p else zero(p) for p in polys)
    if normalise:
        lead = next(c for c in result if c).terms[0][1]
        if lead != 1:
            result = tuple(c * (1 / lead) for c in result)
    return content, result


def fixes_curve_pointwise_oracle(F: CremonaMap, c: TriHomPoly) -> bool:
    """The earlier ``fixes_curve_pointwise``: the three minors as Fraction
    ``TriHomPoly`` products, each tested by the remainder of ``tri_divrem``,
    as the earlier ``tri_divides`` did."""
    if c.is_zero:
        raise ValueError("curve polynomial must be nonzero")
    if c.degree == 0:
        raise ValueError("curve polynomial must have positive degree")
    f0, f1, f2 = F.components
    minors = (
        f0 * TRI_Y - f1 * TRI_X,
        f0 * TRI_Z - f2 * TRI_X,
        f1 * TRI_Z - f2 * TRI_Y,
    )
    return all(tri_divrem(m, c)[1].is_zero for m in minors)


def exact_quotient_oracle(F: Dict[Tuple[int, int], int], C: Dict[Tuple[int, int], int]):
    """The earlier ``exact_algebra._exact_quotient``: F / C for a primitive C
    by lex division on integers, each leading monomial found by ``max`` over
    what remains of the dividend; None when C does not divide F."""
    lead = max(C)
    (ci, cj), cc = lead, C[lead]
    tail = [(e, c) for e, c in C.items() if e != lead]
    p, q = dict(F), {}
    while p:
        e = max(p)
        i, j = e[0] - ci, e[1] - cj
        if i < 0 or j < 0:
            return None
        s, r = divmod(p.pop(e), cc)
        if r:
            return None
        q[i, j] = s
        for (di, dj), dc in tail:
            t = (i + di, j + dj)
            v = p.get(t, 0) - s * dc
            if v:
                p[t] = v
            else:
                del p[t]
    return q


def substitute_oracle(f: TriHomPoly, images: Sequence[TriHomPoly]) -> TriHomPoly:
    """The earlier Fraction implementation of ``TriHomPoly.substitute``:
    term by term, with ``total = total + term``."""
    g0, g1, g2 = images
    if not (g0.degree == g1.degree == g2.degree):
        raise ValueError("substitution images must share one degree")
    e = g0.degree
    out_deg = f.degree * e
    if f.is_zero:
        return TriHomPoly.zero(out_deg)
    powers: List[Dict[int, TriHomPoly]] = [{}, {}, {}]

    def power(axis: int, n: int) -> TriHomPoly:
        cache = powers[axis]
        if n not in cache:
            cache[n] = (g0, g1, g2)[axis] ** n
        return cache[n]

    total = TriHomPoly.zero(out_deg)
    for (i, j, k), coeff in f.terms:
        term = power(0, i) * power(1, j) * power(2, k) * coeff
        total = total + term
    return total


def multiplicity_at_oracle(f: TriHomPoly, point) -> int:
    """The earlier ``curve_model.multiplicity_at``: the least k such that some
    order-k partial of f is nonzero at the point, with the Fraction partials
    and evaluation of ``OldTriHomPoly``."""
    if f.is_zero:
        raise ValueError("multiplicity of the zero polynomial is undefined")
    level = [OldTriHomPoly(f.degree, f.terms)]
    for k in range(f.degree + 1):
        if any(d.evaluate(point) for d in level):
            return k
        level = [d.partial(axis) for d in level for axis in range(3)]
    raise AssertionError("all partials vanished for a nonzero polynomial")


def is_perfect_power_oracle(f: TriHomPoly) -> bool:
    """The earlier ``curve_model.is_perfect_power``: each level is
    gcd(w, w_x, w_y, w_z), folded one ``tri_gcd`` per nonzero partial."""
    w, degrees = f, [f.degree]
    while w.degree > 0:
        u = w
        for axis in range(3):
            p = w.partial(axis)
            if not p.is_zero:
                u = tri_gcd(u, p)
            if u.degree == 0:
                break
        w = u
        degrees.append(w.degree)
    radicals = [a - b for a, b in zip(degrees, degrees[1:])] + [0]
    return math.gcd(*(j for j in range(1, len(radicals)) if radicals[j - 1] > radicals[j])) >= 2


def mat_mul_oracle(m, n):
    """Product of 2x2 matrices over Q(x), given as entry tuples (a11, a12, a21, a22)."""
    return (
        m[0] * n[0] + m[1] * n[2],
        m[0] * n[1] + m[1] * n[3],
        m[2] * n[0] + m[3] * n[2],
        m[2] * n[1] + m[3] * n[3],
    )


def is_scalar_oracle(m) -> bool:
    return m[1].is_zero and m[2].is_zero and m[0] == m[3]


def order_oracle(trace: RatFunc, det: RatFunc, scalar: bool):
    """The earlier ``jonquieres._order``: (order, lambda) of a matrix from its
    trace, determinant and scalarity, lambda = trace^2 / det computed by
    ``RatFunc`` arithmetic."""
    lam = trace * trace * det.inverse()
    if not lam.is_constant:
        return PGL_INFINITE, lam
    value = lam.num.coeff(0)  # the constant: den is 1 once lambda is reduced
    if value == 4:
        return (1 if scalar else PGL_INFINITE), lam
    return {0: 2, 1: 3, 2: 4, 3: 6}.get(value, PGL_INFINITE), lam


def leminv_check_oracle(u: JonqElement) -> OrderReport:
    """The earlier ``jonquieres.leminv_check``: ``order_oracle`` on the trace
    2 a1, the determinant a1^2 - h a2^2 and the scalarity a2 = 0."""
    det = u.a1 * u.a1 - RatFunc.of(u.h) * (u.a2 * u.a2)
    order, lam = order_oracle(u.a1 + u.a1, det, u.a2.is_zero)
    if u.a1.is_zero:
        note = "a1 = 0: the element is the hyperelliptic involution, order 2"
    elif u.a2.is_zero:
        note = "a2 = 0: the element is scalar, projectively the identity"
    else:
        note = (
            "a1, a2 both nonzero: lambda = 4 a1^2 / (a1^2 - h a2^2) cannot be "
            "constant for squarefree nonconstant h, so the order is infinite"
        )
    return OrderReport(order, lam, lam.is_constant, order in (1, 2, PGL_INFINITE), note)


def poly_mul_oracle(f, g):
    """f * g by the general path of ``_Poly.__mul__``, which a product with a
    one-term factor no longer takes: ``_bimul`` of the bodies, sorted by
    ``_lex``."""
    body, den = _lex(_bimul(f._body, g._body)), f._den * g._den
    if isinstance(f, UniPoly):
        return UniPoly._sorted(body, den)
    return TriHomPoly._sorted(f.degree + g.degree, body, den)


def _stored_oracle(body: Dict[Tuple[int, int], int], den: int) -> Tuple[int, Dict]:
    """(den, body) with gcd(den, content body) divided out, as ``_store`` does."""
    g = math.gcd(den, *body.values())
    if den < 0:
        g = -g
    return den // g, {e: c // g for e, c in body.items()}


def uni_form_oracle(coeffs: Sequence) -> Tuple[int, Dict]:
    """(den, body) as the earlier ``UniPoly(coeffs)`` stored them: the
    coefficients over the lcm of their denominators, read backwards."""
    ratios = [(_frac(c).numerator, _frac(c).denominator) for c in coeffs]
    den = math.lcm(*(q for _, q in ratios))
    body = {(e, 0): p * (den // q) for e, (p, q) in reversed(list(enumerate(ratios))) if p}
    return _stored_oracle(body, den)


def tri_form_oracle(degree: int, terms: Sequence) -> Tuple[int, Dict]:
    """(den, body) as the earlier ``TriHomPoly(degree, terms)`` stored them:
    repeated monomials summed as Fractions, then sorted by ``_lex``."""
    acc: Dict[Tuple[int, int], Fraction] = {}
    for (i, j, k), coeff in terms:
        assert min(i, j, k) >= 0 and i + j + k == degree
        c = _frac(coeff)
        acc[i, j] = acc[i, j] + c if (i, j) in acc else c
    den = math.lcm(*(c.denominator for c in acc.values()))
    body = {e: c.numerator * (den // c.denominator) for e, c in acc.items()}
    return _stored_oracle(_lex(body), den)


def homogenize_uni_oracle(p: UniPoly, main_axis: int, aux_axis: int, degree: int) -> TriHomPoly:
    """The earlier ``homogenize_uni``, with its aux axis: sum(c_e t^e) as
    sum(c_e main^e aux^(degree - e)), the body sorted by ``_lex``."""
    if main_axis == aux_axis:
        raise ValueError("homogenisation axes must differ")
    if p.is_zero:
        return TriHomPoly.zero(degree)
    if degree < p.degree:
        raise ValueError("target degree below the degree of the polynomial")
    body = {}
    for (e, _), c in p._body.items():
        exps = [0, 0, 0]
        exps[main_axis] = e
        exps[aux_axis] = degree - e
        body[exps[0], exps[1]] = c
    return TriHomPoly._sorted(degree, _lex(body), p._den)


def pgl_order_oracle(*entries):
    """The deleted ``jonquieres.pgl_order`` on four entries a11, a12, a21, a22
    (anything ``RatFunc.of`` takes): (order, lambda) from ``_order`` on
    lambda = trace^2 / det and the scalarity that ``Mat2RF`` computed; a
    singular matrix is refused."""
    m = tuple(RatFunc.of(e) for e in entries)
    det = m[0] * m[3] - m[1] * m[2]
    if det.is_zero:
        raise ValueError("matrix over the function field is singular")
    lam = (m[0] + m[3]) * (m[0] + m[3]) * det.inverse()
    return _order(lam, is_scalar_oracle(m)), lam


def partitions_oracle(total: int, square_total: int, max_part: int):
    """The recursive walk ``rational_pencils._partitions`` replaced: the same
    tuples in the same order, each rebuilt at every level of the recursion."""
    if total == 0:
        if square_total == 0:
            yield ()
        return
    top = min(max_part, total)
    for part in range(top, 0, -1):
        rest, rest_sq = total - part, square_total - part * part
        if rest_sq < 0:
            continue
        if rest > rest_sq:  # each remaining part m >= 1 has m <= m^2
            continue
        if rest_sq > rest * part:  # remaining parts are bounded by `part`
            continue
        for tail in partitions_oracle(rest, rest_sq, part):
            yield (part,) + tail


def partitions_walk_oracle(total: int, square_total: int, max_part: int):
    """The explicit-stack walk ``rational_pencils._partitions`` had before it
    wrote rests of parts <= 3 in closed form: every part, down to the ones,
    is taken on the stack."""
    found: List[Tuple[int, ...]] = []
    head: List[int] = []  # the part taken at each open level
    levels: List[List[int]] = []  # per open level: [next part, lowest part, t, s]
    t, s, cap = total, square_total, max_part
    while True:
        if s == t and (cap > 0 or t == 0):
            found.append((*head,) + (1,) * t)
        elif 0 < t < s:
            levels.append([min(cap, t, (math.isqrt(4 * (s - t) + 1) + 1) // 2), -(-s // t), t, s])
            head.append(0)
        while levels and levels[-1][0] < levels[-1][1]:
            levels.pop()
            head.pop()
        if not levels:
            return found
        level = levels[-1]
        cap = head[-1] = level[0]
        level[0] -= 1
        t, s = level[2] - cap, level[3] - cap * cap


def partitions_stack_oracle(total: int, square_total: int, max_part: int):
    """The explicit-stack walk ``rational_pencils._partitions`` had before it
    recursed: the same closed-form rests of parts <= 3."""
    found: List[Tuple[int, ...]] = []
    head: List[int] = []  # the part taken at each open level
    levels: List[List[int]] = []  # per open level: [next part, lowest part, t, s]
    t, s, cap = total, square_total, max_part
    while True:
        if s == t and (cap > 0 or t == 0):
            found.append((*head,) + (1,) * t)
        elif cap < 4:
            h, odd = divmod(s - t, 2)  # h = 3a + b
            if cap > 1 and h > 0 and not odd:
                for a in range(h // 3 if cap == 3 else 0, -1, -1):
                    c = 2 * t - s + 3 * a
                    if c < 0:
                        break
                    found.append((*head,) + (3,) * a + (2,) * (h - 3 * a) + (1,) * c)
        elif 0 < t < s:
            levels.append([min(cap, t, (math.isqrt(4 * (s - t) + 1) + 1) // 2), -(-s // t), t, s])
            head.append(0)
        while levels and levels[-1][0] < levels[-1][1]:
            levels.pop()
            head.pop()
        if not levels:
            return found
        level = levels[-1]
        cap = head[-1] = level[0]
        level[0] -= 1
        t, s = level[2] - cap, level[3] - cap * cap


def check_rational_pencil_oracle(n: int, mults: Sequence[int]) -> PencilCheckReport:
    """``check_rational_pencil`` as it was, with both residuals and the linear
    one in closed form."""
    ms = PencilType(n, mults).mults
    r_genus = (n - 1) * (n - 2) // 2 - sum(m * (m - 1) // 2 for m in ms)
    r_pencil = (n + 1) * (n + 2) // 2 - sum(m * (m + 1) // 2 for m in ms) - 2
    r_linear = 3 * n - sum(ms) - 2
    valid = r_genus == 0 and r_pencil == 0
    return PencilCheckReport(n, ms, r_genus, r_pencil, r_linear, valid)


def rand_curve(
    rng: random.Random,
    d_min: int = 4,
    d_max: int = 15,
    min_genus: int = 2,
) -> PlaneCurveModel:
    while True:
        d = rng.randint(d_min, d_max)
        k = rng.randint(0, 8)
        mults = [rng.randint(2, max(2, min(d, 6))) for _ in range(k)]
        g = (d - 1) * (d - 2) // 2 - sum(m * (m - 1) // 2 for m in mults)
        if g >= min_genus:
            return curve_from_mults(d, mults)


def rand_system(rng: random.Random, n_max: int = 9, points: int = 7) -> LinSysData:
    n = rng.randint(0, n_max)
    mults = {
        f"p{i}": rng.randint(0, min(n, 5)) if n else 0 for i in range(rng.randint(0, points))
    }
    return LinSysData.of(n, mults)


def rand_usable_system(rng: random.Random, n_max: int = 9, points: int = 8) -> LinSysData:
    """A random system with virtual dimension >= 1 (a usable system)."""
    while True:
        L = rand_system(rng, n_max, points)
        if L.degree * (L.degree + 3) // 2 - sum(m * (m + 1) // 2 for _, m in L.mults) >= 1:
            return L


def _applicable_rules(n: int, mults: Dict[str, int]) -> List[_Rule]:
    """All Bezout rules that currently apply, lines first, lex within a kind."""
    active = sorted(l for l, m in mults.items() if m >= 1)
    rules: List[_Rule] = []
    for i, j in combinations(active, 2):
        if mults[i] + mults[j] > n:
            rules.append(("line", (i, j)))
    for subset in combinations(active, 5):
        if sum(mults[l] for l in subset) > 2 * n:
            rules.append(("conic", subset))
    return rules


def _removal_loop(
    L: LinSysData, pick: Callable[[List[_Rule]], _Rule]
) -> Tuple[LinSysData, Tuple[RemovedComponent, ...]]:
    """The earlier removal loop on a dict of multiplicities, zeros kept,
    every system built by the validating ``LinSysData.of``."""
    n, mults = L.degree, dict(L.mults)
    counts: Dict[_Rule, int] = {}
    while True:
        rules = _applicable_rules(n, mults)
        if not rules:
            break
        rule = pick(rules)
        kind, labels = rule
        n -= 1 if kind == "line" else 2
        for l in labels:
            mults[l] -= 1
        if n < 0:
            raise DegenerateSystem("fixed-component removal drove the degree negative")
        counts[rule] = counts.get(rule, 0) + 1
    removed = []
    for kind, labels in sorted(counts, key=lambda r: (0 if r[0] == "line" else 1, r[1])):
        one = LinSysData.of(1 if kind == "line" else 2, dict.fromkeys(labels, 1))
        removed.append(RemovedComponent(kind, labels, counts[kind, labels], one))
    return LinSysData.of(n, mults), tuple(removed)


def remove_fixed_components_oracle(
    L: LinSysData,
) -> Tuple[LinSysData, Tuple[RemovedComponent, ...]]:
    """Reference removal loop: always the first rule of the full listing."""
    return _removal_loop(L, lambda rules: rules[0])


def remove_fixed_components_random_order(
    L: LinSysData, rng: random.Random
) -> Tuple[LinSysData, Tuple[RemovedComponent, ...]]:
    """Order-randomised variant used to exercise confluence of the rules."""
    return _removal_loop(L, lambda rules: rules[rng.randrange(len(rules))])


def pencil_decompose_oracle(L: LinSysData) -> Optional[PencilReduction]:
    """The earlier ``pencil_decompose``, which also asked the primitive part
    for virtual dimension 1 besides genus 0 and self-intersection 0."""
    c = math.gcd(L.degree, *(m for _, m in L.mults))
    if c < 2:
        return None
    P = LinSysData.of(L.degree // c, {l: m // c for l, m in L.mults})
    n, ms = P.degree, [m for _, m in P.mults]
    genus = (n - 1) * (n - 2) // 2 - sum(m * (m - 1) // 2 for m in ms)
    dim = n * (n + 3) // 2 - sum(m * (m + 1) // 2 for m in ms)
    if genus == 0 and n * n == sum(m * m for m in ms) and dim == 1:
        return PencilReduction(c, P)
    return None


def first_rule_scan_oracle(n: int, labels: Sequence[str], m: Sequence[int]) -> Optional[_Rule]:
    """The earlier ``linear_systems._first_rule``: one sort settles None, and
    otherwise the top four of every suffix are built before lines and
    conics are looked for."""
    k = len(m)
    top5 = sorted(m, reverse=True)[:5]
    if (k < 2 or top5[0] + top5[1] <= n) and (k < 5 or sum(top5) <= 2 * n):
        return None
    top: List[Tuple[int, ...]] = [()] * (k + 1)  # top[i]: four largest of m[i:]
    for i in range(k - 1, -1, -1):
        top[i] = tuple(sorted(top[i + 1] + (m[i],), reverse=True)[:4])
    for i in range(k - 1):
        if m[i] + top[i + 1][0] > n:
            j = next(j for j in range(i + 1, k) if m[i] + m[j] > n)
            return "line", (labels[i], labels[j])
    chosen: List[int] = []
    total = 0
    for left in range(5, 0, -1):
        for i in range(chosen[-1] + 1 if chosen else 0, k - left + 1):
            if total + m[i] + sum(top[i + 1][: left - 1]) > 2 * n:
                chosen.append(i)
                total += m[i]
                break
    return "conic", tuple(labels[i] for i in chosen)


def remove_fixed_components_scan_oracle(
    L: LinSysData,
) -> Tuple[LinSysData, Tuple[RemovedComponent, ...]]:
    """The earlier ``remove_fixed_components``: the first rule of
    ``first_rule_scan_oracle`` until none applies, with no sums carried."""
    n, labels, m = L.degree, [l for l, _ in L.mults], [v for _, v in L.mults]
    counts: Dict[_Rule, int] = {}
    while (rule := first_rule_scan_oracle(n, labels, m)) is not None:
        n -= 1 if rule[0] == "line" else 2
        if n < 0:
            raise DegenerateSystem(
                "fixed-component removal drove the degree negative; input numerics are inconsistent"
            )
        for l in rule[1]:
            m[labels.index(l)] -= 1
        if 0 in m:
            labels, m = [l for l, v in zip(labels, m) if v], [v for v in m if v]
        counts[rule] = counts.get(rule, 0) + 1
    if not counts:
        return L, ()
    removed = tuple(
        RemovedComponent(kind, ls, counts[kind, ls], LinSysData.of(1 if kind == "line" else 2, dict.fromkeys(ls, 1)))
        for kind, ls in sorted(counts, key=lambda r: (0 if r[0] == "line" else 1, r[1]))
    )
    return LinSysData.of(n, dict(zip(labels, m))), removed


def adjoint_step_oracle(L: LinSysData) -> ChainStep:
    """The earlier ``adjoint_step``: the raw adjoint built from the pairs of
    L, then ``remove_fixed_components_scan_oracle`` and the pencil test, each
    system built and summed afresh."""
    n, ms = L.degree, [m for _, m in L.mults]
    g = (n - 1) * (n - 2) // 2 - sum(m * (m - 1) // 2 for m in ms)
    if g <= 1:
        raise AdjointDoesNotExist(f"adjoint requires genus > 1, got genus {g}")
    raw = LinSysData.of(n - 3, {l: m - 1 for l, m in L.mults})
    reduced, removed = remove_fixed_components_scan_oracle(raw)
    warnings = []
    if reduced.degree**2 < sum(m * m for _, m in reduced.mults):
        warnings.append(
            f"system {reduced} has negative self-intersection after removing lines "
            "and conics; a higher-degree fixed component was probably missed"
        )
    pr = pencil_decompose_oracle(reduced)
    return ChainStep(L, raw, removed, reduced, pr, tuple(warnings))


_TERMINAL_CLASSES_ORACLE = {
    (0, 1): Classification.RATIONAL_PENCIL,
    (1, 1): Classification.ELLIPTIC_PENCIL,
    (1, 2): Classification.ELLIPTIC_NET,
}


def adjoint_chain_oracle(L: LinSysData) -> ChainReport:
    """The earlier ``adjoint_chain``: ``adjoint_step_oracle`` while the member
    genus, computed afresh for each system, is above 1."""

    def genus(S):
        return (S.degree - 1) * (S.degree - 2) // 2 - sum(m * (m - 1) // 2 for _, m in S.mults)

    current, g = L, genus(L)
    if g <= 1:
        raise AdjointDoesNotExist(f"adjoint chain requires genus > 1, got genus {g}")
    steps, warnings = [], []
    while g > 1:
        step = adjoint_step_oracle(current)
        steps.append(step)
        warnings.extend(step.warnings)
        current = step.output
        g = genus(current)
    n = current.degree
    dim = n * (n + 3) // 2 - sum(m * (m + 1) // 2 for _, m in current.mults)
    other = Classification.RATIONAL_SYSTEM if g == 0 else Classification.EXHAUSTED
    classification = _TERMINAL_CLASSES_ORACLE.get((g, dim), other)
    if classification is Classification.EXHAUSTED:
        warnings.append(f"terminal system with genus {g} and dimension {dim} does not fit "
                        "the rational/elliptic case split")
    return ChainReport(tuple(steps), current, classification, tuple(warnings))


def render_text_oracle(value, indent: int = 0) -> List[str]:
    """The earlier ``cli._render_text``, with a branch for a scalar at the
    top, which no report reached."""
    pad = "  " * indent
    lines: List[str] = []
    if isinstance(value, dict):
        for key in sorted(value):
            inner = value[key]
            if isinstance(inner, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.extend(render_text_oracle(inner, indent + 1))
            else:
                lines.append(f"{pad}{key}: {inner}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(render_text_oracle(item, indent + 1))
            else:
                lines.append(f"{pad}- {item}")
    else:
        lines.append(f"{pad}{value}")
    return lines


def rand_jonq(
    rng: random.Random,
    h: UniPoly,
    max_deg: int = 2,
    kind: Optional[str] = None,
) -> JonqElement:
    """kind: None (both nonzero), 'involution' (a1 = 0), 'scalar' (a2 = 0)."""
    if kind == "involution":
        return JonqElement(RatFunc.of(0), rand_ratfunc(rng, max_deg, nonzero=True), h)
    if kind == "scalar":
        return JonqElement(rand_ratfunc(rng, max_deg, nonzero=True), RatFunc.of(0), h)
    return JonqElement(
        rand_ratfunc(rng, max_deg, nonzero=True),
        rand_ratfunc(rng, max_deg, nonzero=True),
        h,
    )


H4 = UniPoly.of(-1, 0, 0, 0, 1)  # t^4 - 1
H6 = UniPoly.of(1, 1, 0, 0, 0, 0, 1)  # t^6 + t + 1
H8 = UniPoly.of(-2, 0, 0, 0, 0, 0, 0, 0, 1)  # t^8 - 2


# -- the records as the frozen dataclasses they were -----------------------------
#
# Fields, defaults and __post_init__ checks of the package's 19 records as
# they stood when each was a @dataclass(frozen=True); the oracle for the
# equality, hash, repr, construction and immutability of the __slots__
# classes that replaced them.  Each is registered under the package's class
# name, which its repr prints.

DATACLASS_ORACLES: Dict[str, type] = {}


def _dataclass_oracle(cls):
    name = cls.__name__[len("Old") :]
    cls.__name__ = cls.__qualname__ = name
    DATACLASS_ORACLES[name] = dataclasses.dataclass(frozen=True)(cls)
    return DATACLASS_ORACLES[name]


def _cleared(coeffs: Sequence[Fraction]) -> Tuple[int, List[int]]:
    """(den, ints) with coeffs = ints / den, den the lcm of the denominators."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return den, [c.numerator * (den // c.denominator) for c in coeffs]


@_dataclass_oracle
class OldUniPoly:
    """Also the oracle for the integer arithmetic of ``UniPoly``: its earlier
    Fraction ``+``, ``-``, ``*`` (integers convolved under one rational
    scale), ``derivative`` and ``monic``; and the long division over Q that
    ``UniPoly`` had, for ``uni_divmod_oracle``."""

    coeffs: Tuple[Fraction, ...] = ()

    def __post_init__(self) -> None:
        cs = [_frac(c) for c in self.coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def monic(self):
        if not self.coeffs:
            return self
        lc = self.coeffs[-1]
        return OldUniPoly(tuple(c / lc for c in self.coeffs))

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return OldUniPoly(tuple(out))

    def __neg__(self):
        return OldUniPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, OldUniPoly):
            if not self.coeffs or not other.coeffs:
                return OldUniPoly()
            da, a = _cleared(self.coeffs)
            db, b = _cleared(other.coeffs)
            out = [0] * (len(a) + len(b) - 1)
            for i, c in enumerate(a):
                if c:
                    for j, d in enumerate(b):
                        out[i + j] += c * d
            scale = da * db
            return OldUniPoly(tuple(Fraction(v, scale) for v in out))
        scalar = _frac(other)
        return OldUniPoly(tuple(c * scalar for c in self.coeffs))

    def derivative(self):
        return OldUniPoly(tuple(c * e for e, c in enumerate(self.coeffs) if e >= 1))

    def __divmod__(self, other):
        if not other.coeffs:
            raise ZeroDivisionError("polynomial division by zero")
        q = [Fraction(0)] * max(len(self.coeffs) - len(other.coeffs) + 1, 0)
        rem = list(self.coeffs)
        d, lc = len(other.coeffs) - 1, other.coeffs[-1]
        while len(rem) - 1 >= d and rem:
            if rem[-1] == 0:
                rem.pop()
                continue
            s = len(rem) - 1 - d
            f = rem[-1] / lc
            q[s] = f
            for i, c in enumerate(other.coeffs):
                rem[s + i] -= f * c
            rem.pop()
        return OldUniPoly(tuple(q)), OldUniPoly(tuple(rem))


@_dataclass_oracle
class OldRatFunc:
    num: UniPoly = UniPoly()
    den: UniPoly = UniPoly.constant(1)

    def __post_init__(self) -> None:
        num, den = self.num, self.den
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            num, den = UniPoly(), UniPoly.constant(1)
        else:
            _, num, den = uni_cofactors_oracle(num, den)
            lc = den.coeff(den.degree)
            if lc != 1:
                num, den = num * (1 / lc), den * (1 / lc)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)


@_dataclass_oracle
class OldTriHomPoly:
    """Also the oracle for the integer arithmetic of ``TriHomPoly``: its
    earlier Fraction ``+``, ``-``, ``*``, ``partial`` and ``evaluate``, and a
    term-by-term ``substitute``."""

    degree: int
    terms: Tuple[Tuple[Tuple[int, int, int], Fraction], ...] = ()

    def __post_init__(self) -> None:
        if self.degree < 0:
            raise ValueError("homogeneous degree must be >= 0")
        acc: Dict[Tuple[int, int, int], Fraction] = {}
        for exps, coeff in self.terms:
            i, j, k = exps
            if min(i, j, k) < 0 or i + j + k != self.degree:
                raise ValueError(f"monomial {exps} is not homogeneous of degree {self.degree}")
            c, e = _frac(coeff), (i, j, k)
            acc[e] = acc[e] + c if e in acc else c
        cleaned = tuple(sorted(((e, c) for e, c in acc.items() if c), reverse=True))
        object.__setattr__(self, "terms", cleaned)

    def __add__(self, other):
        if self.degree != other.degree:
            raise ValueError("cannot add homogeneous polynomials of different degrees")
        acc = dict(self.terms)
        for e, c in other.terms:
            acc[e] = acc[e] + c if e in acc else c
        return OldTriHomPoly(self.degree, tuple(acc.items()))

    def __neg__(self):
        return OldTriHomPoly(self.degree, tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, OldTriHomPoly):
            return OldTriHomPoly(self.degree, tuple((e, c * _frac(other)) for e, c in self.terms))
        acc: Dict[Tuple[int, int, int], Fraction] = {}
        for (i1, j1, k1), c1 in self.terms:
            for (i2, j2, k2), c2 in other.terms:
                e = (i1 + i2, j1 + j2, k1 + k2)
                acc[e] = acc[e] + c1 * c2 if e in acc else c1 * c2
        return OldTriHomPoly(self.degree + other.degree, tuple(acc.items()))

    def partial(self, axis: int):
        acc = {}
        for e, c in self.terms:
            if e[axis]:
                new = list(e)
                new[axis] -= 1
                acc[tuple(new)] = c * e[axis]
        return OldTriHomPoly(max(self.degree - 1, 0), tuple(acc.items()))

    def evaluate(self, point) -> Fraction:
        a, b, c = (_frac(v) for v in point)
        return sum((coeff * a**i * b**j * c**k for (i, j, k), coeff in self.terms), Fraction(0))

    def substitute(self, images):
        total = OldTriHomPoly(self.degree * images[0].degree)
        for exps, coeff in self.terms:
            term = OldTriHomPoly(0, (((0, 0, 0), coeff),))
            for g, n in zip(images, exps):
                for _ in range(n):
                    term = term * g
            total = total + term
        return total


@_dataclass_oracle
class OldPointSpec:
    label: str
    coords: Optional[Tuple[Fraction, Fraction, Fraction]] = None

    def __post_init__(self) -> None:
        if not isinstance(self.label, str) or not self.label:
            raise InvalidCurveData("point labels must be nonempty strings")
        if self.coords is not None:
            cs = tuple(_frac(c) for c in self.coords)
            if len(cs) != 3:
                raise InvalidCurveData("projective coordinates need three entries")
            if all(c == 0 for c in cs):
                raise InvalidCurveData(f"point {self.label!r}: coordinates are all zero")
            object.__setattr__(self, "coords", cs)


@_dataclass_oracle
class OldSingularityData:
    point: PointSpec
    multiplicity: int

    def __post_init__(self) -> None:
        if not isinstance(self.multiplicity, int) or self.multiplicity < 2:
            raise InvalidCurveData(
                f"point {self.point.label!r}: singular multiplicity must be an integer >= 2"
            )


@_dataclass_oracle
class OldCurveCheck:
    name: str
    passed: bool
    detail: str = ""


@_dataclass_oracle
class OldCurveReport:
    checks: Tuple[CurveCheck, ...]


@_dataclass_oracle
class OldPlaneCurveModel:
    degree: int
    singularities: Tuple[SingularityData, ...] = ()
    defining_poly: Optional[TriHomPoly] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "singularities", tuple(self.singularities))
        failures = [
            c
            for c in _structural_checks(self.degree, self.singularities, self.defining_poly)
            if not c.passed
        ]
        if failures:
            msgs = "; ".join(f"{c.name}: {c.detail}" for c in failures)
            raise InvalidCurveData(msgs)


@_dataclass_oracle
class OldCremonaMap:
    f0: TriHomPoly
    f1: TriHomPoly
    f2: TriHomPoly

    def __post_init__(self) -> None:
        if not (self.f0.degree == self.f1.degree == self.f2.degree):
            raise ValueError("map components must share one degree")
        if self.f0.is_zero and self.f1.is_zero and self.f2.is_zero:
            raise ValueError("map components are all zero")


@_dataclass_oracle
class OldLinSysData:
    degree: int
    mults: Tuple[Tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.degree, int) or self.degree < 0:
            raise DegenerateSystem(f"linear system with negative degree {self.degree}")
        seen: Dict[str, int] = {}
        for label, m in self.mults:
            if not isinstance(m, int) or m < 0:
                raise DegenerateSystem(f"negative multiplicity {m} at {label!r}")
            if label in seen:
                raise DegenerateSystem(f"duplicate label {label!r}")
            if m > 0:
                seen[label] = m
        object.__setattr__(self, "mults", tuple(sorted(seen.items())))


@_dataclass_oracle
class OldRemovedComponent:
    kind: str
    labels: Tuple[str, ...]
    count: int
    system: LinSysData


@_dataclass_oracle
class OldPencilReduction:
    content: int
    pencil: LinSysData


@_dataclass_oracle
class OldChainStep:
    input: LinSysData
    raw_adjoint: LinSysData
    removed_fixed: Tuple[RemovedComponent, ...]
    reduced: LinSysData
    pencil_reduction: Optional[PencilReduction]
    warnings: Tuple[str, ...] = ()


@_dataclass_oracle
class OldChainReport:
    steps: Tuple[ChainStep, ...]
    terminal: LinSysData
    classification: Classification
    warnings: Tuple[str, ...] = ()


@_dataclass_oracle
class OldJonqElement:
    a1: RatFunc
    a2: RatFunc
    h: UniPoly

    def __post_init__(self) -> None:
        _check_h(self.h)
        if self.a1.is_zero and self.a2.is_zero:
            raise InvalidElement("a1 and a2 cannot both vanish")
        det = self.a1 * self.a1 - RatFunc.of(self.h) * (self.a2 * self.a2)
        if det.is_zero:
            raise InvalidElement("determinant a1^2 - h a2^2 vanishes")
        object.__setattr__(self, "_det", det)


@_dataclass_oracle
class OldOrderReport:
    order: Union[int, str]
    lam: RatFunc
    lam_constant: bool
    conclusion_holds: bool
    note: str


@_dataclass_oracle
class OldPencilType:
    degree: int
    mults: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.degree, int) or self.degree < 1:
            raise ValueError(f"pencil degree must be >= 1, got {self.degree}")
        ms = tuple(sorted(self.mults, reverse=True))
        if ms and ms[-1] < 1:
            raise ValueError("base multiplicities must be >= 1")
        object.__setattr__(self, "mults", ms)


@_dataclass_oracle
class OldPencilCheckReport:
    degree: int
    mults: Tuple[int, ...]
    genus_residual: int
    pencil_residual: int
    linear_residual: int
    valid: bool


@_dataclass_oracle
class OldEntryResult:
    name: str
    description: str
    passed: bool
    details: Tuple[str, ...] = ()
