"""Plane birational maps as coprime homogeneous triples.

A map is three homogeneous polynomials of one degree with no common
factor, kept in a canonical form (content removed, first nonzero
component scaled to lex-leading coefficient one) so identity testing is
a syntactic comparison.  Content removal keeps the quotients that
certified the GCD, so this module never divides by one.  Constructors
cover three families:

* ``make_linear_G``  -- the linear maps (a x : y + b x : z + c x), which
  fix the line x = 0 pointwise;
* ``make_H_element`` -- (x, y) -> (x / (alpha(y) x + beta(y)), y) on the
  chart z = 1, fixing the same line and preserving the pencil of lines
  through (1 : 0 : 0);
* ``make_phi``       -- the quadratic involutions
  (-x (mu y + nu z) : y (x + mu y + nu z) : z (x + mu y + nu z)).

``make_H_element``, like ``jonquieres.to_cremona``, moves one affine
coordinate by a Moebius transformation over the rational functions of the
other; ``_jonquieres_map`` builds both.  ``make_phi`` is built directly: the
builder's triple for it is z times phi, which a degree cap of 2 would refuse.

``fixes_curve_pointwise`` certifies that a map fixes a curve pointwise
(where defined) by exact divisibility of the 2x2 minors f_i x_j - f_j x_i
by the curve polynomial; exactness is what makes the certificate real.
The minors are built on integers, under one scale for the map, and
divided by the primitive curve polynomial with no Fraction arithmetic.

``CremonaMap(f0, f1, f2)`` canonicalises any triple but does not certify
that it is birational: only triples coming from the constructors are known
maps.  Degrees are capped by the environment variable
CREMONA_KIT_MAX_DEGREE (default 24) to keep exact arithmetic bounded (map
JSON declaring a larger degree is refused before its components are read;
``serialization`` applies the same cap to the polynomials of group elements
and curves).
"""

from __future__ import annotations

import math
import os
from collections.abc import Sequence

from ._record import Record
from .errors import DegreeCapExceeded
from .exact_algebra import (
    RatFunc,
    TRI_X,
    TRI_Y,
    TRI_Z,
    TriHomPoly,
    UniPoly,
    _BiPoly,
    _axpy,
    _divides,
    _frac,
    _over,
    _primitive_parts,
    _substitute,
    homogenize_uni,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .exact_algebra import RationalLike

DEFAULT_MAX_DEGREE = 24
_ENV_MAX_DEGREE = "CREMONA_KIT_MAX_DEGREE"


def max_degree_cap() -> int:
    raw = os.environ.get(_ENV_MAX_DEGREE)
    if raw is None:
        return DEFAULT_MAX_DEGREE
    try:
        return int(raw)
    except ValueError:
        raise DegreeCapExceeded(
            f"{_ENV_MAX_DEGREE} must be an integer, got {raw!r}"
        ) from None


def _check_cap(degree: int, context: str) -> None:
    cap = max_degree_cap()
    if degree > cap:
        raise DegreeCapExceeded(
            f"{context} needs degree {degree}, above the cap {cap} "
            f"(raise {_ENV_MAX_DEGREE} to allow it)"
        )


class CremonaMap(Record):
    """Birational self-map of the plane in canonical coprime form."""

    __slots__ = ("f0", "f1", "f2")

    def __init__(self, f0: TriHomPoly, f1: TriHomPoly, f2: TriHomPoly) -> None:
        """Canonicalise the triple.

        The content comes from one gcd on the components' integer forms; a
        triple already canonical is kept as it is, and any other is rebuilt
        from the integer quotients, scaled to lead with one.
        """
        if not (f0.degree == f1.degree == f2.degree):
            raise ValueError("map components must share one degree")
        if not (f0._body or f1._body or f2._body):
            raise ValueError("map components are all zero")
        _, comps = _primitive_parts((f0, f1, f2), normalise=True)
        if comps[0].degree < 1:
            raise ValueError("map degenerates to a constant triple")
        _check_cap(comps[0].degree, "map construction")
        self._init(*comps)

    @property
    def degree(self) -> int:
        return self.f0.degree

    @property
    def components(self) -> tuple[TriHomPoly, TriHomPoly, TriHomPoly]:
        return (self.f0, self.f1, self.f2)

    @classmethod
    def of(cls, f0: TriHomPoly, f1: TriHomPoly, f2: TriHomPoly) -> "CremonaMap":
        """``CremonaMap(f0, f1, f2)``, under the name every producer calls."""
        return cls(f0, f1, f2)


def make_linear_G(a: RationalLike, b: RationalLike, c: RationalLike) -> CremonaMap:
    """The linear map (a x : y + b x : z + c x); requires a != 0."""
    a, b, c = _frac(a), _frac(b), _frac(c)
    if a == 0:
        raise ValueError("the x-scaling coefficient a must be nonzero")
    return CremonaMap.of(
        TriHomPoly.of({(1, 0, 0): a}),
        TriHomPoly.of({(0, 1, 0): 1, (1, 0, 0): b}, degree=1),
        TriHomPoly.of({(0, 0, 1): 1, (1, 0, 0): c}, degree=1),
    )


def _common_denominator(dens: Sequence[UniPoly]) -> tuple[UniPoly, list[UniPoly]]:
    """(D, [D / d for d in dens]), D the lcm of monic dens, by gcd cofactors;
    a unit d, of degree 0, takes no gcd: its cofactor is D, and D stays."""
    D, cofactors = dens[0], [UniPoly.constant(1)]
    for d in dens[1:]:
        a = D
        if d.degree:
            _, (a, b) = _primitive_parts((D, d))
            if b.degree > 0:
                D, cofactors = D * b, [c * b for c in cofactors]
        cofactors.append(a)
    return D, cofactors


def _jonquieres_map(entries: Sequence[RatFunc], axis: int) -> CremonaMap:
    """Homogenise u -> (a11 u + a12) / (a21 u + a22), v -> v on the chart
    z = 1, for u = x and v = y (axis 0) or u = y and v = x (axis 1), with
    ``entries`` (a11, a12, a21, a22) rational functions of v.

    The entries are put over their monic lcm, built from gcd cofactors,
    giving polynomials p_ij in v; with M the least degree that holds them,
    u, v and z go to z (u P11 + P12), v (u P21 + P22) and z (u P21 + P22),
    each p_ij homogenised in (v, z) to degree M - 1 (P11, P21) or M (P12,
    P22).  Content removal then yields the coprime form.
    """
    _, cofactors = _common_denominator([e.den for e in entries])
    p11, p12, p21, p22 = (e.num * c for e, c in zip(entries, cofactors))
    deg = max(1, p11.degree + 1, p12.degree, p21.degree + 1, p22.degree)
    _check_cap(deg + 1, "homogenising the map")
    u, v = (TRI_X, TRI_Y)[axis], 1 - axis
    num = u * homogenize_uni(p11, v, deg - 1) + homogenize_uni(p12, v, deg)
    den = u * homogenize_uni(p21, v, deg - 1) + homogenize_uni(p22, v, deg)
    moved, fixed = TRI_Z * num, (TRI_X, TRI_Y)[v] * den
    return CremonaMap.of(*((moved, fixed) if axis == 0 else (fixed, moved)), TRI_Z * den)


def make_H_element(alpha: RatFunc, beta: RatFunc) -> CremonaMap:
    """(x, y) -> (x / (alpha(y) x + beta(y)), y) homogenised; beta != 0.

    alpha and beta are rational functions of the affine coordinate y.
    """
    alpha, beta = RatFunc.of(alpha), RatFunc.of(beta)
    if beta.is_zero:
        raise ValueError("beta must be nonzero")
    return _jonquieres_map((RatFunc.of(1), RatFunc.of(0), alpha, beta), 0)


def make_phi(mu: RationalLike, nu: RationalLike) -> CremonaMap:
    """The quadratic involution with parameters (mu, nu) != (0, 0).

    (x : y : z) -> (-x (mu y + nu z) : y (x + mu y + nu z) : z (x + mu y + nu z));
    it fixes the line x = 0 pointwise.
    """
    mu, nu = _frac(mu), _frac(nu)
    if mu == 0 and nu == 0:
        raise ValueError("mu and nu cannot both vanish")
    l = TriHomPoly.of({(0, 1, 0): mu, (0, 0, 1): nu}, degree=1)
    m = TRI_X + l
    return CremonaMap.of(-1 * (TRI_X * l), TRI_Y * m, TRI_Z * m)


def compose(F: CremonaMap, G: CremonaMap) -> CremonaMap:
    """F after G: G's components substituted into F's three by one pass of
    the substitution kernel, then content removed.  Never the zero triple:
    G's coprime components do not map the plane to a point, and F's have
    finitely many common zeros."""
    _check_cap(F.degree * G.degree, "composition")
    return CremonaMap.of(*_substitute(F.components, G.components))


def is_identity(F: CremonaMap) -> bool:
    # Every map is canonical, so the identity is exactly the triple (x, y, z).
    return F.components == (TRI_X, TRI_Y, TRI_Z)


def fixes_curve_pointwise(F: CremonaMap, c: TriHomPoly) -> bool:
    """True iff c divides every minor f_i x_j - f_j x_i (i < j).

    Divisibility of all three minors says F(p) is projectively equal to p
    along the curve c = 0, i.e. the map fixes the curve pointwise wherever
    it is defined.  A nonzero constant has no zeros, so it is refused
    rather than reported as fixed.
    """
    if c.is_zero:
        raise ValueError("curve polynomial must be nonzero")
    if c.degree == 0:
        raise ValueError("curve polynomial must have positive degree")
    # On the chart z = 1, over one integer scale of the map: multiplying by
    # x, y or z shifts exponents by (1, 0), (0, 1) or (0, 0).
    den = math.lcm(*(f._den for f in F.components))
    f0, f1, f2 = (_over(f, den) for f in F.components)
    x, y, z = (1, 0), (0, 1), (0, 0)
    return all(
        _divides(c, F.degree + 1, _minor(a, sa, b, sb))
        for a, sa, b, sb in ((f0, y, f1, x), (f0, z, f2, x), (f1, z, f2, y))
    )


def _minor(a: _BiPoly, sa: tuple[int, int], b: _BiPoly, sb: tuple[int, int]) -> _BiPoly:
    """a * x^sa[0] y^sa[1] - b * x^sb[0] y^sb[1], with no zero coefficient."""
    (ai, aj), (bi, bj) = sa, sb
    shifted_a = {(i + ai, j + aj): v for (i, j), v in a.items()}
    return _axpy(shifted_a, -1, {(i + bi, j + bj): v for (i, j), v in b.items()})

