"""Plane curve data: degree plus singular points read as ordinary.

A :class:`PlaneCurveModel` is numerical data first: the degree and a list
of labelled singular points with multiplicities, assumed ordinary and in
general position.  Coordinates are optional and only used to verify the
declared multiplicities against an optional defining polynomial.

Irreducibility and ordinariness are assertions by the caller, not
something this module verifies (irreducibility would need factorisation
over Q); every model is read as "an irreducible curve with this numerical
behaviour".  A point that is not ordinary is read as one all the same, so
the genus of a curve with such a point comes out too large.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

from ._record import Record
from .errors import InvalidCurveData
from .exact_algebra import TRI_X, TRI_Y, TRI_Z, TriHomPoly, _frac, tri_content_gcd

TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction

    from .exact_algebra import RationalLike


class PointSpec(Record):
    """A labelled point, optionally with projective coordinates."""

    __slots__ = ("label", "coords")

    def __init__(
        self, label: str, coords: tuple[Fraction, Fraction, Fraction] | None = None
    ) -> None:
        if not isinstance(label, str) or not label:
            raise InvalidCurveData("point labels must be nonempty strings")
        if coords is not None:
            coords = tuple(_frac(c) for c in coords)
            if len(coords) != 3:
                raise InvalidCurveData("projective coordinates need three entries")
            if all(c == 0 for c in coords):
                raise InvalidCurveData(f"point {label!r}: coordinates are all zero")
        self._init(label, coords)


class SingularityData(Record):
    """A singular point of the given multiplicity, read as ordinary: nothing
    here or in ``validate`` certifies that its tangents are distinct."""

    __slots__ = ("point", "multiplicity")

    def __init__(self, point: PointSpec, multiplicity: int) -> None:
        if not isinstance(multiplicity, int) or multiplicity < 2:
            raise InvalidCurveData(
                f"point {point.label!r}: singular multiplicity must be an integer >= 2"
            )
        self._init(point, multiplicity)

    @property
    def label(self) -> str:
        return self.point.label


class CurveCheck(Record):
    __slots__ = ("name", "passed", "detail")
    _defaults = ("",)


class CurveReport(Record):
    __slots__ = ("checks",)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _genus_value(degree: int, mults: Sequence[int]) -> int:
    return (degree - 1) * (degree - 2) // 2 - sum(m * (m - 1) // 2 for m in mults)


class PlaneCurveModel(Record):
    """Degree-d plane curve with singularities read as ordinary and in
    general position."""

    __slots__ = ("degree", "singularities", "defining_poly")

    def __init__(
        self,
        degree: int,
        singularities: tuple[SingularityData, ...] = (),
        defining_poly: TriHomPoly | None = None,
    ) -> None:
        self._init(degree, tuple(singularities), defining_poly)
        failures = [
            c
            for c in _structural_checks(self.degree, self.singularities, self.defining_poly)
            if not c.passed
        ]
        if failures:
            msgs = "; ".join(f"{c.name}: {c.detail}" for c in failures)
            raise InvalidCurveData(msgs)

    def mult_map(self) -> dict[str, int]:
        return {s.label: s.multiplicity for s in self.singularities}


def genus(c: PlaneCurveModel) -> int:
    """Geometric genus (d-1)(d-2)/2 - sum m_i(m_i-1)/2 for ordinary points."""
    return _genus_value(c.degree, [s.multiplicity for s in c.singularities])


def multiplicity_at(f: TriHomPoly, point: Sequence[RationalLike]) -> int:
    """Multiplicity of f at the point: 0 off the curve, 1 at a smooth point,
    m >= 2 at an m-fold point.

    One substitution moves the point to (0:0:1).  With P the point scaled to
    integers and P_r != 0, coordinate r goes to P_r z and the other two to
    x + P_a z and y + P_b z, an invertible map (determinant +-P_r) that
    sends (0:0:1) to P.  The multiplicity at (0:0:1) is the least total
    degree in x and y over the body (Fulton, Algebraic Curves, 3.1).
    """
    if f.is_zero:
        raise ValueError("multiplicity of the zero polynomial is undefined")
    pt = tuple(_frac(v) for v in point)
    if len(pt) != 3 or all(v == 0 for v in pt):
        raise ValueError("expected a valid projective point")
    s = math.lcm(*(v.denominator for v in pt))
    P = [v.numerator * (s // v.denominator) for v in pt]
    r = max(i for i in range(3) if P[i])
    moved = iter((TRI_X, TRI_Y))
    images = [TRI_Z * c if i == r else next(moved) + TRI_Z * c for i, c in enumerate(P)]
    return min(i + j for i, j in f.substitute(images)._body)


def is_perfect_power(f: TriHomPoly) -> bool:
    """True iff f = g**k for some homogeneous g and integer k >= 2.

    Writing f as a product of irreducible powers prod q_i^{e_i}, the j-th
    iterate w_j of w -> gcd(w_x, w_y, w_z), which is gcd(w, w_x, w_y, w_z)
    by Euler's formula d w = x w_x + y w_y + z w_z, is
    prod q_i^{max(e_i - j, 0)}.  So the factors with e_i > j have degree
    deg w_j - deg w_{j+1}, and a drop of that at j means some e_i = j: no
    factoring, no division.  f is a perfect power iff the multiplicities
    that occur share a factor >= 2.
    """
    if f.is_zero:
        raise ValueError("perfect-power test on the zero polynomial")
    w, degrees = f, [f.degree]
    while w.degree > 0:
        w = tri_content_gcd(w.partial(0), w.partial(1), w.partial(2))
        degrees.append(w.degree)
    radicals = [a - b for a, b in zip(degrees, degrees[1:])] + [0]
    return math.gcd(*(j for j in range(1, len(radicals)) if radicals[j - 1] > radicals[j])) >= 2


def _structural_checks(
    degree: int,
    singularities: Sequence[SingularityData],
    defining_poly: TriHomPoly | None,
) -> list[CurveCheck]:
    """Constructor-level checks (everything except coordinate verification)."""
    checks: list[CurveCheck] = []
    ok = type(degree) is int and degree >= 1  # bool and other int subclasses refused
    checks.append(
        CurveCheck("degree-positive", ok, "" if ok else f"degree {degree} must be >= 1")
    )
    if not ok:
        return checks

    seen: set[str] = set()
    repeated: set[str] = set()
    for s in singularities:
        (repeated if s.label in seen else seen).add(s.label)
    dup = sorted(repeated)
    checks.append(
        CurveCheck("labels-unique", not dup, f"duplicate labels {dup}" if dup else "")
    )

    oversized = [s.label for s in singularities if s.multiplicity > degree]
    checks.append(
        CurveCheck(
            "multiplicity-range",
            not oversized,
            f"multiplicity exceeds degree at {oversized}" if oversized else "",
        )
    )

    g = _genus_value(degree, [s.multiplicity for s in singularities])
    checks.append(
        CurveCheck("genus-nonnegative", g >= 0, f"computed genus {g} is negative" if g < 0 else "")
    )

    if defining_poly is not None:
        if defining_poly.is_zero:
            checks.append(CurveCheck("poly-nonzero", False, "defining polynomial is zero"))
            return checks
        checks.append(CurveCheck("poly-nonzero", True))
        matches = defining_poly.degree == degree
        mismatch = f"polynomial degree {defining_poly.degree} != declared degree {degree}"
        checks.append(CurveCheck("poly-degree-matches", matches, "" if matches else mismatch))
        if matches:
            power = is_perfect_power(defining_poly)
            checks.append(
                CurveCheck(
                    "poly-not-perfect-power",
                    not power,
                    "defining polynomial is a perfect power" if power else "",
                )
            )
    return checks


def validate_curve_data(
    degree: int,
    singularities: Sequence[SingularityData],
    defining_poly: TriHomPoly | None = None,
) -> CurveReport:
    """Full report-style validation, including multiplicity verification.

    Unlike the :class:`PlaneCurveModel` constructor this never raises on
    inconsistent data; every failure lands in the report.
    """
    checks = _structural_checks(degree, singularities, defining_poly)
    structurally_ok = all(c.passed for c in checks)
    if defining_poly is not None and structurally_ok:
        for s in singularities:
            if s.point.coords is None:
                continue
            found = multiplicity_at(defining_poly, s.point.coords)
            checks.append(
                CurveCheck(
                    f"poly-multiplicity-at-{s.label}",
                    found == s.multiplicity,
                    f"declared multiplicity {s.multiplicity}, polynomial has {found}",
                )
            )
    return CurveReport(tuple(checks))


def validate(c: PlaneCurveModel) -> CurveReport:
    """Re-check an already constructed model (adds coordinate verification)."""
    return validate_curve_data(c.degree, c.singularities, c.defining_poly)


def curve_from_mults(degree: int, mults: Iterable[int]) -> PlaneCurveModel:
    """Convenience: build a model on the abstract labels p0, p1, ..."""
    sings = tuple(
        SingularityData(PointSpec(f"p{i}"), m) for i, m in enumerate(mults)
    )
    return PlaneCurveModel(degree, sings)
