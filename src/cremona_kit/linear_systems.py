"""Numerical linear systems on general-position points and adjoint chains.

A :class:`LinSysData` is the pair (degree n; multiplicities mu_i at
labelled points), the object the adjoint operation rewrites.  Everything
here is integer arithmetic under the general-position assumption:

* fixed components are detected by Bezout counts against lines (pairs of
  points with mu_i + mu_j > n) and conics (5-point subsets with total
  multiplicity > 2n) and subtracted one at a time until no rule applies.
  Each time the first applicable rule is taken, lines before conics and
  lexicographic on the sorted labels within a kind; it is read off the
  largest multiplicities overall and of each suffix in label order,
  without listing the pairs and 5-subsets;
* a system whose degree and multiplicities share a content c >= 2 is
  decomposed as c copies of its primitive part when that part is
  numerically a rational pencil (genus 0, self-intersection 0, so dim 1);
* the adjoint of a system lowers the degree by 3 and every multiplicity
  by 1, and exists only above genus 1, so chains terminate after at most
  degree/3 steps, at a system of genus <= 1.  No system of a chain is
  empty: the adjoint of a genus-g system has dimension g - 1 >= 1, as
  d(d - 3) = (d - 1)(d - 2) - 2, no line or conic rule lowers it, and a
  rational pencil has dimension 1.

Line/conic detection suffices for every configuration this package is
used on; should a higher-degree fixed component survive, the numbers turn
inconsistent (negative self-intersection) and a warning is attached to
the step rather than silently guessing.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left
from operator import itemgetter, mul
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from ._record import Record
from .curve_model import PlaneCurveModel
from .errors import (
    AdjointDoesNotExist,
    DegenerateSystem,
    NegativeDegree,
    NegativeMultiplicity,
)

Mults = Union[Mapping[str, int], Iterable[Tuple[str, int]]]


class LinSysData(Record):
    """Numerical linear system: degree plus point multiplicities.

    Zero multiplicities are dropped and labels are kept sorted, so equal
    systems compare equal structurally.  ``_sums`` is a private cache.
    """

    __slots__ = ("degree", "mults", "_sums")

    def __init__(self, degree: int, mults: Tuple[Tuple[str, int], ...] = ()) -> None:
        if type(degree) is not int or degree < 0:  # bool and other int subclasses refused
            fault = "negative" if type(degree) is int else "non-integer"
            raise DegenerateSystem(f"linear system with {fault} degree {degree!r}")
        seen: Dict[str, int] = {}
        for label, m in mults:
            if type(m) is not int or m < 0:
                fault = "negative" if type(m) is int else "non-integer"
                raise DegenerateSystem(f"{fault} multiplicity {m!r} at {label!r}")
            if label in seen:
                raise DegenerateSystem(f"duplicate label {label!r}")
            if m > 0:
                seen[label] = m
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "mults", tuple(sorted(seen.items())))

    @classmethod
    def _sorted(cls, degree: int, mults: Tuple[Tuple[str, int], ...]) -> "LinSysData":
        """Trusted constructor of the form ``__init__`` builds: degree >= 0,
        labels distinct and sorted, every multiplicity >= 1."""
        L = object.__new__(cls)
        object.__setattr__(L, "degree", degree)
        object.__setattr__(L, "mults", mults)
        return L

    def __getstate__(self):
        # Copies and pickles hold the fields only, never the cached sums.
        return None, {"degree": self.degree, "mults": self.mults}

    @classmethod
    def of(cls, degree: int, mults: Mults = ()) -> "LinSysData":
        pairs = mults.items() if isinstance(mults, Mapping) else mults
        return cls(degree, tuple(pairs))

    def mult(self, label: str) -> int:
        return dict(self.mults).get(label, 0)

    def labels(self) -> Tuple[str, ...]:
        return tuple(l for l, _ in self.mults)

    def __str__(self) -> str:
        if not self.mults:
            return f"({self.degree}; -)"
        inner = ", ".join(f"{l}:{m}" for l, m in self.mults)
        return f"({self.degree}; {inner})"


def _sums(L: LinSysData) -> Tuple[int, int]:
    """(sum mu, sum mu^2), computed once per system."""
    try:
        return L._sums
    except AttributeError:
        ms = list(map(itemgetter(1), L.mults))
        sums = sum(ms), sum(map(mul, ms, ms))
        object.__setattr__(L, "_sums", sums)
        return sums


def virtual_dim(L: LinSysData) -> int:
    """Expected projective dimension n(n+3)/2 - sum mu(mu+1)/2 (may be < 0)."""
    s, q = _sums(L)
    return L.degree * (L.degree + 3) // 2 - (q + s) // 2


def member_genus(L: LinSysData) -> int:
    """Genus of a general member: (n-1)(n-2)/2 - sum mu(mu-1)/2."""
    s, q = _sums(L)
    return (L.degree - 1) * (L.degree - 2) // 2 - (q - s) // 2


def self_intersection(L: LinSysData) -> int:
    """n^2 - sum mu^2, the intersection of two general members off the base."""
    return L.degree**2 - _sums(L)[1]


def _numerical_data(source: Union[PlaneCurveModel, LinSysData]) -> LinSysData:
    if isinstance(source, PlaneCurveModel):
        return LinSysData.of(source.degree, source.mult_map())
    return source


def adjoint_raw(source: Union[PlaneCurveModel, LinSysData]) -> LinSysData:
    """(d; m_i) -> (d-3; m_i-1), defined only above genus 1.

    Accepts a curve model or a linear system; only the numerical data
    enters, so a system is treated as a general member curve.
    """
    data = _numerical_data(source)
    g = member_genus(data)
    if g <= 1:
        raise AdjointDoesNotExist(f"adjoint requires genus > 1, got genus {g}")
    return LinSysData._sorted(data.degree - 3, tuple((l, m - 1) for l, m in data.mults if m > 1))


# -- fixed-component removal --------------------------------------------------

_Rule = Tuple[str, Tuple[str, ...]]


class RemovedComponent(Record):
    """A line or conic subtracted from a system, with repetition count;
    ``system`` is one copy of the subtracted system."""

    __slots__ = ("kind", "labels", "count", "system")

    @classmethod
    def single(cls, kind: str, labels: Tuple[str, ...], count: int) -> "RemovedComponent":
        degree = 1 if kind == "line" else 2
        return cls(kind, labels, count, LinSysData._sorted(degree, tuple((l, 1) for l in labels)))


def _first_rule(n: int, labels: Sequence[str], m: Sequence[int]) -> Optional[_Rule]:
    """The first Bezout rule that applies to the sorted ``labels`` with
    multiplicities ``m`` >= 1, or None.

    The order is that of listing every line (pair with m_i + m_j > n) and
    then every conic (5-subset with sum > 2n), each lexicographically on
    the labels.  A line applies iff the two largest m sum to more than n,
    and a conic iff the five largest exist and sum to more than 2n, so one
    C-level sort of the k multiplicities settles the common case, None.
    Otherwise some rule applies.  A prefix of chosen points extends to a
    rule exactly when its sum plus the largest multiplicities after its
    last point is large enough, so each pass of the conic loop breaks, and
    the first rule is found greedily from the top four of each suffix, in
    O(k log k).
    """
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
    for left in range(5, 0, -1):  # points still to choose, this one included
        for i in range(chosen[-1] + 1 if chosen else 0, k - left + 1):
            if total + m[i] + sum(top[i + 1][: left - 1]) > 2 * n:
                chosen.append(i)
                total += m[i]
                break
    return "conic", tuple(labels[i] for i in chosen)


def remove_fixed_components(
    L: LinSysData,
) -> Tuple[LinSysData, Tuple[RemovedComponent, ...]]:
    """Subtract forced lines and conics until no Bezout rule applies.

    Deterministic order: at each step the first applicable rule is taken,
    scanning lines before conics and lexicographically on the sorted
    labels within each kind.  That rule is computed directly from the
    multiplicities in label order (see :func:`_first_rule`), in O(k log k)
    per rule applied for k points, and one sort when none applies; the
    labels are never sorted again.

    On usable systems (virtual dimension >= 1) the rewriting is confluent,
    so the order fixes only the trace, never the result: applying a rule
    never lowers the virtual dimension, and two rules can interfere only
    through a shared point of multiplicity 1, which forces the dimension
    negative.  Numerically empty inputs carry no such guarantee.
    """
    n, labels, m = L.degree, list(map(itemgetter(0), L.mults)), list(map(itemgetter(1), L.mults))
    counts: Dict[_Rule, int] = {}
    while (rule := _first_rule(n, labels, m)) is not None:
        n -= 1 if rule[0] == "line" else 2
        if n < 0:
            raise DegenerateSystem(
                "fixed-component removal drove the degree negative; input numerics are inconsistent"
            )
        for l in rule[1]:
            m[bisect_left(labels, l)] -= 1
        if 0 in m:  # drop the points that reached multiplicity 0, keeping the order
            labels, m = [l for l, v in zip(labels, m) if v], [v for v in m if v]
        counts[rule] = counts.get(rule, 0) + 1
    if not counts:
        return L, ()
    removed = tuple(
        RemovedComponent.single(kind, ls, counts[kind, ls])
        for kind, ls in sorted(counts, key=lambda r: (0 if r[0] == "line" else 1, r[1]))
    )
    return LinSysData._sorted(n, tuple(zip(labels, m))), removed


# -- pencil decomposition ------------------------------------------------------


class PencilReduction(Record):
    """A system written as `content` copies of an irreducible pencil."""

    __slots__ = ("content", "pencil")


def pencil_decompose(L: LinSysData) -> Optional[PencilReduction]:
    """Detect a system composed of a rational pencil, numerically.

    Returns (c, P) when degree and multiplicities share a content c >= 2
    and the primitive part P is a rational pencil by the numbers: member
    genus 0 and self-intersection 0, so virtual dimension 1, since
    vdim = selfint - genus + 1.  Otherwise None and the system is treated
    as irreducible.  Assumes fixed components were already removed.
    """
    c = math.gcd(L.degree, *map(itemgetter(1), L.mults))
    if c < 2:
        return None
    P = LinSysData._sorted(L.degree // c, tuple((l, m // c) for l, m in L.mults))
    if member_genus(P) == 0 and self_intersection(P) == 0:
        return PencilReduction(c, P)
    return None


# -- one adjoint step and the full chain --------------------------------------


class ChainStep(Record):
    """One application of adjoint + fixed-part removal + pencil reduction."""

    __slots__ = ("input", "raw_adjoint", "removed_fixed", "reduced", "pencil_reduction", "warnings")
    _defaults = ((),)

    @property
    def output(self) -> LinSysData:
        if self.pencil_reduction is not None:
            return self.pencil_reduction.pencil
        return self.reduced


class Classification(str, enum.Enum):
    RATIONAL_PENCIL = "RationalPencil"
    ELLIPTIC_PENCIL = "EllipticPencil"
    ELLIPTIC_NET = "EllipticNet"
    RATIONAL_SYSTEM = "RationalSystem"
    EXHAUSTED = "Exhausted"


class ChainReport(Record):
    __slots__ = ("steps", "terminal", "classification", "warnings")
    _defaults = ((),)


def adjoint_step(L: LinSysData) -> ChainStep:
    """Adjoint of a system followed by removal and pencil reduction."""
    raw = adjoint_raw(L)
    reduced, removed = remove_fixed_components(raw)
    warnings: List[str] = []
    # The reduced system has dimension >= 1 (see the module docstring), and
    # a fixed-part-free one meets itself nonnegatively off the base points;
    # a negative count here means a fixed component beyond lines and conics
    # escaped the Bezout rules.
    if self_intersection(reduced) < 0:
        warnings.append(
            f"system {reduced} has negative self-intersection after removing lines "
            "and conics; a higher-degree fixed component was probably missed"
        )
    pr = pencil_decompose(reduced)
    return ChainStep(L, raw, removed, reduced, pr, tuple(warnings))


def _classify_terminal(g: int, dim: int) -> Tuple[Classification, Optional[str]]:
    if g == 0 and dim == 1:
        return Classification.RATIONAL_PENCIL, None
    if g == 1 and dim == 1:
        return Classification.ELLIPTIC_PENCIL, None
    if g == 1 and dim == 2:
        return Classification.ELLIPTIC_NET, None
    if g == 0:  # dim >= 2, as no system of a chain is empty
        return Classification.RATIONAL_SYSTEM, None
    return (
        Classification.EXHAUSTED,
        f"terminal system with genus {g} and dimension {dim} does not fit the "
        "rational/elliptic case split",
    )


def adjoint_chain(source: Union[PlaneCurveModel, LinSysData]) -> ChainReport:
    """Iterate the adjoint until the general member has genus <= 1.

    The chain starts from the numerical data of a curve (or system) of
    genus > 1 and applies :func:`adjoint_step` while the member genus of
    the current system is above 1.  Every system it meets has dimension
    >= 1 (see the module docstring).  The terminal is classified by
    (genus, dimension); Exhausted, with a warning, when that pair fits
    none of the rational and elliptic cases.
    """
    current = _numerical_data(source)
    g = member_genus(current)
    if g <= 1:
        raise AdjointDoesNotExist(f"adjoint chain requires genus > 1, got genus {g}")
    max_steps = current.degree // 3 + 1
    steps: List[ChainStep] = []
    warnings: List[str] = []
    while g > 1:
        if len(steps) > max_steps:
            raise AssertionError("adjoint chain failed to terminate")
        step = adjoint_step(current)
        steps.append(step)
        warnings.extend(step.warnings)
        current = step.output
        g = member_genus(current)
    classification, note = _classify_terminal(g, virtual_dim(current))
    if note:
        warnings.append(note)
    return ChainReport(tuple(steps), current, classification, tuple(warnings))


# -- quadratic transformations -------------------------------------------------


def quadratic_transform(L: LinSysData, base: Sequence[str]) -> LinSysData:
    """Degree/multiplicity rules of a quadratic map based at three points.

    n' = 2n - mu1 - mu2 - mu3, and at the image of each base point the new
    multiplicity is n minus the other two base multiplicities.  Labels are
    preserved; base labels absent from the system count as multiplicity 0
    and may acquire positive multiplicity.
    """
    b = tuple(base)
    if len(b) != 3 or len(set(b)) != 3:
        raise ValueError("a quadratic transform needs three distinct base labels")
    mu = [L.mult(l) for l in b]
    s = sum(mu)
    n2 = 2 * L.degree - s
    if n2 < 0:
        raise NegativeDegree(
            f"base {b} is not admissible for {L}: transformed degree {n2} < 0"
        )
    new = dict(L.mults)
    for i, label in enumerate(b):
        m2 = L.degree - (s - mu[i])
        if m2 < 0:
            raise NegativeMultiplicity(
                f"base {b} is not admissible for {L}: multiplicity {m2} < 0 at {label!r}"
            )
        new[label] = m2
    return LinSysData.of(n2, new)
