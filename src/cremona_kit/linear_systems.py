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

A chain and a single step share one step routine, which carries from step
to step the labels and multiplicities of the current system as two lists
in label order, and its degree and sums (sum mu, sum mu^2) on the system
itself: an adjoint of k points takes the sums (s, q) to (s - k, q - 2s + k)
and each point a removal lowers from mu to mu - 1 takes them to
(s - 1, q - 2mu + 1), so genus, dimension and self-intersection cost O(1)
and no system is sorted or validated again.  Removal runs only at the steps
where one sort of the multiplicities shows that a rule applies.

Line/conic detection suffices for every configuration this package is
used on; should a higher-degree fixed component survive, the numbers turn
inconsistent (negative self-intersection) and a warning is attached to
the step rather than silently guessing.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left
from collections.abc import Iterable, Mapping, Sequence
from itertools import accumulate
from operator import itemgetter, mul

from ._record import Record
from .curve_model import PlaneCurveModel
from .errors import (
    AdjointDoesNotExist,
    DegenerateSystem,
    NegativeDegree,
    NegativeMultiplicity,
)

Mults = Mapping[str, int] | Iterable[tuple[str, int]]


class LinSysData(Record):
    """Numerical linear system: degree plus point multiplicities.

    Zero multiplicities are dropped and labels are kept sorted, so equal
    systems compare equal structurally.  ``_sums`` is a private cache.
    """

    __slots__ = ("degree", "mults", "_sums")

    def __init__(self, degree: int, mults: tuple[tuple[str, int], ...] = ()) -> None:
        if type(degree) is not int or degree < 0:  # bool and other int subclasses refused
            fault = "negative" if type(degree) is int else "non-integer"
            raise DegenerateSystem(f"linear system with {fault} degree {degree!r}")
        seen: dict[str, int] = {}
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
    def _sorted(
        cls, degree: int, mults: tuple[tuple[str, int], ...], sums: tuple[int, int] | None = None
    ) -> "LinSysData":
        """Trusted constructor of the form ``__init__`` builds: degree >= 0,
        labels distinct and sorted, every multiplicity >= 1; ``sums``, when
        the caller knows them, are (sum mu, sum mu^2)."""
        L = object.__new__(cls)
        object.__setattr__(L, "degree", degree)
        object.__setattr__(L, "mults", mults)
        if sums is not None:
            object.__setattr__(L, "_sums", sums)
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

    def __str__(self) -> str:
        if not self.mults:
            return f"({self.degree}; -)"
        inner = ", ".join(f"{l}:{m}" for l, m in self.mults)
        return f"({self.degree}; {inner})"


def _sums(L: LinSysData) -> tuple[int, int]:
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


def free_intersection(L: LinSysData, M: LinSysData) -> int:
    """Intersection of general members away from shared base points: the
    labels that L and M share name the same points."""
    m = dict(M.mults)
    return L.degree * M.degree - sum(mu * m.get(label, 0) for label, mu in L.mults)


def _numerical_data(source: PlaneCurveModel | LinSysData) -> LinSysData:
    if isinstance(source, PlaneCurveModel):
        return LinSysData.of(source.degree, source.mult_map())
    return source


def _columns(L: LinSysData) -> tuple[list[str], list[int]]:
    """The labels and the multiplicities of L, as two lists in label order."""
    return list(map(itemgetter(0), L.mults)), list(map(itemgetter(1), L.mults))


def _adjoint(
    L: LinSysData, labels: list[str], m: list[int]
) -> tuple[LinSysData, list[str], list[int]]:
    """(raw, labels, m): the raw adjoint of L, whose columns are ``labels`` and
    ``m``, with its own.  Each multiplicity drops by 1 and the points it takes
    to 0 drop out, so for k points the sums (s, q) become (s - k, q - 2s + k)."""
    s, q = _sums(L)
    k = len(m)
    if 1 in m:
        labels = [l for l, v in zip(labels, m) if v > 1]
        m = [v - 1 for v in m if v > 1]
    else:
        m = [v - 1 for v in m]
    return LinSysData._sorted(L.degree - 3, tuple(zip(labels, m)), (s - k, q - 2 * s + k)), labels, m


def adjoint_raw(source: PlaneCurveModel | LinSysData) -> LinSysData:
    """(d; m_i) -> (d-3; m_i-1), defined only above genus 1.

    Accepts a curve model or a linear system; only the numerical data
    enters, so a system is treated as a general member curve.
    """
    data = _numerical_data(source)
    g = member_genus(data)
    if g <= 1:
        raise AdjointDoesNotExist(f"adjoint requires genus > 1, got genus {g}")
    return _adjoint(data, *_columns(data))[0]


# -- fixed-component removal --------------------------------------------------

_Rule = tuple[str, tuple[str, ...]]


class RemovedComponent(Record):
    """A line or conic subtracted from a system, with repetition count;
    ``system`` is one copy of the subtracted system."""

    __slots__ = ("kind", "labels", "count", "system")

    @classmethod
    def single(cls, kind: str, labels: tuple[str, ...], count: int) -> "RemovedComponent":
        degree = 1 if kind == "line" else 2
        return cls(kind, labels, count, LinSysData._sorted(degree, tuple((l, 1) for l in labels)))


def _first_kind(n: int, m: Sequence[int]) -> str | None:
    """The kind of the first Bezout rule that applies to multiplicities
    ``m`` >= 1 of degree n, or None.  A line applies iff the two largest m
    sum to more than n, and a conic iff the five largest exist and sum to
    more than 2n; lines come first.  One C-level sort settles it."""
    top = sorted(m, reverse=True)[:5]
    if len(top) >= 2 and top[0] + top[1] > n:
        return "line"
    if len(top) == 5 and sum(top) > 2 * n:
        return "conic"
    return None


def _first_rule(n: int, labels: Sequence[str], m: Sequence[int]) -> _Rule | None:
    """The first Bezout rule that applies to the sorted ``labels`` with
    multiplicities ``m`` >= 1, or None.

    The order is that of listing every line (pair with m_i + m_j > n) and
    then every conic (5-subset with sum > 2n), each lexicographically on
    the labels; :func:`_first_kind` tells which kind comes first.  The first
    line is at the first i whose m_i and the largest multiplicity after it
    sum to more than n, read off one pass of suffix maxima.  For a conic, a
    prefix of chosen points extends to a rule exactly when its sum plus the
    largest multiplicities after its last point is large enough, so the
    first rule is found greedily in one pass over the points, each point
    taken out of a sorted copy of the multiplicities as the pass leaves it:
    one sort and a C-level O(k) per point.
    """
    kind = _first_kind(n, m)
    if kind is None:
        return None
    k = len(m)
    if kind == "line":
        after = list(accumulate(reversed(m), max))  # after[k - 1 - i]: the largest of m[i:]
        i = next(i for i in range(k - 1) if m[i] + after[k - 2 - i] > n)
        j = next(j for j in range(i + 1, k) if m[i] + m[j] > n)
        return "line", (labels[i], labels[j])
    rest = sorted(m, reverse=True)  # m[i + 1:], largest first, at point i
    chosen: list[int] = []
    need, others = 2 * n, 4  # the sum the points still to choose must exceed; their count less 1
    for i, v in enumerate(m):
        rest.remove(v)
        if v + sum(rest[:others]) > need:
            chosen.append(i)
            need -= v
            others -= 1
            if others < 0:
                break
    return "conic", tuple(labels[i] for i in chosen)


def remove_fixed_components(
    L: LinSysData,
) -> tuple[LinSysData, tuple[RemovedComponent, ...]]:
    """Subtract forced lines and conics until no Bezout rule applies.

    Deterministic order: at each step the first applicable rule is taken,
    scanning lines before conics and lexicographically on the sorted
    labels within each kind.  That rule is computed directly from the
    multiplicities in label order (see :func:`_first_rule`), in one sort
    and one pass over the points per rule applied, and one sort when none
    applies; the labels are never sorted again, and the sums (sum mu,
    sum mu^2) are updated per removal.

    On usable systems (virtual dimension >= 1) the rewriting is confluent,
    so the order fixes only the trace, never the result: applying a rule
    never lowers the virtual dimension, and two rules can interfere only
    through a shared point of multiplicity 1, which forces the dimension
    negative.  Numerically empty inputs carry no such guarantee.
    """
    n, (labels, m), (s, q) = L.degree, _columns(L), _sums(L)
    counts: dict[_Rule, int] = {}
    while (rule := _first_rule(n, labels, m)) is not None:
        n -= 1 if rule[0] == "line" else 2
        if n < 0:
            raise DegenerateSystem(
                "fixed-component removal drove the degree negative; input numerics are inconsistent"
            )
        for l in rule[1]:
            i = bisect_left(labels, l)
            v = m[i] = m[i] - 1
            s, q = s - 1, q - 2 * v - 1
        if 0 in m:  # drop the points that reached multiplicity 0, keeping the order
            labels, m = [l for l, v in zip(labels, m) if v], [v for v in m if v]
        counts[rule] = counts.get(rule, 0) + 1
    if not counts:
        return L, ()
    removed = tuple(
        RemovedComponent.single(kind, ls, counts[kind, ls])
        for kind, ls in sorted(counts, key=lambda r: (0 if r[0] == "line" else 1, r[1]))
    )
    return LinSysData._sorted(n, tuple(zip(labels, m)), (s, q)), removed


# -- pencil decomposition ------------------------------------------------------


class PencilReduction(Record):
    """A system written as `content` copies of an irreducible pencil."""

    __slots__ = ("content", "pencil")


def pencil_decompose(L: LinSysData) -> PencilReduction | None:
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
    s, q = _sums(L)
    P = LinSysData._sorted(L.degree // c, tuple((l, m // c) for l, m in L.mults), (s // c, q // c**2))
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


def _step(L: LinSysData, labels: list[str], m: list[int]) -> tuple[ChainStep, list[str], list[int]]:
    """(step, labels, m): the adjoint step of L, of genus > 1, whose columns
    are ``labels`` and ``m`` (see :func:`_columns`), and the columns of the
    step's reduced system.  Each system is built once and carries its sums;
    removal runs only when a rule applies."""
    raw, labels, m = _adjoint(L, labels, m)
    reduced, removed = raw, ()
    if _first_kind(raw.degree, m) is not None:
        reduced, removed = remove_fixed_components(raw)
        labels, m = _columns(reduced)
    warnings = ()
    # The reduced system has dimension >= 1 (see the module docstring), and
    # a fixed-part-free one meets itself nonnegatively off the base points;
    # a negative count here means a fixed component beyond lines and conics
    # escaped the Bezout rules.
    if self_intersection(reduced) < 0:
        warnings = (
            f"system {reduced} has negative self-intersection after removing lines "
            "and conics; a higher-degree fixed component was probably missed",
        )
    return ChainStep(L, raw, removed, reduced, pencil_decompose(reduced), warnings), labels, m


def adjoint_step(L: LinSysData) -> ChainStep:
    """Adjoint of a system followed by removal and pencil reduction."""
    g = member_genus(L)
    if g <= 1:
        raise AdjointDoesNotExist(f"adjoint requires genus > 1, got genus {g}")
    return _step(L, *_columns(L))[0]


# A terminal's class by (genus, dimension).  Any other of genus 0 is a rational
# system (dimension >= 2, as no system of a chain is empty), and the rest exhausted.
_TERMINAL_CLASSES = {
    (0, 1): Classification.RATIONAL_PENCIL,
    (1, 1): Classification.ELLIPTIC_PENCIL,
    (1, 2): Classification.ELLIPTIC_NET,
}


def adjoint_chain(source: PlaneCurveModel | LinSysData) -> ChainReport:
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
    labels, m = _columns(current)
    steps: list[ChainStep] = []
    warnings: list[str] = []
    while g > 1:
        # After a pencil reduction the output has genus 0, so the columns
        # of the reduced system are never read again.
        step, labels, m = _step(current, labels, m)
        steps.append(step)
        warnings += step.warnings
        current = step.output
        g = member_genus(current)
    dim = virtual_dim(current)
    other = Classification.RATIONAL_SYSTEM if g == 0 else Classification.EXHAUSTED
    classification = _TERMINAL_CLASSES.get((g, dim), other)
    if classification is Classification.EXHAUSTED:
        warnings.append(f"terminal system with genus {g} and dimension {dim} does not fit "
                        "the rational/elliptic case split")
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
