"""Diophantine arithmetic of rational pencils of plane curves.

A degree-n pencil of rational curves with base multiplicities m_1..m_k
(points in the plane or infinitely near, treated as pure numbers here)
must satisfy two exact equations:

    (n-1)(n-2)/2 - sum m_i (m_i - 1)/2 = 0     (members are rational)
    (n+1)(n+2)/2 - sum m_i (m_i + 1)/2 = 2     (the system is a pencil)

Subtracting one from the other forces the linear relation
3n - sum m_i = 2.  Against a plane sextic whose only singularities are
ordinary double points, members of such a pencil meet the sextic in
6n - 2 sum n_i points away from the base points, where n_i is the pencil
multiplicity at each node; the linear relation bounds this below by 4.
``enumerate_pencil_types`` walks the partitions of 3n - 2 with square sum
n^2 recursively, and writes each rest of parts <= 3 in closed form.  The
walk is written over part units: given (p,) per part it yields the tuples
the records hold, and given the JSON text of a part it yields the text of
each type that ``serialization.encode_pencil_types`` writes.

Proximity inequalities between infinitely-near points are not enforced;
the two equations are the whole contract.
"""

from __future__ import annotations

from math import isqrt
from collections.abc import Iterable, Sequence

from ._record import Record
from .errors import EnumerationBoundExceeded, InvalidAssignment
from .linear_systems import LinSysData, member_genus, virtual_dim

DEFAULT_ENUM_LIMIT = 8


class PencilType(Record):
    """Numerical type (n; m_1, ..., m_k), multiplicities sorted descending."""

    __slots__ = ("degree", "mults")

    def __init__(self, degree: int, mults: tuple[int, ...] = ()) -> None:
        ms = tuple(mults)
        for v in (degree, *ms):
            if type(v) is not int:  # bool and other int subclasses included
                raise ValueError(f"pencil degree and multiplicities must be integers, got {v!r}")
        if degree < 1:
            raise ValueError(f"pencil degree must be >= 1, got {degree}")
        ms = tuple(sorted(ms, reverse=True))
        if ms and ms[-1] < 1:
            raise ValueError("base multiplicities must be >= 1")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "mults", ms)

    def __str__(self) -> str:
        return f"({self.degree}; {', '.join(map(str, self.mults)) or '-'})"


class PencilCheckReport(Record):
    __slots__ = ("degree", "mults", "genus_residual", "pencil_residual", "linear_residual", "valid")


def check_rational_pencil(n: int, mults: Iterable[int]) -> PencilCheckReport:
    """The residuals of both pencil equations: the member genus, and the
    virtual dimension minus 1, of the type as a linear system; and their
    difference 3n - sum(m) - 2, which is 0 whenever both hold.
    ``PencilType`` validates the data and sorts the multiplicities."""
    p = PencilType(n, mults)
    L = as_linear_system(p)
    r_genus, r_pencil = member_genus(L), virtual_dim(L) - 1
    valid = r_genus == 0 and r_pencil == 0
    return PencilCheckReport(n, p.mults, r_genus, r_pencil, r_pencil - r_genus, valid)


def sextic_free_intersection_bound(p: PencilType, node_mults: Sequence[int]) -> int:
    """Free intersection 6n - 2 sum(n_i) with a nodal sextic; always >= 4.

    ``node_mults`` assigns the pencil's multiplicity at each double point
    of the sextic (zero where the node is not a base point); the total may
    not exceed the pencil's total base multiplicity 3n - 2, which gives
    the bound.
    """
    if not check_rational_pencil(p.degree, p.mults).valid:
        raise ValueError(f"pencil type {p} does not satisfy the pencil equations")
    ns = tuple(node_mults)
    if any(type(v) is not int or v < 0 for v in ns):  # bool and other int subclasses included
        raise InvalidAssignment("node multiplicities must be integers >= 0")
    if sum(ns) > sum(p.mults):
        raise InvalidAssignment(
            f"node multiplicities total {sum(ns)}, above the pencil's base total {sum(p.mults)}"
        )
    return 6 * p.degree - 2 * sum(ns)


def _degrees(n_max: int, limit: int) -> range:
    """The degrees 1..n_max of an enumeration, refused past ``limit``."""
    if n_max > limit:
        raise EnumerationBoundExceeded(
            f"n_max {n_max} exceeds the enumeration bound {limit}"
        )
    return range(1, n_max + 1)


def _partitions(total: int, square_total: int, max_part: int, unit: Sequence) -> list:
    """Non-increasing sequences of parts >= 1 with the given sum and square
    sum, in decreasing lexicographic order, each written as the sum of the
    units of its parts: ``unit[p]`` stands for a part p (for p up to
    max(max_part, 3)) and ``unit[0]`` is the empty head every sequence
    starts from.  ``[(), (1,), (2,), ...]`` gives tuples of parts; strings
    give a text with no per-part formatting.

    With (t, s) left to fill by parts <= cap, the parts p that leave a
    solvable rest are one range: ceil(s / t) <= p <= min(cap, t) with
    p(p - 1) <= s - t.  Once s == t the rest is all ones.  Once cap <= 3 it
    is a 3s, b 2s and c 1s with 6a + 2b = s - t and 3a + 2b + c = t: one
    rest per a, from the largest down while c >= 0, with a = 0 under cap 2
    and none under cap 1.  The walk recurses once per part taken before the
    rest, the head grown by that part's unit, about n/2 deep: 10, 17 and 21
    calls at n = 16, 32 and 40.  Each sequence is its head plus its rest."""
    found = []

    def walk(t: int, s: int, cap: int, head) -> None:
        if s == t and (cap > 0 or t == 0):
            found.append(head + unit[1] * t)
        elif cap < 4:
            h, odd = divmod(s - t, 2)  # h = 3a + b
            if cap > 1 and h > 0 and not odd:
                for a in range(h // 3 if cap == 3 else 0, -1, -1):
                    c = 2 * t - s + 3 * a
                    if c < 0:
                        break
                    found.append(head + (unit[3] * a + unit[2] * (h - 3 * a) + unit[1] * c))
        elif 0 < t < s:
            for p in range(min(cap, t, (isqrt(4 * (s - t) + 1) + 1) // 2), -(-s // t) - 1, -1):
                walk(t - p, s - p * p, p, head + unit[p])

    walk(total, square_total, max_part, unit[0])
    del walk  # the closure holds itself: break the cycle, leave no garbage
    return found


def enumerate_pencil_types(
    n_max: int, limit: int = DEFAULT_ENUM_LIMIT
) -> tuple[PencilType, ...]:
    """All valid pencil types with degree <= n_max, deterministically ordered.

    The two equations pin sum(m) = 3n - 2 and sum(m^2) = n^2, so the
    search is an exact bounded partition walk.  ``limit`` guards runtime;
    raise it explicitly for bigger searches.
    """
    set_degree, set_mults = PencilType._setters
    out: list[PencilType] = []
    unit: list[tuple[int, ...]] = [(), (1,), (2,), (3,)]
    for n in _degrees(n_max, limit):
        if n > 3:
            unit.append((n,))
        for parts in _partitions(3 * n - 2, n * n, n, unit):
            p = object.__new__(PencilType)  # the walk's parts are sorted and valid
            set_degree(p, n)
            set_mults(p, parts)
            out.append(p)
    return tuple(out)


def as_linear_system(p: PencilType) -> LinSysData:
    """Read a pencil type as a linear system on general-position labels."""
    return LinSysData.of(p.degree, {f"b{i}": m for i, m in enumerate(p.mults)})
