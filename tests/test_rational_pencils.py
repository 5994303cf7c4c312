import pytest
from sympy.utilities.iterables import partitions as sympy_partitions

from cremona_kit.errors import EnumerationBoundExceeded, InvalidAssignment
from cremona_kit.linear_systems import member_genus, self_intersection, virtual_dim
from cremona_kit.rational_pencils import (
    PencilType,
    _partitions,
    as_linear_system,
    check_rational_pencil,
    enumerate_pencil_types,
    sextic_free_intersection_bound,
)

from _util import partitions_oracle


def brute_types(n):
    """Independent enumeration via sympy's partition iterator."""
    out = set()
    for part in sympy_partitions(3 * n - 2):
        mults = []
        for value, count in part.items():
            mults.extend([value] * count)
        if any(m > n for m in mults):
            continue
        if sum(m * m for m in mults) == n * n:
            out.add(tuple(sorted(mults, reverse=True)))
    return out


class TestCheck:
    def test_line_pencil(self):
        rep = check_rational_pencil(1, [1])
        assert rep.valid
        assert (rep.genus_residual, rep.pencil_residual, rep.linear_residual) == (0, 0, 0)

    def test_conics_through_four_points(self):
        rep = check_rational_pencil(2, [1, 1, 1, 1])
        assert rep.valid

    def test_invalid_data_reports_residuals(self):
        rep = check_rational_pencil(6, [3, 3])
        assert not rep.valid
        assert rep.genus_residual == 10 - 6
        assert rep.pencil_residual == 28 - 12 - 2
        assert rep.linear_residual == 18 - 6 - 2

    def test_preconditions(self):
        with pytest.raises(ValueError):
            check_rational_pencil(0, [])
        with pytest.raises(ValueError):
            check_rational_pencil(2, [0, 1])


class TestEnumerate:
    def test_degree_one(self):
        assert enumerate_pencil_types(1) == (PencilType(1, (1,)),)

    def test_degree_two_includes_conics(self):
        assert PencilType(2, (1, 1, 1, 1)) in enumerate_pencil_types(2)

    def test_small_degrees_frozen(self):
        got = [(p.degree, p.mults) for p in enumerate_pencil_types(5)]
        assert got == [
            (1, (1,)),
            (2, (1, 1, 1, 1)),
            (3, (2, 1, 1, 1, 1, 1)),
            (4, (3, 1, 1, 1, 1, 1, 1, 1)),
            (4, (2, 2, 2, 1, 1, 1, 1)),
            (5, (4, 1, 1, 1, 1, 1, 1, 1, 1, 1)),
            (5, (3, 3, 1, 1, 1, 1, 1, 1, 1)),
            (5, (3, 2, 2, 2, 1, 1, 1, 1)),
            (5, (2, 2, 2, 2, 2, 2, 1)),
        ]

    def test_matches_brute_force(self):
        for n in range(1, 7):
            ours = {p.mults for p in enumerate_pencil_types(6) if p.degree == n}
            assert ours == brute_types(n)

    def test_every_type_satisfies_all_equations(self):
        for p in enumerate_pencil_types(6):
            rep = check_rational_pencil(p.degree, p.mults)
            assert rep.valid and rep.linear_residual == 0

    def test_bound_guard(self):
        with pytest.raises(EnumerationBoundExceeded):
            enumerate_pencil_types(9)
        assert enumerate_pencil_types(9, limit=9)  # explicit limit allows it

    def test_deterministic(self):
        assert enumerate_pencil_types(6) == enumerate_pencil_types(6)

    def test_types_equal_checked_construction(self):
        # enumerate_pencil_types skips PencilType's checks; the objects must
        # still equal, and hash like, those the constructor builds.
        for p in enumerate_pencil_types(8):
            q = PencilType(p.degree, tuple(reversed(p.mults)))
            assert p == q and hash(p) == hash(q) and str(p) == str(q)
            assert type(p.mults) is tuple


class TestWalkOracle:
    """The flat walk against the recursive generator it replaced."""

    def test_every_degree_up_to_24(self):
        for n in range(1, 25):
            assert _partitions(3 * n - 2, n * n, n) == list(partitions_oracle(3 * n - 2, n * n, n))

    def test_caps_below_the_degree(self):
        for n in range(1, 17):
            for cap in range(0, n):
                want = list(partitions_oracle(3 * n - 2, n * n, cap))
                assert _partitions(3 * n - 2, n * n, cap) == want, (n, cap)

    def test_small_targets(self):
        # Every (sum, square sum, cap) in a box, solvable or not.
        for total in range(0, 10):
            for square_total in range(0, 40):
                for cap in range(0, 7):
                    want = list(partitions_oracle(total, square_total, cap))
                    assert _partitions(total, square_total, cap) == want

    def test_empty_and_all_ones(self):
        assert _partitions(0, 0, 0) == [()] == list(partitions_oracle(0, 0, 0))
        assert _partitions(0, 1, 3) == []
        assert _partitions(5, 5, 1) == [(1,) * 5]
        assert _partitions(5, 5, 0) == []


class TestSexticBound:
    def test_line_through_a_node_attains_four(self):
        assert sextic_free_intersection_bound(PencilType(1, (1,)), (1,)) == 4

    def test_conics_all_nodes(self):
        assert sextic_free_intersection_bound(PencilType(2, (1, 1, 1, 1)), (1, 1, 1, 1)) == 4

    def test_line_off_the_nodes(self):
        assert sextic_free_intersection_bound(PencilType(1, (1,)), ()) == 6

    def test_assignment_capped_by_base_total(self):
        with pytest.raises(InvalidAssignment):
            sextic_free_intersection_bound(PencilType(1, (1,)), (2,))
        with pytest.raises(InvalidAssignment):
            sextic_free_intersection_bound(PencilType(1, (1,)), (-1,))

    def test_invalid_type_rejected(self):
        with pytest.raises(ValueError):
            sextic_free_intersection_bound(PencilType(3, (1,)), ())

    def test_bound_over_all_enumerated_types(self):
        for p in enumerate_pencil_types(6):
            total = sum(p.mults)
            for assigned in range(total + 1):
                assert sextic_free_intersection_bound(p, (assigned,)) >= 4


class TestCrossCheck:
    def test_types_are_rational_pencils_as_systems(self):
        for p in enumerate_pencil_types(6):
            L = as_linear_system(p)
            assert member_genus(L) == 0
            assert virtual_dim(L) == 1
            assert self_intersection(L) == 0
