import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.utilities.iterables import partitions as sympy_partitions

from cremona_kit.errors import EnumerationBoundExceeded, InvalidAssignment
from cremona_kit.linear_systems import member_genus, self_intersection, virtual_dim
from cremona_kit import rational_pencils
from cremona_kit.rational_pencils import (
    PencilType,
    _partitions,
    as_linear_system,
    check_rational_pencil,
    enumerate_pencil_types,
    sextic_free_intersection_bound,
)

from _util import (
    check_rational_pencil_oracle,
    partitions_oracle,
    partitions_stack_oracle,
    partitions_walk_oracle,
)


# The walk over tuples: unit[p] = (p,), from the empty head ().
TUPLES = [(), *((p,) for p in range(1, 40))]


def walk(total, square_total, max_part, partitions=_partitions):
    return partitions(total, square_total, max_part, TUPLES)


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

    @pytest.mark.parametrize(
        "degree, mults, message",
        [
            (True, [True], "pencil degree and multiplicities must be integers, got True"),
            (2, [1.0, 1, 1, 1], "pencil degree and multiplicities must be integers, got 1.0"),
            ("2", [1], "pencil degree and multiplicities must be integers, got '2'"),
            (0, [], "pencil degree must be >= 1, got 0"),
            (2, [0, 1], "base multiplicities must be >= 1"),
        ],
    )
    def test_fault_named(self, degree, mults, message):
        # check_rational_pencil(True, [True]) used to report a valid type, and
        # check_rational_pencil(2, [1.0, 1, 1, 1]) one that dumps refused.
        with pytest.raises(ValueError) as info:
            check_rational_pencil(degree, mults)
        assert str(info.value) == message

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(1, 60), st.lists(st.integers(1, 60), max_size=12))
    def test_linear_residual_is_the_difference(self, n, mults):
        # So a valid type has linear residual 0, with no check of its own.
        rep = check_rational_pencil(n, mults)
        assert rep.linear_residual == rep.pencil_residual - rep.genus_residual
        assert rep.valid == (rep.genus_residual == rep.pencil_residual == 0)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(1, 12), st.lists(st.integers(1, 12), max_size=12))
    def test_matches_the_closed_formulas(self, n, mults):
        # Valid or not: the residuals read off the linear system are the
        # closed formulas' numbers.
        assert check_rational_pencil(n, mults) == check_rational_pencil_oracle(n, mults)

    def test_valid_types_match_the_closed_formulas(self):
        for p in enumerate_pencil_types(12, limit=12):
            rep = check_rational_pencil(p.degree, p.mults)
            assert rep.valid and rep == check_rational_pencil_oracle(p.degree, p.mults)


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

    @pytest.mark.parametrize(
        "degree, mults, message",
        [
            (True, (True,), "pencil degree and multiplicities must be integers, got True"),
            (1, (True,), "pencil degree and multiplicities must be integers, got True"),
            (2, (1, 1, 1.0, 1), "pencil degree and multiplicities must be integers, got 1.0"),
            ("2", (1,), "pencil degree and multiplicities must be integers, got '2'"),
            (0, (), "pencil degree must be >= 1, got 0"),
            (2, (1, 0), "base multiplicities must be >= 1"),
        ],
    )
    def test_fault_named(self, degree, mults, message):
        # PencilType(True, (True,)) used to encode as "degree": true.
        with pytest.raises(ValueError) as info:
            PencilType(degree, mults)
        assert str(info.value) == message

    def test_types_equal_checked_construction(self):
        # enumerate_pencil_types skips PencilType's checks; the objects must
        # still equal, and hash like, those the constructor builds.
        for p in enumerate_pencil_types(8):
            q = PencilType(p.degree, tuple(reversed(p.mults)))
            assert p == q and hash(p) == hash(q) and str(p) == str(q)
            assert type(p.mults) is tuple


class TestWalkOracle:
    """The walk over tuples against the recursive generator, the
    explicit-stack walk with closed-form rests of parts <= 3 that it
    replaced, and the earlier explicit-stack walk that took every part on
    the stack; and over strings against the tuples it spells."""

    def test_every_degree_up_to_24(self):
        for n in range(1, 25):
            want = list(partitions_oracle(3 * n - 2, n * n, n))
            assert walk(3 * n - 2, n * n, n) == want
            assert partitions_stack_oracle(3 * n - 2, n * n, n) == want

    def test_caps_below_the_degree(self):
        for n in range(1, 17):
            for cap in range(0, n):
                want = list(partitions_oracle(3 * n - 2, n * n, cap))
                assert walk(3 * n - 2, n * n, cap) == want, (n, cap)
                assert partitions_stack_oracle(3 * n - 2, n * n, cap) == want, (n, cap)

    def test_stack_walk_box(self):
        # Every (sum, square sum, cap) in a box around test_small_targets',
        # negative values included.
        for total in range(-2, 26):
            for square_total in range(-2, 90):
                for cap in range(-1, 14):
                    got = walk(total, square_total, cap)
                    assert got == partitions_stack_oracle(total, square_total, cap)

    def test_small_targets(self):
        # Every (sum, square sum, cap) in a box, solvable or not.
        for total in range(0, 10):
            for square_total in range(0, 40):
                for cap in range(0, 7):
                    want = list(partitions_oracle(total, square_total, cap))
                    assert walk(total, square_total, cap) == want
                    assert partitions_walk_oracle(total, square_total, cap) == want

    def test_empty_and_all_ones(self):
        assert walk(0, 0, 0) == [()] == list(partitions_oracle(0, 0, 0))
        assert walk(0, 1, 3) == []
        assert walk(5, 5, 1) == [(1,) * 5]
        assert walk(5, 5, 0) == []

    @staticmethod
    def closed_form_mismatch(partitions):
        """The first (t, s, cap) with cap <= 4, t < 30 and s < 200 where
        ``partitions`` over tuples and the explicit-stack walk differ, or None."""
        for cap in range(0, 5):
            for t in range(0, 30):
                for s in range(0, 200):
                    if walk(t, s, cap, partitions) != partitions_walk_oracle(t, s, cap):
                        return t, s, cap
        return None

    def test_closed_form_box(self):
        assert self.closed_form_mismatch(_partitions) is None

    def test_strings_spell_the_tuples(self):
        # The same walk over other units: each sequence is unit[0] plus the
        # unit of each part, in the order of the tuples.
        unit = ["<", *(f",{p}" for p in range(1, 40))]
        for total, square_total, cap in [(3 * n - 2, n * n, c) for n in range(1, 17)
                                         for c in range(0, n + 1)] + [(0, 0, 0), (5, 5, 1)]:
            want = ["<" + "".join(f",{p}" for p in parts)
                    for parts in walk(total, square_total, cap)]
            assert _partitions(total, square_total, cap, unit) == want, (total, square_total, cap)

    def test_closed_form_cases(self):
        # Odd s - t: no rest of 3s, 2s and 1s has s - t = 6a + 2b.
        assert walk(4, 9, 3) == walk(4, 9, 2) == []
        # Cap 3 from the most 3s down: 6a + 2b = 6, 3a + 2b + c = 8.
        assert walk(8, 14, 3) == [(3, 1, 1, 1, 1, 1), (2, 2, 2, 1, 1)]
        # c < 0 stops the range: a = 1 would need c = -3.
        assert walk(6, 18, 3) == [(3, 3)]
        assert walk(6, 18, 2) == []
        # Cap 2 leaves one rest; below cap 2 only s == t has one.
        assert walk(7, 9, 2) == [(2, 1, 1, 1, 1, 1)]
        assert walk(7, 9, 1) == walk(7, 9, 0) == []
        assert walk(3, 9, 3) == [(3,)]
        assert walk(0, 6, 3) == walk(2, 1, 3) == walk(2, 1, 2) == []
        for t, s, cap in ((4, 9, 3), (8, 14, 3), (6, 18, 3), (7, 9, 2), (7, 9, 0), (0, 6, 3)):
            assert walk(t, s, cap) == list(partitions_oracle(t, s, cap))

    @pytest.mark.parametrize(
        "old, new",
        [
            ("if cap > 1 and h > 0", "if h > 0"),  # no cap < 2 guard
            ("else 0, -1, -1)", "else 0, 0, -1)"),  # the range stops at a = 1
            ("range(h // 3 if", "range(h if"),  # the range starts at (s - t) // 2
        ],
        ids=["no-cap-guard", "stops-at-one", "starts-at-half"],
    )
    def test_closed_form_mutants_fail(self, old, new):
        source = inspect.getsource(_partitions)
        assert source.count(old) == 1
        namespace = dict(vars(rational_pencils))
        exec(source.replace(old, new), namespace)
        assert self.closed_form_mismatch(namespace["_partitions"]) is not None


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

    @pytest.mark.parametrize("node_mults", [(True,), (1.0,), (-1,)])
    def test_fault_named(self, node_mults):
        # (True,) used to count as one node multiplicity and return 4.
        with pytest.raises(InvalidAssignment) as info:
            sextic_free_intersection_bound(PencilType(1, (1,)), node_mults)
        assert str(info.value) == "node multiplicities must be integers >= 0"

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
