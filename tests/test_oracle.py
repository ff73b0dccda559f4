"""Brute-force enumerator: exact counts, budget handling, cross-checks."""

from itertools import product

import pytest

from commvar.oracle import (
    AffineSpace,
    BudgetExceededError,
    PuncturedLine,
    Torus,
    count_points,
    cross_check,
    det_mod,
    gl_order,
    is_prime,
    prime_power_base,
    search_space_size,
)
from commvar.varieties import eigendata_for_family


def invertible_count_by_hand(n, p):
    # independent route: enumerate and rank-check via determinant
    total = 0
    for entries in product(range(p), repeat=n * n):
        mat = tuple(entries[i * n : (i + 1) * n] for i in range(n))
        if det_mod(mat, p) != 0:
            total += 1
    return total


class TestNumberTheory:
    def test_is_prime(self):
        assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]

    def test_prime_power_base(self):
        assert prime_power_base(8) == (2, 3)
        assert prime_power_base(9) == (3, 2)
        assert prime_power_base(5) == (5, 1)
        for bad in (1, 6, 12, 100):
            with pytest.raises(ValueError):
                prime_power_base(bad)


class TestGlOrder:
    def test_rank_one(self):
        for q in (2, 3, 4, 5):
            assert gl_order(1, q) == q - 1

    def test_rank_two_over_f2_by_enumeration(self):
        assert gl_order(2, 2) == 6
        assert invertible_count_by_hand(2, 2) == 6

    def test_rank_three_over_f2_by_enumeration(self):
        assert gl_order(3, 2) == 168
        assert invertible_count_by_hand(3, 2) == 168

    def test_rank_two_over_f3(self):
        assert gl_order(2, 3) == invertible_count_by_hand(2, 3) == 48


class TestCountPoints:
    def test_affine_line_counts_everything(self):
        assert count_points(AffineSpace(1), 2, 2) == 16
        for n, p in ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2)):
            assert count_points(AffineSpace(1), n, p) == p ** (n * n)

    def test_torus_matches_group_order(self):
        for n, p in ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2)):
            assert count_points(Torus(1), n, p) == gl_order(n, p)

    def test_punctured_line_scalars(self):
        assert count_points(PuncturedLine((0, 1)), 1, 3) == 1
        assert count_points(PuncturedLine((0, 1)), 1, 2) == 0
        assert count_points(PuncturedLine((0,)), 1, 5) == 4

    def test_commuting_pairs_regression(self):
        # frozen after first computation; matches q^6 + q^5 - q^3
        assert count_points(AffineSpace(2), 2, 2) == 88
        assert count_points(AffineSpace(2), 2, 3) == 945

    def test_monotone_in_avoided_points(self):
        base = count_points(PuncturedLine((0,)), 2, 3)
        more = count_points(PuncturedLine((0, 1)), 2, 3)
        even_more = count_points(PuncturedLine((0, 1, 2)), 2, 3)
        assert base >= more >= even_more

    def test_budget_error_states_requirement(self):
        size = search_space_size(AffineSpace(2), 2, 3)
        with pytest.raises(BudgetExceededError, match=str(size)):
            count_points(AffineSpace(2), 2, 3, budget=100)

    def test_rejects_non_prime_field(self):
        with pytest.raises(ValueError, match="prime"):
            count_points(AffineSpace(1), 1, 4)

    def test_avoided_collision_mod_p(self):
        with pytest.raises(ValueError, match="collide"):
            count_points(PuncturedLine((0, 2)), 1, 2)

    def test_env_budget(self, monkeypatch):
        monkeypatch.setenv("COMMVAR_BUDGET", "10")
        with pytest.raises(BudgetExceededError):
            count_points(AffineSpace(1), 2, 2)
        monkeypatch.setenv("COMMVAR_BUDGET", "zebra")
        with pytest.raises(ValueError):
            count_points(AffineSpace(1), 1, 2)


class TestCrossCheck:
    def test_affine_line(self):
        result = cross_check(AffineSpace(1), 2, 2, eigendata_for_family(AffineSpace(1)))
        assert result.ok
        assert result.oracle_count == 16

    def test_torus_rank_three(self):
        result = cross_check(Torus(1), 3, 2, eigendata_for_family(Torus(1)))
        assert result.ok
        assert result.oracle_count == 168

    def test_punctured_over_f3(self):
        family = PuncturedLine((0, 1))
        result = cross_check(family, 2, 3, eigendata_for_family(family))
        assert result.ok

    def test_rejects_non_curve(self):
        with pytest.raises(ValueError, match="curve"):
            cross_check(AffineSpace(2), 1, 2, eigendata_for_family(AffineSpace(2)))

    def test_describe_mentions_all_numbers(self):
        result = cross_check(Torus(1), 2, 2, eigendata_for_family(Torus(1)))
        text = result.describe()
        assert "oracle=6" in text and "[PASS]" in text
