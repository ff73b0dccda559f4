"""Partition enumeration and statistics against independent recurrences."""

import random
import re
from math import factorial

import pytest

from commvar.partitions import Partition, partitions_of


def partition_count_dp(n: int) -> int:
    # independent oracle: classic coin-change style dynamic programming
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]


class TestEnumeration:
    def test_zero(self):
        assert partitions_of(0) == (Partition(()),)

    def test_three(self):
        assert list(partitions_of(3)) == [(3,), (2, 1), (1, 1, 1)]

    def test_five_has_seven(self):
        fives = partitions_of(5)
        assert len(fives) == 7
        # brute-force oracle: weakly decreasing sequences summing to 5
        found = set()
        def rec(remaining, maxpart, prefix):
            if remaining == 0:
                found.add(prefix)
                return
            for k in range(min(remaining, maxpart), 0, -1):
                rec(remaining - k, k, prefix + (k,))
        rec(5, 5, ())
        assert set(fives) == found

    @pytest.mark.parametrize("n", range(31))
    def test_count_matches_dp_oracle(self, n):
        assert len(partitions_of(n)) == partition_count_dp(n)

    def test_reverse_lex_order(self):
        for n in range(1, 9):
            parts = list(partitions_of(n))
            assert parts[0] == (n,)
            assert parts[-1] == (1,) * n
            assert parts == sorted(parts, reverse=True)
            assert len(set(parts)) == len(parts)


class TestStatistics:
    @pytest.mark.parametrize(
        "parts,z",
        [((1, 1, 1), 6), ((2, 1), 2), ((3,), 3), ((), 1), ((2, 2, 1), 8)],
    )
    def test_centralizer_order(self, parts, z):
        assert Partition(parts).centralizer_order() == z

    @pytest.mark.parametrize("n", range(13))
    def test_class_sizes_fill_the_group(self, n):
        total = sum(
            factorial(n) // lam.centralizer_order() for lam in partitions_of(n)
        )
        assert total == factorial(n)

    def test_hooks_examples(self):
        assert sorted(Partition((2, 1)).hook_lengths()) == [1, 1, 3]
        assert sorted(Partition((4,)).hook_lengths()) == [1, 2, 3, 4]
        assert sorted(Partition((1, 1, 1)).hook_lengths()) == [1, 2, 3]

    def test_weighted_row_sum(self):
        assert Partition((2, 1)).weighted_row_sum() == 1
        assert Partition((5,)).weighted_row_sum() == 0
        assert Partition((1, 1, 1)).weighted_row_sum() == 3

    @pytest.mark.parametrize("n", range(11))
    def test_hook_product_divides_factorial(self, n):
        for lam in partitions_of(n):
            hooks = lam.hook_lengths()
            assert len(hooks) == n
            prod = 1
            for h in hooks:
                prod *= h
            assert factorial(n) % prod == 0
            assert lam.dimension() > 0

    def test_dimension_sum_of_squares(self):
        # sum of squared tableau counts is the group order
        for n in range(9):
            assert sum(l.dimension() ** 2 for l in partitions_of(n)) == factorial(n)


class TestConstruction:
    def test_rejects_bad_parts(self):
        with pytest.raises(ValueError):
            Partition((1, 2))
        with pytest.raises(ValueError):
            Partition((2, 0))

    @pytest.mark.parametrize("parts", [(1, 2), (2, 0), (-1,)])
    def test_public_constructor_still_checks(self, parts):
        with pytest.raises(ValueError):
            Partition(parts)

    @pytest.mark.parametrize("n", range(17))
    def test_enumerated_partitions_match_the_checked_constructor(self, n):
        # partitions_of builds its elements without Partition's checks
        for lam in partitions_of(n):
            checked = Partition(tuple(lam))
            assert type(lam) is Partition
            assert lam == checked
            assert (lam.n, lam.exp) == (checked.n, checked.exp)

    def test_str_and_parse(self):
        lam = Partition((3, 2, 1))
        assert str(lam) == "(3,2,1)"
        assert Partition.parse("(3,2,1)") == lam
        assert Partition.parse("3,2,1") == lam
        assert Partition.parse("1^1 2^1 3^1") == lam
        assert Partition.parse("2^3") == Partition((2, 2, 2))
        assert Partition.parse("()") == Partition(())
        assert Partition.parse("[3,2,1]") == lam
        assert Partition.parse(" ( 3 , 2, 1 ) ") == lam

    # the text of no parts, bare or in one bracket pair, is the empty partition
    @pytest.mark.parametrize("text", ["", "  ", "[]", " () ", "( )", "[ ]", " ( ) "])
    def test_parse_reads_the_empty_partition(self, text):
        assert Partition.parse(text) == Partition(())

    # one matching pair of brackets or none, decimal parts only, none zero
    @pytest.mark.parametrize(
        "text",
        ["2^", "a,b", "(3,0)", "2,1,0", "((2,1]", ")2,1(", "[2,1)", "(2,1", "((2,1))", "(+2,1)", "(2,1_0)", "(2 1)"],
    )
    def test_parse_rejects_garbage(self, text):
        with pytest.raises(ValueError):
            Partition.parse(text)

    def test_exponential_form_against_the_pattern(self):
        # oracle: the pattern the exponential form was once read with
        def outcome(read, token):
            try:
                return read(token)
            except ValueError as exc:
                return str(exc)

        def oracle(token):
            m = re.fullmatch(r"(\d+)\^(\d+)", token)
            if not m:
                raise ValueError(f"bad exponential-form token {token!r}")
            return Partition([int(m[1])] * int(m[2]))

        rng = random.Random(2026)
        alphabet = list("0123^^") + ["\u0663", "a", "-", "+"]
        tokens = ["".join(rng.choices(alphabet, k=rng.randint(1, 5))) for _ in range(3000)]
        for token in (t for t in tokens if "^" in t):
            assert outcome(Partition.parse, token) == outcome(oracle, token), token

    def test_conjugate(self):
        assert Partition((3, 1)).conjugate() == Partition((2, 1, 1))
        assert Partition(()).conjugate() == Partition(())


class TestTupleContract:
    """A partition is the tuple of its parts."""

    def test_equals_and_hashes_as_its_parts(self):
        lam = Partition((2, 1))
        assert isinstance(lam, tuple)
        assert lam == (2, 1) and (2, 1) == lam
        assert hash(lam) == hash((2, 1))
        assert {lam: "x"}[(2, 1)] == "x"

    def test_slices_are_plain_tuples(self):
        rest = Partition((3, 2, 1))[1:]
        assert type(rest) is tuple and rest == (2, 1)

    def test_repr_size_and_exponents(self):
        lam = Partition((2, 2, 1))
        assert repr(lam) == "Partition((2, 2, 1))"
        assert repr(Partition(())) == "Partition(())"
        assert (len(lam), lam.n, lam.exp) == (3, 5, ((1, 1), (2, 2)))

    @pytest.mark.parametrize("name", ["n", "exp", "parts", "other"])
    def test_attributes_cannot_be_set(self, name):
        with pytest.raises(AttributeError):
            setattr(Partition((2, 1)), name, 0)
