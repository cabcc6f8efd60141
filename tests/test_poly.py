"""Polynomial construction, ring arithmetic, and the schoolbook oracle."""

import random
from itertools import zip_longest

import pytest

from pqmul import (
    InvalidInputError,
    OperationCounter,
    Polynomial,
    RingMismatchError,
    schoolbook_mul,
)


class TestConstruction:
    def test_identity_construction(self):
        p = Polynomial([3, 10, 8])
        assert p.coeffs == (3, 10, 8)
        assert p.modulus is None
        assert p.degree == 2

    def test_modular_reduction(self):
        p = Polynomial([3, 10, 8], modulus=7)
        assert p.coeffs == (3, 3, 1)

    def test_normalization_of_zero(self):
        assert Polynomial([0, 0]).coeffs == (0,)
        assert Polynomial([0, 0]) == Polynomial([0])

    def test_trailing_zeros_stripped(self):
        assert Polynomial([1, 2, 0, 0]).coeffs == (1, 2)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            Polynomial([])

    @pytest.mark.parametrize("q", [1, 0, -5])
    def test_small_modulus_rejected(self, q):
        with pytest.raises(InvalidInputError):
            Polynomial([1], modulus=q)

    def test_negative_coeffs_reduced(self):
        assert Polynomial([-1, -8], modulus=7).coeffs == (6, 6)

    def test_immutable(self):
        p = Polynomial([1, 2])
        assert isinstance(p.coeffs, tuple)
        with pytest.raises(AttributeError):
            p.coeffs = (9,)


class TestRandom:
    def test_deterministic_for_fixed_seed(self):
        a = Polynomial.random(4, 10, seed=42)
        b = Polynomial.random(4, 10, seed=42)
        assert a == b

    def test_leading_nonzero_contract(self):
        p = Polynomial.random(512, 4096, seed=1)
        assert p.degree == 511

    def test_single_coefficient_forced_nonzero(self):
        assert Polynomial.random(1, 2, seed=7) == Polynomial([1])

    def test_bound_below_two_rejected(self):
        with pytest.raises(InvalidInputError):
            Polynomial.random(4, 1, seed=0)

    @pytest.mark.parametrize("q", [1, 0])
    def test_small_modulus_rejected_before_drawing(self, q):
        # q = 1 used to redraw the leading coefficient forever
        with pytest.raises(InvalidInputError, match="modulus"):
            Polynomial.random(4, 64, 0, modulus=q)

    def test_modular_leading_nonzero(self):
        for seed in range(30):
            p = Polynomial.random(9, 10_000, seed=seed, modulus=7)
            assert p.degree == 8
            assert p.coeffs[-1] != 0

    def test_values_within_bound(self):
        p = Polynomial.random(100, 5, seed=3)
        assert all(0 <= c < 5 for c in p.coeffs)


class TestSchoolbook:
    def test_hand_expanded_example(self):
        c = OperationCounter()
        r = schoolbook_mul(Polynomial([3, 4]), Polynomial([1, 2]), c)
        assert r.coeffs == (3, 10, 8)
        assert c.fundamental_mults == 4

    def test_identity(self):
        rng = random.Random(0)
        for _ in range(10):
            a = Polynomial.random(rng.randint(1, 40), 50, rng.randrange(2**31))
            assert schoolbook_mul(a, Polynomial([1])) == a

    def test_annihilator(self):
        a = Polynomial.random(17, 50, seed=4)
        assert schoolbook_mul(a, Polynomial([0])) == Polynomial([0])

    def test_exact_mult_count(self):
        for m, n in [(1, 1), (4, 4), (3, 7), (13, 2)]:
            c = OperationCounter()
            schoolbook_mul(Polynomial.random(m, 9, seed=m),
                           Polynomial.random(n, 9, seed=n), c)
            assert c.fundamental_mults == m * n

    def test_commutativity(self):
        rng = random.Random(1)
        for _ in range(25):
            a = Polynomial.random(rng.randint(1, 50), 30, rng.randrange(2**31))
            b = Polynomial.random(rng.randint(1, 50), 30, rng.randrange(2**31))
            assert schoolbook_mul(a, b) == schoolbook_mul(b, a)

    def test_distributivity(self):
        def add(p, q):
            return Polynomial(map(sum, zip_longest(p.coeffs, q.coeffs,
                                                   fillvalue=0)))

        rng = random.Random(2)
        for _ in range(25):
            a = Polynomial.random(rng.randint(1, 30), 20, rng.randrange(2**31))
            b = Polynomial.random(rng.randint(1, 30), 20, rng.randrange(2**31))
            c = Polynomial.random(rng.randint(1, 30), 20, rng.randrange(2**31))
            assert schoolbook_mul(a, add(b, c)) == \
                add(schoolbook_mul(a, b), schoolbook_mul(a, c))

    def test_degree_law_integer_mode(self):
        rng = random.Random(3)
        for _ in range(25):
            a = Polynomial.random(rng.randint(1, 60), 40, rng.randrange(2**31))
            b = Polynomial.random(rng.randint(1, 60), 40, rng.randrange(2**31))
            assert schoolbook_mul(a, b).degree == a.degree + b.degree

    def test_modular_result_reduced(self):
        r = schoolbook_mul(Polynomial([6, 6], modulus=7),
                           Polynomial([6], modulus=7))
        assert all(0 <= c < 7 for c in r.coeffs)
        assert r.coeffs == (1, 1)

    def test_ring_mismatch(self):
        with pytest.raises(RingMismatchError):
            schoolbook_mul(Polynomial([1]), Polynomial([1], modulus=7))


class TestOperationCounter:
    def test_starts_at_zero(self):
        c = OperationCounter()
        assert c.fundamental_mults == 0 and c.fundamental_adds == 0

    def test_counts_only_increase(self):
        c = OperationCounter()
        before = (0, 0)
        for seed in range(5):
            a = Polynomial.random(8, 9, seed=seed)
            schoolbook_mul(a, a, c)
            now = (c.fundamental_mults, c.fundamental_adds)
            assert now >= before
            before = now
