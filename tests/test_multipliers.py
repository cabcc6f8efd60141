"""Karatsuba/Toom-Cook multipliers, their predictors, and the stage helpers.

The independent oracles here: schoolbook_mul for products, and a literal
recursive transcription of the count recurrence M(n) = (2k-1) * M(ceil(n/k))
for operation counts.
"""

import hashlib
import itertools
import math
import random
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from pqmul import (
    InternalArithmeticError,
    InvalidPlanError,
    MethodPlan,
    OperationCounter,
    Polynomial,
    evaluate_parts,
    interpolate,
    multiply,
    parallel_mul,
    predicted_mult_count,
    recursion_depth,
    schoolbook_mul,
    multipliers,
    split,
)
from pqmul.multipliers import (
    DEFAULT_BASE_CUTOFF,
    _MEMO_ENTRIES,
    _STEPS,
    _exact_div,
    _exact_shift,
    _operand_leaves,
    _pack_blocks,
    _unpack,
)
from pqmul.poly import _schoolbook_coeffs


def reference_count(n: int, k: int, cutoff: int) -> int:
    """Spec recurrence, transcribed directly (test-side oracle)."""
    if n <= cutoff:
        return n * n
    return (2 * k - 1) * reference_count(-(-n // k), k, cutoff)


DEFAULT_PLANS = [MethodPlan.karatsuba(), MethodPlan.toom(3), MethodPlan.toom(4)]


class TestMethodPlan:
    def test_karatsuba_requires_k2(self):
        with pytest.raises(InvalidPlanError):
            MethodPlan("karatsuba", k=3)
        assert MethodPlan.karatsuba().k == 2

    @pytest.mark.parametrize("k", [0, 1, 2, 5, 7])
    def test_toom_k_range(self, k):
        with pytest.raises(InvalidPlanError):
            MethodPlan("toom", k=k)

    def test_schoolbook_has_no_k(self):
        with pytest.raises(InvalidPlanError):
            MethodPlan("schoolbook", k=2)
        assert MethodPlan.schoolbook().k == 0

    def test_workers_and_cutoff_positive(self):
        with pytest.raises(InvalidPlanError):
            MethodPlan.karatsuba(workers=0)
        with pytest.raises(InvalidPlanError):
            MethodPlan.karatsuba(base_cutoff=0)

    def test_unknown_method(self):
        with pytest.raises(InvalidPlanError):
            MethodPlan("ntt")

    def test_labels(self):
        assert MethodPlan.toom(3, workers=5).label == "toom3-w5"
        assert MethodPlan.karatsuba().label == "karatsuba-w1"


class TestSplit:
    def test_even_split(self):
        assert split(Polynomial([1, 2, 3, 4]), 2) == [[1, 2], [3, 4]]

    def test_padding(self):
        assert split(Polynomial([1, 2, 3]), 2) == [[1, 2], [3, 0]]

    def test_round_trip(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(1, 60)
            k = rng.choice([2, 3, 4])
            p = Polynomial.random(n, 30, rng.randrange(2**31))
            parts = split(p, k)
            assert len(parts) == k
            assert all(len(part) == len(parts[0]) for part in parts)
            flat = [c for part in parts for c in part]
            assert flat == list(p.coeffs) + [0] * (len(flat) - n)


class TestEvaluateParts:
    def test_point_zero_is_first_part(self):
        parts = [[1, 2], [3, 4], [5, 6]]
        assert evaluate_parts(parts, 3)[0] == [1, 2]

    def test_point_infinity_is_leading_part(self):
        parts = [[1, 2], [3, 4], [5, 6]]
        assert evaluate_parts(parts, 3)[-1] == [5, 6]

    def test_point_one_is_part_sum(self):
        parts = [[1, 2], [3, 4], [5, 6]]
        assert evaluate_parts(parts, 3)[1] == [9, 12]

    def test_point_count_matches(self):
        for k in (2, 3, 4):
            parts = [[1]] * k
            assert len(evaluate_parts(parts, k)) == 2 * k - 1

    def test_linear_combination_at_two(self):
        # p(2) with parts p0, p1, p2 is p0 + 2 p1 + 4 p2; k = 3 evaluates
        # at (0, 1, -1, 2, inf), so p(2) is index 3
        parts = [[1], [1], [1]]
        evals = evaluate_parts(parts, 3)
        assert evals[3] == [7]


class TestInterpolate:
    def test_k2_recomposes_hand_example(self):
        # split([3,4]) x split([1,2]) pointwise, then back together
        pa, pb = split(Polynomial([3, 4]), 2), split(Polynomial([1, 2]), 2)
        ea, eb = evaluate_parts(pa, 2), evaluate_parts(pb, 2)
        products = [[x * y for x, y in zip(u, v)] for u, v in zip(ea, eb)]
        assert interpolate(products, 2) == [[3], [10], [8]]

    def test_k3_square_of_ones(self):
        p = split(Polynomial([1, 1, 1]), 3)
        evals = evaluate_parts(p, 3)
        products = [[x * y for x, y in zip(u, u)] for u in evals]
        assert interpolate(products, 3) == [[1], [2], [3], [2], [1]]

    def test_all_zero_products(self):
        slices = interpolate([[0, 0]] * 5, 3)
        assert all(all(v == 0 for v in s) for s in slices)

    def test_inexact_division_fails_loudly(self):
        # valid pointwise products for (1+x+x^2)^2, then corrupt one value
        p = split(Polynomial([1, 1, 1]), 3)
        evals = evaluate_parts(p, 3)
        products = [[x * x for x in u] for u in evals]
        products[1][0] += 1
        with pytest.raises(InternalArithmeticError):
            interpolate(products, 3)

    def test_wrong_product_count(self):
        from pqmul import InvalidInputError
        with pytest.raises(InvalidInputError):
            interpolate([[1]] * 4, 3)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_empty_vectors_give_empty_slices(self, k):
        empty = [[] for _ in range(2 * k - 1)]
        assert evaluate_parts([[] for _ in range(k)], k) == empty
        assert interpolate([[] for _ in range(2 * k - 1)], k) == empty

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_round_trip_through_the_stages(self, k):
        """split, evaluate, pointwise schoolbook products (their trailing
        zeros dropped, so the vectors differ in length), interpolate and
        recompose give the schoolbook product."""
        rng = random.Random(k)
        for n in (1, 2, k, 3 * k + 1, 40):
            a = [rng.randrange(-2 ** 20, 2 ** 20) for _ in range(n)]
            b = [rng.choice((-1, 0, 1)) for _ in range(n)]
            ea = evaluate_parts(split(a, k), k)
            eb = evaluate_parts(split(b, k), k)
            products = [list(schoolbook_mul(Polynomial(x),
                                            Polynomial(y)).coeffs)
                        for x, y in zip(ea, eb)]
            m = -(-n // k)
            out = [0] * (2 * k * m)
            for i, part in enumerate(interpolate(products, k)):
                for j, c in enumerate(part):
                    out[i * m + j] += c
            assert Polynomial(out) == schoolbook_mul(Polynomial(a),
                                                     Polynomial(b))

    def test_k4_inexact_division_fails_loudly(self):
        # valid pointwise products for (1+2x+...+8x^7)^2, then corrupt one
        evals = evaluate_parts(split(Polynomial(list(range(1, 9))), 4), 4)
        products = [_schoolbook_coeffs(u, u, OperationCounter())
                    for u in evals]
        assert interpolate(products, 4)[0] == [1, 4, 4]
        products[1][0] += 1
        with pytest.raises(InternalArithmeticError):
            interpolate(products, 4)


class TestKaratsuba:
    def test_two_digit_case_three_mults(self):
        c = OperationCounter()
        r = multiply(Polynomial([3, 4]), Polynomial([1, 2]),
                     MethodPlan.karatsuba(base_cutoff=1), c)
        assert r.coeffs == (3, 10, 8)
        assert c.fundamental_mults == 3

    def test_length_512_count(self):
        # recurrence oracle: 9 halvings of 512, tripling each level
        expected = reference_count(512, 2, 1)
        assert expected == 3 ** 9 == 19683
        c = OperationCounter()
        a = Polynomial.random(512, 4096, seed=11)
        b = Polynomial.random(512, 4096, seed=12)
        multiply(a, b, MethodPlan.karatsuba(base_cutoff=1), c)
        assert c.fundamental_mults == expected

    def test_uneven_lengths_match_oracle(self):
        a = Polynomial.random(100, 1000, seed=21)
        b = Polynomial.random(37, 1000, seed=22)
        plan = MethodPlan.karatsuba(base_cutoff=16)
        assert multiply(a, b, plan) == schoolbook_mul(a, b)


class TestToomCook:
    def test_length_729_count(self):
        expected = reference_count(729, 3, 1)
        assert expected == 5 ** 6 == 15625
        c = OperationCounter()
        a = Polynomial.random(729, 4096, seed=13)
        b = Polynomial.random(729, 4096, seed=14)
        multiply(a, b, MethodPlan.toom(3, base_cutoff=1), c)
        assert c.fundamental_mults == expected

    def test_toom4_power_length_count(self):
        expected = reference_count(256, 4, 1)
        assert expected == 7 ** 4
        c = OperationCounter()
        a = Polynomial.random(256, 999, seed=15)
        b = Polynomial.random(256, 999, seed=16)
        multiply(a, b, MethodPlan.toom(4, base_cutoff=1), c)
        assert c.fundamental_mults == expected

    def test_square_of_ones(self):
        p = Polynomial([1, 1, 1])
        r = multiply(p, p, MethodPlan.toom(3, base_cutoff=1))
        assert r.coeffs == (1, 2, 3, 2, 1)

    def test_identity(self):
        a = Polynomial.random(50, 100, seed=17)
        assert multiply(a, Polynomial([1]), MethodPlan.toom(3)) == a


class TestOracleEquivalence:
    """Every method equals schoolbook on random inputs, both rings."""

    @pytest.mark.parametrize("modulus", [None, 4096, 17])
    def test_random_inputs(self, modulus):
        rng = random.Random(42 if modulus is None else modulus)
        plans = [MethodPlan.karatsuba(base_cutoff=1),
                 MethodPlan.karatsuba(base_cutoff=4),
                 MethodPlan.toom(3, base_cutoff=1),
                 MethodPlan.toom(3, base_cutoff=16),
                 MethodPlan.toom(4, base_cutoff=1),
                 MethodPlan.toom(4, base_cutoff=7)]
        for _ in range(30):
            a = Polynomial.random(rng.randint(1, 120), 4096,
                                  rng.randrange(2**31), modulus)
            b = Polynomial.random(rng.randint(1, 120), 4096,
                                  rng.randrange(2**31), modulus)
            ref = schoolbook_mul(a, b)
            for plan in plans:
                assert multiply(a, b, plan) == ref

    def test_padding_transparency(self):
        # awkward lengths that force padding at several levels
        for n in (5, 17, 19, 23, 81, 100):
            a = Polynomial.random(n, 50, seed=n)
            b = Polynomial.random(n, 50, seed=n + 1)
            ref = schoolbook_mul(a, b)
            assert multiply(a, b, MethodPlan.toom(3, base_cutoff=1)) == ref
            assert multiply(a, b, MethodPlan.toom(4, base_cutoff=1)) == ref

    def test_zero_polynomial(self):
        z = Polynomial([0])
        a = Polynomial.random(30, 10, seed=9)
        assert multiply(a, z, MethodPlan.toom(3)) == z
        assert multiply(z, z, MethodPlan.karatsuba()) == z


class TestPredictedCount:
    def test_schoolbook_square_law(self):
        assert predicted_mult_count(MethodPlan.schoolbook(), 4) == 16

    def test_karatsuba_512(self):
        assert predicted_mult_count(
            MethodPlan.karatsuba(base_cutoff=1), 512) == 19683

    def test_toom3_729(self):
        assert predicted_mult_count(
            MethodPlan.toom(3, base_cutoff=1), 729) == 15625

    def test_measured_equals_predicted_everywhere(self):
        """Count law: the engine realizes the recurrence for every length."""
        rng = random.Random(7)
        lengths = list(range(1, 50)) + [64, 100, 128, 129, 243, 512]
        for n in lengths:
            for k, cutoff in [(2, 1), (2, 4), (2, 16), (3, 1), (3, 16),
                              (4, 1), (4, 7)]:
                plan = (MethodPlan.karatsuba(base_cutoff=cutoff) if k == 2
                        else MethodPlan.toom(k, base_cutoff=cutoff))
                a = Polynomial.random(n, 30, rng.randrange(2**31)) \
                    if n > 1 else Polynomial([3])
                b = Polynomial.random(n, 30, rng.randrange(2**31)) \
                    if n > 1 else Polynomial([5])
                c = OperationCounter()
                multiply(a, b, plan, c)
                predicted = predicted_mult_count(plan, n)
                assert c.fundamental_mults == predicted == \
                    reference_count(n, k, cutoff), (n, k, cutoff)

    def test_dominance(self):
        # powers of two: Karatsuba beats schoolbook from 16 up
        for n in (16, 32, 64, 128, 256, 512, 1024):
            assert predicted_mult_count(MethodPlan.karatsuba(base_cutoff=1), n) \
                < predicted_mult_count(MethodPlan.schoolbook(), n)
        # common powers (of six): Toom-3 beats Karatsuba beats schoolbook
        for n in (36, 216, 1296):
            t3 = predicted_mult_count(MethodPlan.toom(3, base_cutoff=1), n)
            ka = predicted_mult_count(MethodPlan.karatsuba(base_cutoff=1), n)
            sb = predicted_mult_count(MethodPlan.schoolbook(), n)
            assert t3 < ka < sb


class TestRecursionDepth:
    def test_karatsuba_512(self):
        assert recursion_depth(MethodPlan.karatsuba(base_cutoff=1), 512) == 9

    def test_toom3_729(self):
        assert recursion_depth(MethodPlan.toom(3, base_cutoff=1), 729) == 6

    def test_base_case(self):
        for plan in (MethodPlan.karatsuba(base_cutoff=1),
                     MethodPlan.toom(3, base_cutoff=1)):
            assert recursion_depth(plan, 1) == 0

    def test_schoolbook_never_recurses(self):
        assert recursion_depth(MethodPlan.schoolbook(), 1000) == 0

    def test_toom_never_deeper_than_karatsuba(self):
        for n in range(1, 4097):
            dk = recursion_depth(MethodPlan.karatsuba(base_cutoff=1), n)
            for k in (3, 4):
                assert recursion_depth(
                    MethodPlan.toom(k, base_cutoff=1), n) <= dk

    def test_cutoff_clamps(self):
        assert recursion_depth(MethodPlan.karatsuba(base_cutoff=32), 16) == 0

    @pytest.mark.parametrize("plan", DEFAULT_PLANS, ids=lambda p: p.label)
    def test_default_plans_recurse_at_ntru_sizes(self, plan):
        """At the default cutoff every method still splits N = 256 once and
        the NTRU sizes at least twice, so Karatsuba and Toom-Cook differ."""
        assert recursion_depth(plan, 256) >= 1
        for n in (509, 677, 701, 821, 1024):
            assert recursion_depth(plan, n) >= 2, n


#: (fundamental_mults, fundamental_adds) at cutoff 16, as BENCH_6.json and
#: BENCH_7.json report them for N = 256/512/768/1024, and for 70 x 1024.
PINNED_COUNTS = {
    "karatsuba": {256: (20736, 26385), 512: (62208, 81199),
                  768: (104976, 150593), 1024: (186624, 247689),
                  (70, 1024): (32805, 46506)},
    "toom3": {256: (12500, 25114), 512: (30625, 78264),
              768: (62500, 133749), 1024: (105625, 199556),
              (70, 1024): (24000, 48891)},
    "toom4": {256: (12544, 22785), 512: (21952, 65917),
              768: (49392, 115909), 1024: (87808, 176877),
              (70, 1024): (18375, 63666)},
}


class TestPinnedCounts:
    @pytest.mark.parametrize("plan", [MethodPlan.karatsuba(base_cutoff=16),
                                      MethodPlan.toom(3, base_cutoff=16),
                                      MethodPlan.toom(4, base_cutoff=16)],
                             ids=["karatsuba", "toom3", "toom4"])
    @pytest.mark.parametrize("shape", [256, 512, 768, 1024, (70, 1024)],
                             ids=str)
    def test_counts_sequential_and_on_two_workers(self, plan, shape):
        la, lb = shape if isinstance(shape, tuple) else (shape, shape)
        a = Polynomial.random(la, 4096, seed=la, modulus=4096)
        b = Polynomial.random(lb, 4096, seed=lb + 1, modulus=4096)
        counter = OperationCounter()
        multiply(a, b, plan, counter)
        _, par_counter = parallel_mul(a, b, replace(plan, workers=2))
        name = "karatsuba" if plan.k == 2 else f"toom{plan.k}"
        expected = PINNED_COUNTS[name][shape]
        for c in (counter, par_counter):
            assert (c.fundamental_mults, c.fundamental_adds) == expected


# ---------------------------------------------------------------------------
# packed vectors and unbalanced operands (property tests)
# ---------------------------------------------------------------------------

#: Fixed-seed Hypothesis runs, so every host tries the same examples.
PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=150)

#: Cutoff 16, not the default, so that vectors of a few dozen coefficients
#: still recurse.
PLANS = [MethodPlan.karatsuba(base_cutoff=1),
         MethodPlan.karatsuba(base_cutoff=16),
         MethodPlan.toom(3, base_cutoff=1), MethodPlan.toom(3, base_cutoff=16),
         MethodPlan.toom(4, base_cutoff=1), MethodPlan.toom(4, base_cutoff=16)]

ENGINE_PLANS = PLANS[1::2]


@st.composite
def signed_vector(draw, max_size):
    """A signed vector whose largest magnitude is 2^bits, bits 0-80, so it
    lands on either side of 2^63; it may be all zero."""
    length = draw(st.integers(1, max_size))
    bits = draw(st.integers(0, 80))
    v = draw(st.lists(st.integers(-2 ** bits, 2 ** bits),
                      min_size=length, max_size=length))
    if draw(st.booleans()):
        return [0] * length
    sign = draw(st.sampled_from((-1, 1)))
    v[draw(st.integers(0, length - 1))] = sign << bits
    return v


def divide(x, d):
    """x/d as the interpolation divides: a shift for d = 2, 4, 8, divmod
    for d = 3, 5."""
    if d & (d - 1) == 0:
        return _exact_shift(x, d.bit_length() - 1)
    return _exact_div(x, d)


def slot_bits_for(bound):
    """The smallest slot width _pack_blocks and _unpack accept for
    |c| <= bound."""
    return max(64, (bound.bit_length() + 8) & -8)


def pack(v, s):
    """The packed int of v by its definition, sum(c_i * 2^(s*i))."""
    return sum(c << (s * i) for i, c in enumerate(v))


class TestPackedVectors:
    @PROPERTY
    @given(signed_vector(64), st.integers(0, 2))
    @example([2 ** 63 - 1, -(2 ** 63)], 0)
    @example([2 ** 63, -(2 ** 63) - 1], 0)
    def test_pack_unpack_round_trip(self, v, extra_bytes):
        s = slot_bits_for(max(map(abs, v))) + 8 * extra_bytes
        packed, = _pack_blocks(v, len(v), s)
        assert packed == sum(c << (s * i) for i, c in enumerate(v))
        assert _unpack(packed, len(v), s) == v

    @PROPERTY
    @given(signed_vector(64), st.integers(1, 70), st.integers(0, 2))
    @example([2 ** 63 - 1, -(2 ** 63), 5], 2, 0)
    @example([2 ** 70, -1, 3], 1, 0)
    def test_blocks_are_packed_slices(self, v, ls, extra_bytes):
        s = slot_bits_for(max(map(abs, v))) + 8 * extra_bytes
        assert _pack_blocks(tuple(v), ls, s) == tuple(
            pack(v[i:i + ls], s) for i in range(0, len(v), ls))

    @PROPERTY
    @given(signed_vector(16), signed_vector(16))
    @example([2 ** 30] * 16, [2 ** 29] * 16)
    @example([0] * 3, [2 ** 70, -1])
    def test_packed_product_matches_row_loop(self, a, b):
        ma, mb = max(map(abs, a)), max(map(abs, b))
        s = slot_bits_for(max(ma, mb, ma * mb * min(len(a), len(b))))
        got = _unpack(pack(a, s) * pack(b, s), len(a) + len(b) - 1, s)
        assert got == _schoolbook_coeffs(a, b, OperationCounter())

    @pytest.mark.parametrize("slots, d", [
        ([1, -1], 3),       # 1 - 2^64 divides by 3; neither slot does
        ([0, 1], 2),        # 2^64 divides by 2; slot 1 does not
        ([4, 0, 1, 4], 2),  # one bad slot between good ones
    ])
    def test_exact_division_guard(self, slots, d):
        """The remainder of the whole integer is the check: a multiple of d
        divides whatever its slots hold, and one more raises."""
        x = pack(slots, 64)
        assert x % d == 0
        assert divide(x, d) == x // d
        with pytest.raises(InternalArithmeticError):
            divide(x + 1, d)

    def test_exact_division_of_every_slot(self):
        s = 64
        q = _exact_div(pack([9, -24, 3], s), 3)
        assert _unpack(q, 3, s) == [3, -8, 1]

    def test_widest_reduced_operands(self):
        """All-(q-1) operands give the largest values of any reduced
        operands of their length and modulus: N = 1024, q = 2^13 needs the
        widest slots of the benchmark's products."""
        q = 8192
        a = Polynomial([q - 1] * 1024, q)
        ref = schoolbook_mul(a, a)
        for plan in ENGINE_PLANS + DEFAULT_PLANS:
            assert multiply(a, a, plan) == ref

    @pytest.mark.parametrize("plan", PLANS)
    def test_extreme_sign_patterns(self, plan):
        """Same-sign and alternating-sign operands drive the evaluations
        and interpolation intermediates furthest, and the product's
        coefficients to their bound."""
        for n in (27, 33):
            for v in ([2 ** 30] * n, [(-1) ** i << 30 for i in range(n)]):
                a = Polynomial(v)
                assert multiply(a, a, plan) == schoolbook_mul(a, a)

    @pytest.mark.parametrize("plan", ENGINE_PLANS)
    def test_unreduced_operands_beyond_64_bits(self, plan):
        rng = random.Random(70)
        a = Polynomial([rng.choice((-1, 1)) << 70 for _ in range(300)])
        b = Polynomial([rng.randrange(-2 ** 70, 2 ** 70) for _ in range(45)])
        assert multiply(a, b, plan) == schoolbook_mul(a, b)


@st.composite
def narrow_vector(draw, max_size=64):
    """(s, v): a slot width of 8-56 bits and a signed vector that fills it,
    |c| < 2^(s-1), with one slot at the bound's edge."""
    s = draw(st.sampled_from(range(8, 57, 8)))
    lo, hi = -2 ** (s - 1), 2 ** (s - 1) - 1
    v = draw(st.lists(st.integers(lo, hi), min_size=1, max_size=max_size))
    v[draw(st.integers(0, len(v) - 1))] = draw(st.sampled_from((lo, hi)))
    return s, v


@st.composite
def narrow_factors(draw):
    """(s, a, b): a slot width of 8-56 bits and two signed vectors whose
    product coefficients fit it: max|a| * max|b| * min(len) < 2^(s-1)."""
    s = draw(st.sampled_from(range(8, 57, 8)))
    la, lb = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    room = s - 1 - min(la, lb).bit_length()
    bits_a = draw(st.integers(0, room))
    ma, mb = 2 ** bits_a - 1, 2 ** (room - bits_a) - 1
    a = draw(st.lists(st.integers(-ma, ma), min_size=la, max_size=la))
    b = draw(st.lists(st.integers(-mb, mb), min_size=lb, max_size=lb))
    return s, a, b


#: The divisors of each splitting factor's interpolation.
DIVISORS = {3: (2, 3), 4: (2, 3, 4, 5, 8)}


class TestNarrowSlots:
    @PROPERTY
    @given(narrow_vector())
    @example((8, [127, -128]))
    @example((56, [2 ** 55 - 1, -(2 ** 55), 0]))
    def test_pack_unpack_round_trip(self, sv):
        s, v = sv
        packed, = _pack_blocks(v, len(v), s)
        assert packed == sum(c << (s * i) for i, c in enumerate(v))
        assert _unpack(packed, len(v), s) == v

    @PROPERTY
    @given(narrow_vector(), st.integers(1, 70))
    @example((8, [127, -128, 0]), 2)
    def test_blocks_are_packed_slices(self, sv, ls):
        s, v = sv
        assert _pack_blocks(tuple(v), ls, s) == tuple(
            pack(v[i:i + ls], s) for i in range(0, len(v), ls))

    @PROPERTY
    @given(narrow_vector(), st.integers(1, 55))
    @example((8, [-128, 127, -1]), 7)
    @example((56, [-(2 ** 55), 2 ** 55 - 1]), 55)
    def test_unpack_mod_power_of_two(self, sv, e):
        """Signed slots read mod 2^e, for any e < s."""
        s, v = sv
        e = min(e, s - 1)
        assert _unpack(pack(v, s), len(v), s, e) == [c % 2 ** e for c in v]

    @PROPERTY
    @given(narrow_factors())
    @example((16, [127, 127], [-128, -128]))
    @example((8, [-1] * 16, [7] * 16))
    def test_packed_product_matches_row_loop(self, sab):
        s, a, b = sab
        got = _unpack(pack(a, s) * pack(b, s), len(a) + len(b) - 1, s)
        assert got == _schoolbook_coeffs(a, b, OperationCounter())

    @pytest.mark.parametrize("k, slots, d", [
        (3, [1, -1], 3),        # 1 - 2^16 divides by 3; neither slot does
        (4, [1, -1], 3),
        (3, [4, 0, 1, 4], 2),   # one bad slot between good ones
        (4, [4, 0, 1, 4], 2),
        (4, [8, 4, 8], 8),      # 4 * 2^16 divides by 8; slot 1 does not
        (3, [2, 4, 1, 6], 2),   # an odd slot among even ones
        (4, [2, 4, 1, 6], 2),
        (4, [4, 0, 2, 4], 4),   # 2 * 2^32 divides by 4; slot 2 does not
    ])
    def test_exact_division_guard(self, k, slots, d):
        """The remainder of the whole integer is the check, for divisors of
        k's interpolation: a multiple of d divides whatever its slots hold,
        and one more raises."""
        assert d in DIVISORS[k]
        x = pack(slots, 16)
        assert x % d == 0
        assert divide(x, d) == x // d
        with pytest.raises(InternalArithmeticError):
            divide(x + 1, d)

    @pytest.mark.parametrize("k", [3, 4])
    def test_exact_division_of_every_slot(self, k):
        """Every divisor of k's interpolation divides a packed multiple
        slot by slot."""
        s = 16
        for d in DIVISORS[k]:
            x = pack([d * c for c in (3, -8, 1)], s)
            assert _unpack(divide(x, d), 3, s) == [3, -8, 1]

    @pytest.mark.parametrize("k, slots, d", [
        (3, [1, -1], 2),        # 1 - 2^16 is odd
        (4, [1, -1], 2),
        (3, [1], 2),            # floor quotients in range: only the low
        (4, [3, 0], 4),         # bits show the remainder
        (4, [7, 8], 8),
    ])
    def test_shift_remainder_raises(self, k, slots, d):
        """An integer remainder raises, for divisors k's interpolation
        takes as a shift."""
        assert d in DIVISORS[k]
        x = pack(slots, 16)
        assert x % d
        with pytest.raises(InternalArithmeticError):
            divide(x, d)

    @pytest.mark.parametrize("k, d", [
        (3, 2), (3, 3), (4, 2), (4, 3), (4, 4), (4, 5), (4, 8)])
    def test_division_at_the_guard_edges(self, k, d):
        """The remainder check at its edges, for every divisor each method
        uses: d Q divides to Q with quotient slots at both ends of the
        signed range, and d Q - 1 and d Q + 1 raise."""
        assert d in DIVISORS[k]
        s = 16
        quotients = [-2 ** (s - 1), 2 ** (s - 1) - 1, 1, 0, -1]
        x = pack([d * c for c in quotients], s)
        assert _unpack(divide(x, d), len(quotients), s) == quotients
        for off in (-1, 1):
            with pytest.raises(InternalArithmeticError):
                divide(x + off, d)


# ---------------------------------------------------------------------------
# the slot width: the product's bound plus a sign bit, for every method
# ---------------------------------------------------------------------------

#: (n, cutoff) per k with no padding at any level: cutoff 1 and a tree
#: with longer leaves, so all-equal operands reach the largest evaluations.
BOUNDARY_SHAPES = {2: [(64, 1), (64, 16)], 3: [(81, 1), (81, 9)],
                   4: [(64, 1), (64, 4)]}

#: The points of each splitting factor's evaluation, inf last.
POINTS = {3: (0, 1, -1, 2), 4: (0, 1, -1, 2, -2, 3)}


def engine_plan(k: int, cutoff: int) -> MethodPlan:
    return (MethodPlan.karatsuba(base_cutoff=cutoff) if k == 2
            else MethodPlan.toom(k, base_cutoff=cutoff))


def engine_width(a: Polynomial, b: Polynomial, plan: MethodPlan) -> int:
    """The slot width the engine packs a and b in for plan, read from its
    calls to _pack_blocks; the memo is cleared so that both are packed."""
    widths = set()
    pack_blocks = multipliers._pack_blocks

    def spy(coeffs, ls, s):
        widths.add(s)
        return pack_blocks(coeffs, ls, s)

    _operand_leaves.cache_clear()
    with mock.patch.object(multipliers, "_pack_blocks", spy):
        multiply(a, b, plan)
    (s,) = widths
    return s


def boundary_case(n: int, offset: int) -> tuple[int, int]:
    """(c, s): the largest c for which the product bound c^2 n has bit
    length b with b + 1 = offset mod 8, and s, b plus a sign bit rounded up
    to whole bytes.  At offset 0 the slot has no rounding slack; at offset
    1 a bound one bit shorter would make it a byte narrower."""
    b = 48 + (offset - 49) % 8
    c = math.isqrt((2 ** b - 1) // n)
    assert (c * c * n).bit_length() == b and (b + 1) % 8 == offset
    return c, (b + 8) & -8


class TestSlotHeadroom:
    """The one slot width: the bit length of the product bound
    max|a| max|b| ls plus a sign bit, in whole bytes, for every method.  No
    slot holds an evaluation or interpolation value, so Toom-Cook needs no
    headroom above Karatsuba's, and its divisions are checked on whole
    integers."""

    @pytest.mark.parametrize("k, widths", [
        (2, [40, 40, 40, 40]), (3, [40, 40, 40, 40]), (4, [40, 40, 40, 40])])
    def test_widths_at_q_8192(self, k, widths):
        """The benchmark's sizes N = 256, 512, 768, 1024 at cutoff 16."""
        assert [engine_width(Polynomial([1] * n, 8192),
                             Polynomial([1] * n, 8192), engine_plan(k, 16))
                for n in (256, 512, 768, 1024)] == widths

    @pytest.mark.parametrize("k, widths", [
        (2, [40, 40, 40, 40]), (3, [40, 40, 40, 40]), (4, [40, 40, 40, 40])])
    def test_widths_at_q_8192_default_cutoff(self, k, widths):
        """The tree's depth does not move the width."""
        plan = engine_plan(k, DEFAULT_BASE_CUTOFF)
        assert [engine_width(Polynomial([1] * n, 8192),
                             Polynomial([1] * n, 8192), plan)
                for n in (256, 512, 768, 1024)] == widths

    @pytest.mark.parametrize("offset", [0, 1])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_width_at_the_boundary(self, k, offset):
        for n, cutoff in BOUNDARY_SHAPES[k]:
            c, s = boundary_case(n, offset)
            same = Polynomial([c] * n)
            assert engine_width(same, same, engine_plan(k, cutoff)) == s

    @pytest.mark.parametrize("offset", [0, 1])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_engine_products(self, k, offset):
        """Same-sign operands put c^2 n in the product's middle slot, a
        negated one -c^2 n, and alternating signs drive the evaluations at
        the negative points furthest."""
        for n, cutoff in BOUNDARY_SHAPES[k]:
            c, _ = boundary_case(n, offset)
            same, negated = Polynomial([c] * n), Polynomial([-c] * n)
            alternating = Polynomial([(-1) ** i * c for i in range(n)])
            plan = engine_plan(k, cutoff)
            for a, b in ((same, same), (alternating, alternating),
                         (same, alternating), (negated, same),
                         (negated, alternating)):
                assert multiply(a, b, plan) == schoolbook_mul(a, b)

    @pytest.mark.parametrize("offset", [0, 1])
    def test_operand_cut_bound(self, offset):
        """|b| = 1 and a = c = 2^t: the bound c 2^L of Karatsuba's former
        slot cuts is one bit longer than the product bound c n (n = 2^j + 1
        pads to 2^L = 2n - 2 at cutoff 1), and at offset 1 that bit cost a
        byte.  The width is the product's for every method, and the
        products stay exact."""
        n, cutoff, depth, c = 33, 1, 6, 2 ** (8 + offset)
        cut_bits, product_bits = (c << depth).bit_length(), (c * n).bit_length()
        assert cut_bits == product_bits + 1 and (cut_bits + 1) % 8 == offset
        same, ones = Polynomial([c] * n), Polynomial([1] * n)
        alternating = Polynomial([(-1) ** i * c for i in range(n)])
        for k in (2, 3, 4):
            plan = engine_plan(k, cutoff)
            s = engine_width(same, ones, plan)
            assert s == (product_bits + 8) & -8
            assert s == ((cut_bits + 8) & -8) - 8 * (offset == 1)
            for a in (same, alternating):
                assert multiply(a, ones, plan) == schoolbook_mul(a, ones)

    @pytest.mark.parametrize("offset", [0, 1])
    @pytest.mark.parametrize("k", [3, 4])
    def test_interpolation(self, k, offset):
        """The values at k's points of an integer polynomial R, whose
        coefficients are at the boundary's product bound in every sign
        pattern, interpolate to R's coefficients: every division is exact
        on the integers."""
        n, _ = BOUNDARY_SHAPES[k][-1]
        c, _ = boundary_case(n, offset)
        for signs in itertools.product((-1, 1), repeat=2 * k - 1):
            r = [sign * c * c * n for sign in signs]
            values = [sum(ri * t ** i for i, ri in enumerate(r))
                      for t in POINTS[k]] + [r[-1]]
            assert list(_STEPS[k].interpolate(values)) == r

    @pytest.mark.parametrize("k", [3, 4])
    def test_inexact_division_raises(self, k):
        """One value off by one is no integer polynomial's: a division
        leaves an integer remainder and raises."""
        r = list(range(1, 2 * k))
        values = [sum(ri * t ** i for i, ri in enumerate(r))
                  for t in POINTS[k]] + [r[-1]]
        values[1] += 1
        with pytest.raises(InternalArithmeticError):
            _STEPS[k].interpolate(values)


# ---------------------------------------------------------------------------
# the result: masked mod 2^e, or unpacked and reduced mod q
# ---------------------------------------------------------------------------

#: Powers of two up to 2^64 reduce the packed result by a mask; 2^65 and
#: 2^70 lie above that path's limit and, like every other modulus, take
#: the unpack and % q path.
POWER_MODULI = [2, 4, 2 ** 8, 2 ** 13, 2 ** 16, 2 ** 17, 2 ** 64, 2 ** 65,
                2 ** 70]
OTHER_MODULI = [3, 7681, 12289]


def modulus_id(q) -> str:
    if q is not None and q & (q - 1) == 0:
        return f"2^{q.bit_length() - 1}"
    return str(q)


def plan_id(plan: MethodPlan) -> str:
    return f"{plan.label}-c{plan.base_cutoff}"


def assert_schoolbook_product(a, b, plan):
    got, ref = multiply(a, b, plan), schoolbook_mul(a, b)
    assert got.coeffs == ref.coeffs and got.modulus == ref.modulus


class TestResultReduction:
    @pytest.mark.parametrize("q", POWER_MODULI + OTHER_MODULI + [None],
                             ids=modulus_id)
    @pytest.mark.parametrize("plan", PLANS + DEFAULT_PLANS, ids=plan_id)
    def test_random_operands(self, q, plan):
        """Without a modulus the operands are signed."""
        rng = random.Random(q)
        bound = 2 ** 20 if q is None else q
        for la, lb in ((1, 1), (2, 2), (33, 33), (100, 37), (128, 128)):
            a = Polynomial([rng.randrange(-bound, bound) for _ in range(la)],
                           q)
            b = Polynomial([rng.randrange(-bound, bound) for _ in range(lb)],
                           q)
            assert_schoolbook_product(a, b, plan)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("q", [2, 4, 2 ** 13, 2 ** 16, 2 ** 64, 2 ** 65,
                                   7681], ids=modulus_id)
    def test_all_top_operands(self, q, workers):
        """All-(q-1) operands, balanced and 1024 x short, in-process and on
        the pool."""
        long = Polynomial([q - 1] * 1024, q)
        for b in (long, Polynomial([q - 1] * 70, q)):
            for plan in DEFAULT_PLANS:
                assert_schoolbook_product(long, b,
                                          replace(plan, workers=workers))

    @pytest.mark.parametrize("plan", PLANS + DEFAULT_PLANS, ids=plan_id)
    def test_leading_coefficients_reduce_to_zero(self, plan):
        """Leads 2 * 2 = 0 mod 4: the trailing zeros are trimmed."""
        for n in (2, 33, 100):
            a = Polynomial.random(n - 1, 4, seed=n).coeffs + (2,)
            b = Polynomial.random(n - 1, 4, seed=n + 1).coeffs + (2,)
            pa, pb = Polynomial(a, 4), Polynomial(b, 4)
            assert len(multiply(pa, pb, plan)) < 2 * n - 1
            assert_schoolbook_product(pa, pb, plan)

    @pytest.mark.parametrize("plan", PLANS + DEFAULT_PLANS, ids=plan_id)
    def test_one_byte_slots(self, plan):
        """q = 2: every method's slots are one byte wide up to length 127."""
        for n in (1, 2, 17, 33, 63, 127):
            a = Polynomial([1] * n, 2)
            assert engine_width(a, a, plan) == 8
            b = Polynomial.random(n, 2, seed=n, modulus=2)
            assert_schoolbook_product(a, b, plan)
            assert_schoolbook_product(a, a, plan)


# ---------------------------------------------------------------------------
# the evaluation memo
# ---------------------------------------------------------------------------

class TestLeafMemo:
    @pytest.mark.parametrize("plan", ENGINE_PLANS)
    @pytest.mark.parametrize("la, lb", [(300, 300), (70, 300)])
    def test_cleared_and_warm_memo_agree(self, plan, la, lb):
        a = Polynomial.random(la, 8192, seed=la, modulus=8192)
        b = Polynomial.random(lb, 8192, seed=lb + 1, modulus=8192)
        _operand_leaves.cache_clear()
        cold_counter, warm_counter = OperationCounter(), OperationCounter()
        cold = multiply(a, b, plan, cold_counter)
        assert _operand_leaves.cache_info().currsize > 0
        warm = multiply(a, b, plan, warm_counter)
        assert _operand_leaves.cache_info().hits > 0
        assert cold.coeffs == warm.coeffs == schoolbook_mul(a, b).coeffs
        assert cold_counter == warm_counter

    def test_memo_holds_an_unbalanced_batch(self, monkeypatch):
        """A 1024-coefficient operand shared by ten products with fresh
        70-coefficient ones: its 15 block trees are evaluated once, then
        each product evaluates only its fresh operand's tree."""
        plan = MethodPlan.toom(3, base_cutoff=16)
        shared = Polynomial.random(1024, 4096, seed=1, modulus=4096)
        trees = []
        leaves = multipliers._leaves
        monkeypatch.setattr(multipliers, "_leaves", lambda vectors, levels: (
            trees.append(len(vectors)) or leaves(vectors, levels)))
        _operand_leaves.cache_clear()
        for seed in range(10):
            short = Polynomial.random(70, 4096, seed=seed + 2, modulus=4096)
            assert multiply(shared, short, plan) == schoolbook_mul(shared,
                                                                   short)
        assert trees == [15] + [1] * 10

    def test_shared_operand_packed_once(self, monkeypatch):
        """The shared 1024-coefficient operand of an unbalanced batch is
        packed, all 15 blocks, by its first product only: each product
        misses only its fresh operand."""
        plan = MethodPlan.toom(3, base_cutoff=16)
        shared = Polynomial.random(1024, 4096, seed=1, modulus=4096)
        packed = []
        pack = multipliers._pack_blocks
        monkeypatch.setattr(multipliers, "_pack_blocks", lambda c, ls, s: (
            packed.append(len(c)) or pack(c, ls, s)))
        _operand_leaves.cache_clear()
        for seed in range(10):
            short = Polynomial.random(70, 4096, seed=seed + 2, modulus=4096)
            assert multiply(shared, short, plan) == schoolbook_mul(shared,
                                                                   short)
        assert packed.count(1024) == 1
        info = _operand_leaves.cache_info()
        assert (info.misses, info.hits) == (1 + 10, 9)

    def test_memo_keys_the_splitting_factor(self):
        """Karatsuba and Toom-3 at cutoff 16 give N = 20, q = 4 the same
        16-bit slots, as every method does, so only k tells the two plans'
        trees apart."""
        karatsuba, toom3 = ENGINE_PLANS[:2]
        a = Polynomial.random(20, 4, seed=3, modulus=4)
        assert engine_width(a, a, karatsuba) == engine_width(a, a, toom3) == 16
        b = Polynomial.random(20, 4, seed=4, modulus=4)
        _operand_leaves.cache_clear()
        for plan in (karatsuba, toom3, karatsuba):
            assert multiply(a, b, plan) == schoolbook_mul(a, b)

    def test_memo_size_is_bounded(self):
        _operand_leaves.cache_clear()
        shared = Polynomial.random(64, 4096, seed=1, modulus=4096)
        for seed in range(200):
            b = Polynomial.random(64, 4096, seed=seed + 2, modulus=4096)
            multiply(shared, b, MethodPlan.toom(4, base_cutoff=4))
        info = _operand_leaves.cache_info()
        assert info.misses >= 200
        assert info.currsize <= _MEMO_ENTRIES

    @pytest.mark.parametrize("la, lb", [(300, 300), (70, 300)])
    def test_pool_products_bypass_the_memo(self, la, lb):
        plan = MethodPlan.toom(3, workers=2, base_cutoff=16)
        a = Polynomial.random(la, 4096, seed=la, modulus=4096)
        b = Polynomial.random(lb, 4096, seed=lb + 1, modulus=4096)
        before = _operand_leaves.cache_info()
        assert multiply(a, b, plan) == schoolbook_mul(a, b)
        assert _operand_leaves.cache_info() == before


class TestEngineProperties:
    @PROPERTY
    @given(st.sampled_from([None, 4096, 8192]),
           st.lists(st.integers(-2 ** 16, 2 ** 16), min_size=1, max_size=150),
           st.lists(st.integers(-2 ** 16, 2 ** 16), min_size=1, max_size=150),
           st.sampled_from(PLANS))
    def test_products_match_schoolbook(self, q, a, b, plan):
        pa, pb = Polynomial(a, q), Polynomial(b, q)
        assert multiply(pa, pb, plan) == schoolbook_mul(pa, pb)

    @PROPERTY
    @given(st.integers(1, 200), st.integers(1, 200), st.sampled_from(PLANS),
           st.integers(0, 2 ** 31))
    def test_unequal_length_count_law(self, la, lb, plan, seed):
        a = Polynomial.random(la, 30, seed) if la > 1 else Polynomial([3])
        b = Polynomial.random(lb, 30, seed + 1) if lb > 1 else Polynomial([5])
        long, short = max(la, lb), min(la, lb)
        c = OperationCounter()
        multiply(a, b, plan, c)
        assert c.fundamental_mults == \
            -(-long // short) * predicted_mult_count(plan, short)


# ---------------------------------------------------------------------------
# parity: products and counts pinned over a fixed sweep
# ---------------------------------------------------------------------------

PARITY_MODULI = (None, 2, 3, 2048, 4096, 7681, 8192, 2 ** 17, 2 ** 64)
PARITY_SHAPES = [(n, n) for n in [*range(1, 50), 64, 97, 128, 255,
                                  256, 509, 512, 677, 701, 768, 821, 1024]] \
    + [(1024, m) for m in (1, 2, 5, 16, 48, 49, 70, 100, 128, 255)] \
    + [(70, 1024)]

#: Taken at commit fd1c62e, before the ring-derived operand bound, the
#: masked mod-2^e result, Karatsuba's read-sized slots and the shift
#: divisions.
PARITY_DIGEST = \
    "744df1f75e29f56a735c7d6283afba108bb6f401cb5740c209cfd4f3593059e9"


def parity_operand(length: int, q, seed: int) -> Polynomial:
    if q is not None:
        return Polynomial.random(length, q, seed, modulus=q)
    rng = random.Random(seed)
    return Polynomial([rng.randrange(-2 ** 16, 2 ** 16)
                       for _ in range(length)])


class TestParity:
    def test_sweep_digest(self):
        """SHA-256 of repr((coeffs, fundamental_mults, fundamental_adds))
        of every default plan over PARITY_SHAPES and PARITY_MODULI, for
        random operands and, with a modulus, all-(q-1) ones.  The digest was
        taken at commit fd1c62e: any change to a product or a count of the
        default plans shows here."""
        digest = hashlib.sha256()
        for q in PARITY_MODULI:
            for la, lb in PARITY_SHAPES:
                pairs = [(parity_operand(la, q, la),
                          parity_operand(lb, q, lb + 1))]
                if q is not None:
                    pairs.append((Polynomial([q - 1] * la, q),
                                  Polynomial([q - 1] * lb, q)))
                for (a, b), plan in itertools.product(pairs, DEFAULT_PLANS):
                    counter = OperationCounter()
                    coeffs = multiply(a, b, plan, counter).coeffs
                    digest.update(repr((coeffs, counter.fundamental_mults,
                                        counter.fundamental_adds)).encode())
        assert digest.hexdigest() == PARITY_DIGEST
