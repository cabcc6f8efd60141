"""Divide-and-conquer multipliers and their closed-form cost predictors.

Karatsuba and Toom-Cook k-way both follow the same shape: split each operand
into k equal parts, evaluate the parts at 2k-1 points, multiply the
evaluations pairwise (recursively), then interpolate the 2k-1 products back
into the coefficients of the result.  Karatsuba is exactly the k = 2 case,
so one engine drives all of them:

    k = 2   points (0, 1, inf)                 3 subproducts
    k = 3   points (0, 1, -1, 2, inf)          5 subproducts
    k = 4   points (0, 1, -1, 2, -2, 3, inf)   7 subproducts

With base_cutoff = 1 and operand length N = k^m the engine performs exactly
(2k-1)^m fundamental multiplications, matching the N^(log_k(2k-1)) growth
law; the cutoff trades formula exactness for wall-clock speed (schoolbook is
faster below a few dozen coefficients).

Interpolation is done entirely over the integers: every division in the
back-substitution below is exact for any integer inputs, so modular operands
are lifted to plain integers on entry and reduced mod q once at the end.
An inexact division can only mean a bug and raises InternalArithmeticError.

The base case (n <= base_cutoff) is one Kronecker-substituted big-integer
product (Harvey, JSC 2009): each signed vector is packed into one Python int
with signed 64-bit slots, the two ints are multiplied once, and the slots of
the result are the product coefficients.  It returns and counts exactly what
the schoolbook row loop does; when the coefficients are too large for the
slots it runs that row loop instead.

Operands of unequal length are multiplied block-wise, like GMP's unbalanced
Toom (Bodrato & Zanoni, ISSAC 2007): the longer one, of length L, is cut
into ceil(L/ls) blocks the length ls of the shorter one (only the last block
is zero-padded), each block goes through the engine against the shorter
operand, and the block products are summed at offsets j*ls.  So for unequal
lengths

    fundamental_mults == ceil(L/ls) * predicted_mult_count(plan, ls)

and equal lengths are one block.  Every product, sequential or parallel,
goes through the one entry point _engine_mul; only the pair runner it is
given decides where the top-level subproducts run.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass
from functools import lru_cache
from operator import add as _add, sub as _sub

from .errors import InternalArithmeticError, InvalidInputError, InvalidPlanError
from .poly import OperationCounter, Polynomial, _schoolbook_coeffs

SCHOOLBOOK = "schoolbook"
KARATSUBA = "karatsuba"
TOOMCOOK = "toom"

METHODS = (SCHOOLBOOK, KARATSUBA, TOOMCOOK)

#: Base-case length at/below which recursion falls back to schoolbook.
#: Used for wall-clock benchmarking; count verification forces 1.
DEFAULT_BASE_CUTOFF = 16

#: Evaluation points per splitting factor (math.inf marks the leading part).
EVALUATION_POINTS = {
    2: (0, 1, math.inf),
    3: (0, 1, -1, 2, math.inf),
    4: (0, 1, -1, 2, -2, 3, math.inf),
}


@dataclass(frozen=True)
class MethodPlan:
    """A multiplication method plus how to execute it.

    k is the splitting factor: fixed 2 for Karatsuba, 3 or 4 for Toom-Cook,
    0 (unused) for schoolbook.  workers = 1 means sequential execution.
    """

    method: str
    k: int = 0
    workers: int = 1
    base_cutoff: int = DEFAULT_BASE_CUTOFF

    def __post_init__(self):
        if self.method not in METHODS:
            raise InvalidPlanError(f"unknown method {self.method!r}")
        if self.method == KARATSUBA and self.k != 2:
            raise InvalidPlanError(f"Karatsuba requires k=2, got k={self.k}")
        if self.method == TOOMCOOK and not 3 <= self.k <= 4:
            raise InvalidPlanError(
                f"Toom-Cook supports k in [3, 4], got k={self.k}")
        if self.method == SCHOOLBOOK and self.k != 0:
            raise InvalidPlanError(
                f"schoolbook does not split; k must be 0, got k={self.k}")
        if self.workers < 1:
            raise InvalidPlanError(f"workers must be >= 1, got {self.workers}")
        if self.base_cutoff < 1:
            raise InvalidPlanError(
                f"base_cutoff must be >= 1, got {self.base_cutoff}")

    @classmethod
    def schoolbook(cls, workers: int = 1) -> "MethodPlan":
        return cls(SCHOOLBOOK, k=0, workers=workers, base_cutoff=1)

    @classmethod
    def karatsuba(cls, workers: int = 1,
                  base_cutoff: int = DEFAULT_BASE_CUTOFF) -> "MethodPlan":
        return cls(KARATSUBA, k=2, workers=workers, base_cutoff=base_cutoff)

    @classmethod
    def toom(cls, k: int = 3, workers: int = 1,
             base_cutoff: int = DEFAULT_BASE_CUTOFF) -> "MethodPlan":
        return cls(TOOMCOOK, k=k, workers=workers, base_cutoff=base_cutoff)

    @property
    def split_factor(self) -> int:
        """Effective k of the shared engine (2 for Karatsuba)."""
        return 2 if self.method == KARATSUBA else self.k

    @property
    def label(self) -> str:
        if self.method == TOOMCOOK:
            return f"toom{self.k}-w{self.workers}"
        return f"{self.method}-w{self.workers}"

    def as_dict(self) -> dict:
        return {"method": self.method, "k": self.k, "workers": self.workers,
                "base_cutoff": self.base_cutoff}

    @classmethod
    def from_dict(cls, d: dict) -> "MethodPlan":
        try:
            return cls(method=d["method"], k=int(d["k"]),
                       workers=int(d["workers"]),
                       base_cutoff=int(d["base_cutoff"]))
        except KeyError as exc:
            raise InvalidPlanError(f"plan descriptor missing field {exc}") from exc


# ---------------------------------------------------------------------------
# raw vector helpers (operate on plain lists of ints, padding preserved)
# ---------------------------------------------------------------------------

def _vadd(x, y, counter):
    counter.add_adds(len(x))
    return list(map(_add, x, y))


def _vsub(x, y, counter):
    counter.add_adds(len(x))
    return list(map(_sub, x, y))


def _vexact_div(x, d, counter):
    if any(map(d.__rmod__, x)):
        raise InternalArithmeticError(
            f"interpolation division by {d} left a remainder")
    return list(map(d.__rfloordiv__, x))


def split(p: Polynomial | list[int], k: int) -> list[list[int]]:
    """Split a polynomial into k equal-length coefficient slices.

    Every part has length ceil(len(p)/k); the last part is zero-padded.  The
    parts are raw lists (padding would be stripped by Polynomial
    normalization) and recompose(split(p, k), part_len) restores p exactly.
    """
    if k < 2:
        raise InvalidInputError(f"splitting factor must be >= 2, got {k}")
    coeffs = list(p.coeffs) if isinstance(p, Polynomial) else list(p)
    m = -(-len(coeffs) // k)
    coeffs += [0] * (m * k - len(coeffs))
    return [coeffs[i * m:(i + 1) * m] for i in range(k)]


def recompose(parts: list[list[int]], stride: int,
              counter: OperationCounter | None = None) -> list[int]:
    """Sum part vectors placed at offsets 0, stride, 2*stride, ...

    Inverse of split when stride = part length; also recombines the
    (overlapping) interpolation output slices, stride = original part length,
    and the block products of unequal operands, stride = block length.  The
    output has stride*(len(parts)-1)+len(parts[-1]) coefficients.  Only the
    coefficients a part shares with earlier parts are added; with a counter,
    each of those adds is counted.
    """
    if not parts:
        return [0]
    out: list[int] = []
    for i, part in enumerate(parts):
        base = i * stride
        if base > len(out):
            out += [0] * (base - len(out))
        shared = min(len(out) - base, len(part))
        out[base:base + shared] = map(_add, out[base:base + shared], part)
        out += part[shared:]
    if counter is not None:
        counter.add_adds(sum(map(len, parts)) - len(out))
    return out


def _evaluate_raw(parts, k, counter):
    if k == 2:
        p0, p1 = parts
        return [p0, _vadd(p0, p1, counter), p1]
    if k == 3:
        p0, p1, p2 = parts
        s = _vadd(p0, p2, counter)
        e1 = _vadd(s, p1, counter)                        # p(1)
        em1 = _vsub(s, p1, counter)                       # p(-1)
        counter.add_adds(2 * len(p0))
        e2 = [a + 2 * b + 4 * c for a, b, c in zip(p0, p1, p2)]   # p(2)
        return [p0, e1, em1, e2, p2]
    if k == 4:
        p0, p1, p2, p3 = parts
        even = _vadd(p0, p2, counter)
        odd = _vadd(p1, p3, counter)
        e1 = _vadd(even, odd, counter)                    # p(1)
        em1 = _vsub(even, odd, counter)                   # p(-1)
        counter.add_adds(2 * len(p0))
        even2 = [a + 4 * c for a, c in zip(p0, p2)]
        odd2 = [2 * b + 8 * d for b, d in zip(p1, p3)]
        e2 = _vadd(even2, odd2, counter)                  # p(2)
        em2 = _vsub(even2, odd2, counter)                 # p(-2)
        counter.add_adds(3 * len(p0))
        e3 = [a + 3 * b + 9 * c + 27 * d
              for a, b, c, d in zip(p0, p1, p2, p3)]      # p(3)
        return [p0, e1, em1, e2, em2, e3, p3]
    raise InvalidPlanError(f"unsupported splitting factor k={k}")


def evaluate_parts(parts: list[list[int]], k: int,
                   counter: OperationCounter | None = None) -> list[list[int]]:
    """Evaluate k part vectors at the 2k-1 points of EVALUATION_POINTS[k].

    Output order matches the point order; each output is a small-integer
    linear combination of the parts (points 0 and inf are p0 and p_{k-1}
    verbatim).
    """
    if len(parts) != k:
        raise InvalidInputError(f"expected {k} parts, got {len(parts)}")
    return _evaluate_raw([list(p) for p in parts], k,
                         counter or OperationCounter())


def _interpolate_raw(products, k, counter):
    if k == 2:
        v0, v1, vinf = products
        mid = _vsub(_vsub(v1, v0, counter), vinf, counter)
        return [v0, mid, vinf]
    if k == 3:
        # points (0, 1, -1, 2, inf); every division below is exact over Z
        v0, v1, vm1, v2, vinf = products
        g = _vexact_div(_vsub(v2, vm1, counter), 3, counter)    # c1+c2+3c3+5c4
        h = _vexact_div(_vsub(v1, vm1, counter), 2, counter)    # c1+c3
        m = _vsub(vm1, v0, counter)                             # -c1+c2-c3+c4
        w3 = _vexact_div(_vsub(g, m, counter), 2, counter)      # c1+2c3+2c4
        w3 = _vsub(w3, h, counter)                              # c3+2c4
        counter.add_adds(len(w3))
        w3 = [a - 2 * b for a, b in zip(w3, vinf)]              # c3
        w2 = _vsub(_vadd(m, h, counter), vinf, counter)         # c2
        w1 = _vsub(h, w3, counter)                              # c1
        return [v0, w1, w2, w3, vinf]
    if k == 4:
        # points (0, 1, -1, 2, -2, 3, inf)
        v0, v1, vm1, v2, vm2, v3, vinf = products
        n = len(v0)
        t0 = _vexact_div(_vadd(v1, vm1, counter), 2, counter)
        t0 = _vsub(_vsub(t0, v0, counter), vinf, counter)       # c2+c4
        counter.add_adds(3 * n)
        t1 = [p + q - 2 * a - 128 * b
              for p, q, a, b in zip(v2, vm2, v0, vinf)]
        t1 = _vexact_div(t1, 8, counter)                        # c2+4c4
        w4 = _vexact_div(_vsub(t1, t0, counter), 3, counter)    # c4
        w2 = _vsub(t0, w4, counter)                             # c2
        s0 = _vexact_div(_vsub(v1, vm1, counter), 2, counter)   # c1+c3+c5
        s1 = _vexact_div(_vsub(v2, vm2, counter), 4, counter)
        s1 = _vexact_div(_vsub(s1, s0, counter), 3, counter)    # c3+5c5
        counter.add_adds(4 * n)
        s2 = [p - a - 9 * b - 81 * c - 729 * d
              for p, a, b, c, d in zip(v3, v0, w2, w4, vinf)]
        s2 = _vexact_div(s2, 3, counter)                        # c1+9c3+81c5
        s2 = _vexact_div(_vsub(s2, s0, counter), 8, counter)
        s2 = _vsub(s2, s1, counter)                             # 5c5
        w5 = _vexact_div(s2, 5, counter)                        # c5
        w3 = _vsub(s1, s2, counter)                             # c3
        w1 = _vsub(_vsub(s0, w3, counter), w5, counter)         # c1
        return [v0, w1, w2, w3, w4, w5, vinf]
    raise InvalidPlanError(f"unsupported splitting factor k={k}")


def interpolate(pointwise_products: list[list[int]], k: int,
                counter: OperationCounter | None = None) -> list[list[int]]:
    """Recover the 2k-1 result-coefficient slices from pointwise products.

    Solves the evaluation system of EVALUATION_POINTS[k] exactly over the
    integers; recompose(result, part_len) is the full product.  A nonzero
    remainder in any division is an implementation defect and raises.
    """
    if len(pointwise_products) != 2 * k - 1:
        raise InvalidInputError(
            f"expected {2 * k - 1} pointwise products, got "
            f"{len(pointwise_products)}")
    return _interpolate_raw([list(p) for p in pointwise_products], k,
                            counter or OperationCounter())


#: Kronecker slots are signed 64-bit array items; a slot holds any value v
#: with |v| < _SLOT_BOUND = 2^63.
_SLOT_BYTES = array("q").itemsize
_SLOT_BOUND = 1 << (8 * _SLOT_BYTES - 1)


@lru_cache(maxsize=256)
def _top_bits(n: int) -> int:
    """sum(_SLOT_BOUND << (64 * i) for i < n): the top bit of n slots."""
    return int.from_bytes(array("Q", [_SLOT_BOUND]) * n, sys.byteorder)


def _kronecker_coeffs(a: list[int], b: list[int],
                      counter: OperationCounter) -> list[int]:
    """What _schoolbook_coeffs(a, b, counter) returns, by one int product.

    Packs A = sum a_i 2^(64i) and B likewise, and reads the coefficients
    of A*B back out of its 64-bit slots.  Every product coefficient has
    |c| <= max|a| * max|b| * min(la, lb); while that is below 2^63 each
    slot of A*B + offsets holds c + 2^63 with no carry into the next, and
    flipping the slots' top bits turns c + 2^63 into c in two's complement
    (and back, when packing).  Larger values take the schoolbook row loop.
    Counts exactly what the row loop counts.
    """
    la, lb = len(a), len(b)
    ma, mb = max(map(abs, a)), max(map(abs, b))
    if max(ma, mb, ma * mb * min(la, lb)) >= _SLOT_BOUND:
        return _schoolbook_coeffs(a, b, counter)
    lc = la + lb - 1
    oa, ob, oc = _top_bits(la), _top_bits(lb), _top_bits(lc)
    order = sys.byteorder
    pa = (int.from_bytes(array("q", a), order) ^ oa) - oa
    pb = (int.from_bytes(array("q", b), order) ^ ob) - ob
    packed = (pa * pb + oc) ^ oc
    counter.add_mults(la * lb)
    counter.add_adds(la * lb - lc)
    slots = memoryview(packed.to_bytes(lc * _SLOT_BYTES, order)).cast("q")
    return slots.tolist()


def _split_evaluate(a: list[int], b: list[int], k: int,
                    counter: OperationCounter) -> list[tuple[list[int], list[int]]]:
    """One level down: zero-pad both vectors to a multiple of k, split and
    evaluate them; returns the 2k-1 subproduct operand pairs."""
    n = len(a)
    m = -(-n // k)
    if m * k != n:
        pad = [0] * (m * k - n)
        a = a + pad
        b = b + pad
    ev_a = _evaluate_raw([a[i * m:(i + 1) * m] for i in range(k)], k, counter)
    ev_b = _evaluate_raw([b[i * m:(i + 1) * m] for i in range(k)], k, counter)
    return list(zip(ev_a, ev_b))


def _interpolate_recompose(products: list[list[int]], k: int, n: int,
                           counter: OperationCounter) -> list[int]:
    """One level up: the 2n-1 coefficients of a length-n product from the
    2k-1 subproducts of the pairs _split_evaluate returned."""
    m = -(-n // k)
    out = recompose(_interpolate_raw(products, k, counter), m, counter)
    return out[:2 * n - 1] if m * k != n else out


def _toom_engine(a: list[int], b: list[int], k: int, cutoff: int,
                 counter: OperationCounter) -> list[int]:
    """Recursive k-way product of two equal-length vectors.

    Returns exactly 2*len(a)-1 coefficients.  Lengths that do not divide by
    k are zero-padded to the next multiple at each level; the padding never
    leaks into the returned slice.
    """
    n = len(a)
    if n <= cutoff:
        return _kronecker_coeffs(a, b, counter)
    products = [_toom_engine(x, y, k, cutoff, counter)
                for x, y in _split_evaluate(a, b, k, counter)]
    return _interpolate_recompose(products, k, n, counter)


def _run_pairs(pairs: list[tuple[list[int], list[int]]], k: int, cutoff: int
               ) -> tuple[list[list[int]], int, int]:
    """In-process pair runner: (products, fundamental_mults, fundamental_adds).

    parallel_mul's pool runner runs it on each worker's share of the pairs.
    """
    counter = OperationCounter()
    products = [_toom_engine(a, b, k, cutoff, counter) for a, b in pairs]
    return products, counter.fundamental_mults, counter.fundamental_adds


def _engine_mul(a: Polynomial, b: Polynomial, k: int, cutoff: int,
                counter: OperationCounter, run_pairs=_run_pairs) -> Polynomial:
    """The k-way engine product of two operands of any lengths.

    Splits and evaluates the top level of every block, hands all operand
    pairs to run_pairs(pairs, k, cutoff) in one call, then interpolates each
    block and sums the block products; the result does not depend on where
    run_pairs runs them.
    """
    a._check_ring(b)
    long, short = list(a.coeffs), list(b.coeffs)
    if len(long) < len(short):
        long, short = short, long
    ls = len(short)
    blocks = [long[i:i + ls] for i in range(0, len(long), ls)]
    blocks[-1] += [0] * (ls - len(blocks[-1]))
    if ls > cutoff:
        pairs = [pair for x in blocks
                 for pair in _split_evaluate(x, short, k, counter)]
    else:
        pairs = [(x, short) for x in blocks]
    products, mults, adds = run_pairs(pairs, k, cutoff)
    counter.add_mults(mults)
    counter.add_adds(adds)
    if ls > cutoff:
        width = 2 * k - 1
        products = [_interpolate_recompose(products[i:i + width], k, ls, counter)
                    for i in range(0, len(products), width)]
    return Polynomial(recompose(products, ls, counter), a.modulus)


def karatsuba_mul(a: Polynomial, b: Polynomial,
                  plan: MethodPlan | None = None,
                  counter: OperationCounter | None = None) -> Polynomial:
    """Karatsuba product: 3 subproducts per halving instead of 4.

    With base_cutoff = 1 and both lengths N = 2^m the counter grows by
    exactly 3^m fundamental multiplications.  The result always equals
    schoolbook_mul(a, b).
    """
    if plan is None:
        plan = MethodPlan.karatsuba()
    if plan.method != KARATSUBA:
        raise InvalidPlanError(f"plan method is {plan.method!r}, expected karatsuba")
    if counter is None:
        counter = OperationCounter()
    return _engine_mul(a, b, 2, plan.base_cutoff, counter)


def toomcook_mul(a: Polynomial, b: Polynomial, plan: MethodPlan,
                 counter: OperationCounter | None = None) -> Polynomial:
    """Toom-Cook k-way product, k in {3, 4}: 2k-1 subproducts per split.

    With base_cutoff = 1 and lengths N = k^m the counter grows by exactly
    (2k-1)^m fundamental multiplications.  The result always equals
    schoolbook_mul(a, b).
    """
    if plan.method != TOOMCOOK:
        raise InvalidPlanError(f"plan method is {plan.method!r}, expected toom")
    if counter is None:
        counter = OperationCounter()
    return _engine_mul(a, b, plan.k, plan.base_cutoff, counter)


def multiply(a: Polynomial, b: Polynomial, plan: MethodPlan,
             counter: OperationCounter | None = None) -> Polynomial:
    """Multiply with whichever method the plan names (sequential path)."""
    if plan.method == SCHOOLBOOK:
        from .poly import schoolbook_mul
        return schoolbook_mul(a, b, counter)
    if plan.method == KARATSUBA:
        return karatsuba_mul(a, b, plan, counter)
    return toomcook_mul(a, b, plan, counter)


def predicted_mult_count(plan: MethodPlan, n: int) -> int:
    """Closed-form fundamental multiplication count for length-n operands.

    Schoolbook is n^2; the recursive methods follow the exact recurrence
    M(n) = (2k-1) * M(ceil(n/k)) with M(n) = n^2 once n <= base_cutoff,
    which is precisely what the engine performs (padding included).
    """
    if n < 1:
        raise InvalidInputError(f"operand length must be >= 1, got {n}")
    if plan.method == SCHOOLBOOK:
        return n * n
    k = plan.split_factor
    subproducts = 1
    while n > plan.base_cutoff:
        subproducts *= 2 * k - 1
        n = -(-n // k)
    return subproducts * n * n


def recursion_depth(plan: MethodPlan, n: int) -> int:
    """Number of splitting levels before the schoolbook base case.

    Equals ceil(log_k(n / base_cutoff)) clamped at 0; dividing by a larger k
    never needs more levels, which is why Toom-Cook parallelizes with fewer,
    wider steps than Karatsuba.
    """
    if n < 1:
        raise InvalidInputError(f"operand length must be >= 1, got {n}")
    if plan.method == SCHOOLBOOK:
        return 0
    k = plan.split_factor
    depth = 0
    while n > plan.base_cutoff:
        n = -(-n // k)
        depth += 1
    return depth
