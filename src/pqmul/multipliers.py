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
law; the cutoff trades formula exactness for wall-clock speed.  A leaf is
one C-level big-int product, which CPython itself runs as Karatsuba on long
operands, while every recursion node adds interpreter work (cutting,
evaluating, interpolating, recomposing).  So DEFAULT_BASE_CUTOFF is a
measured constant, as GMP's Toom thresholds are; README gives the
measurement.

Interpolation is done entirely over the integers, so modular operands are
lifted to plain integers on entry and reduced mod q once at the end.  The
operand bound comes from the ring: with a modulus q every coefficient lies
in [0, q), so the engine takes q - 1 as both operands' largest magnitude
without reading them (NTRU's ternary operands stored mod q reach q - 1
anyway); without one it takes max|c| of each operand.

Packed vectors.  The engine carries a vector of n signed coefficients as one
Python int P = sum(c_i * 2^(s*i)) with slot width s (Kronecker substitution,
Harvey, JSC 2009): P is the polynomial evaluated at x = 2^s.  Evaluation at
2^s is a ring homomorphism from Z[x] to Z, so the packed product is the
packed polynomial product, and one C-level big-int product multiplies two
whole vectors.  Each operand is packed once per product, or once per batch
when it is shared (see below), and the result is unpacked once.  When every
c_i lies in [-2^(s-1), 2^(s-1)), the c_i are the unique signed base-2^s
digits of P.  Adding 2^(s-1) to every slot then makes them non-negative
digits that a shift and a mask read off.  Packing goes through array('q'):
strided slice copies move each item's low min(s/8, 8) bytes into its slot,
and one XOR and one subtract turn the two's-complement slots into signed
digits.  Unpacking reverses this into items of 1, 2, 4 or 8 bytes, the
smallest that hold a slot's low min(s/8, 8) bytes, and sign-extends a
slot's top byte by translating it.  When q = 2^e with e <= 64, the product
is reduced before it is unpacked: c mod 2^e is the low e bits of c's
two's-complement slot, so one mask reduces every slot, only the low
ceil(e/8) bytes of each are read, into unsigned items, and the result
polynomial trusts them without a per-coefficient % q.  Any other q, and no
modulus, unpack the signed slots and reduce them one by one.

Integer nodes.  Between the pack and the unpack the engine reads no slot:
like GMP's integer Toom (Bodrato & Zanoni, ISSAC 2007), every node splits
an integer.  A node of part length m cuts its operand x at stride m*s bits:
part j < k-1 is (x >> j*m*s) & (2^(m*s) - 1), and the last part is
x >> (k-1)*m*s with every higher bit kept, because evaluations outgrow
k*m*s bits.  Then

  - each node computes x*y = R(2^(m*s)) exactly, with R = P*Q over Z[Y]
    for the integer polynomials P and Q of the parts of x and y: its
    subproducts are P(t)*Q(t) = R(t) at the points t (exactly, by
    induction; a leaf is one big-int product), so every division of the
    interpolation divides an exact integer evaluation, the interpolation
    returns R's integer coefficients, and recomposition evaluates R at
    2^(m*s);
  - the only slots ever read are the final product's, and its
    coefficients are at most amax*bmax*ls < 2^(s-1) for the largest
    magnitudes amax and bmax and the shorter length ls.

So s is the bit length of amax*bmax*ls plus a sign bit, in whole bytes,
for every method (with amax and bmax at least 1, so that the operands'
own slots fit as well).  An interpolation division that leaves an integer
remainder can only mean a bug and raises InternalArithmeticError.

Evaluation trees.  _engine_mul cuts each operand into blocks the length
ls of the shorter one, packs them and evaluates each block's tree level by
level, top down (_leaves), so the 2k-1 children of each node are next to
each other.  It then multiplies the leaves pairwise (one big-int product
per leaf) and interpolates and recombines level by level, bottom up, in
groups of 2k-1: one product per block.  A sequential product reads both
operands' leaves from _operand_leaves, a pure function of (coefficients,
ls, k, cutoff, s) behind an LRU memo of _MEMO_ENTRIES operands, so an
operand shared by a batch of products, such as an NTRU public key, is
packed and evaluated once: the whole long operand, all its blocks, or the
short one (Mera, Karmakar & Verbauwhede, TCHES 2020, on precomputed
evaluations).  The memo changes no product and no count.

Counts are structural and identical to the coefficient-list engine this
replaced: _engine_mul derives them from the product's shape, never from
where the product ran.  A leaf of length m counts what the schoolbook row
loop counts: m*m mults and m*m - (2m-1) adds.  A node with part length m
adds 2m, 10m or 22m for evaluating both operands (k = 2, 3, 4), 2, 9 or 20
times (2m-1) for interpolation, and 2(k-1)(m-1) for recomposition.

Operands of unequal length are multiplied block-wise, like GMP's unbalanced
Toom (Bodrato & Zanoni, ISSAC 2007): the longer one, of length L, is cut
into ceil(L/ls) blocks the length ls of the shorter one (only the last block
is zero-padded), each block goes through the engine against the shorter
operand, and the block products are summed at offsets j*ls (their sum is
the product whose slots the width bounds).  So for unequal lengths

    fundamental_mults == ceil(L/ls) * predicted_mult_count(plan, ls)

and equal lengths are one block.  Every product, sequential or parallel,
goes through _engine_mul, and only plan.workers decides where the leaves
are multiplied.  With workers > 1 it evaluates the top level of every
block in the parent, has the pool of parallel run the subpairs through
_run_pairs, and interpolates the top level.  That path keeps no memo:
bench cells and live timing draw fresh operands for every product.

The public list helpers evaluate_parts and interpolate apply the same
formulas as the engine to one coefficient of each vector at a time.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import cycle, zip_longest
from operator import mul
from typing import Callable, NamedTuple

from .errors import InternalArithmeticError, InvalidInputError, InvalidPlanError
from .parallel import run_round_robin
from .poly import OperationCounter, Polynomial, schoolbook_mul

SCHOOLBOOK = "schoolbook"
KARATSUBA = "karatsuba"
TOOMCOOK = "toom"

METHODS = (SCHOOLBOOK, KARATSUBA, TOOMCOOK)

#: Base-case length at/below which recursion falls back to one big-int
#: product; measured, see the module docstring.  Cutoff 1 gives the
#: textbook counts.
DEFAULT_BASE_CUTOFF = 48


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
    def label(self) -> str:
        if self.method == TOOMCOOK:
            return f"toom{self.k}-w{self.workers}"
        return f"{self.method}-w{self.workers}"

    def as_dict(self) -> dict:
        return {"method": self.method, "k": self.k, "workers": self.workers,
                "base_cutoff": self.base_cutoff}


# ---------------------------------------------------------------------------
# packed vectors: n signed coefficients c_i as one int sum(c_i * 2^(s*i))
# ---------------------------------------------------------------------------

def _slot_bits(bound: int) -> int:
    """The slot width for vectors bounded by bound in magnitude: its bit
    length plus a sign bit, in whole bytes."""
    return (bound.bit_length() + 8) & -8


@lru_cache(maxsize=1024)
def _ones(n: int, s: int) -> int:
    """sum(2^(s*i) for i < n): a one in each of n slots of s bits."""
    return ((1 << s * n) - 1) // ((1 << s) - 1)


@lru_cache(maxsize=1024)
def _range_check(n: int, s: int, h: int) -> tuple[int, int]:
    """(offset, mask): every one of the n slots of a packed x lies in
    [-2^h, 2^h), and x has no others, exactly when (x + offset) & mask is 0.

    offset puts 2^h into every slot, mask covers bits h+1 .. s-1 of every
    slot and, as a negative int, every bit above the n slots.
    """
    ones = _ones(n, s)
    return ones << h, ((1 << s) - (2 << h)) * ones - (1 << s * n)


_BIG_ENDIAN = sys.byteorder == "big"

#: array typecodes by item size in bytes, signed and unsigned.
_SIGNED = {array(t).itemsize: t for t in "bhilq"}
_UNSIGNED = {array(t).itemsize: t for t in "BHILQ"}

#: bytes.translate table: a byte to the byte that sign-extends it.
_SIGN_BYTES = bytes(255 if b >= 128 else 0 for b in range(256))


def _slot_bytes(coeffs, s: int) -> tuple[bytes, int]:
    """(raw, t): the little-endian bytes of len(coeffs) slots of s bits,
    slot i holding c_i mod 2^t, for any ints with |c_i| < 2^(s-1)."""
    n, w = len(coeffs), s // 8
    try:
        items = array("q", coeffs)
    except OverflowError:
        return b"".join([c.to_bytes(w, "little", signed=True)
                         for c in coeffs]), s
    if _BIG_ENDIAN:
        items.byteswap()
    raw = items.tobytes()
    if w != 8:
        slots = bytearray(n * w)
        for j in range(min(w, 8)):
            slots[j::w] = raw[j::8]
        raw = slots
    return raw, min(s, 64)


def _from_slots(raw, s: int, t: int) -> int:
    """The packed int of _slot_bytes' (raw, t): flipping bit t-1 of each
    slot makes it c + 2^(t-1), and subtracting those offsets leaves c."""
    top = _ones(len(raw) * 8 // s, s) << (t - 1)
    return (int.from_bytes(raw, "little") ^ top) - top


def _pack_blocks(coeffs, ls: int, s: int) -> tuple[int, ...]:
    """coeffs cut into blocks of ls (the last may be shorter), each packed:
    the bytes of all slots are made once and sliced per block, in time
    linear in len(coeffs)."""
    raw, t = _slot_bytes(coeffs, s)
    step = ls * s // 8
    return tuple(_from_slots(raw[i:i + step], s, t)
                 for i in range(0, len(raw), step))


def _mask_bits(q: int | None) -> int:
    """e when q = 2^e with e <= 64, so that a product's slots reduce mod q by
    one mask and fit 8-byte items; 0 for any other q or None."""
    e = q.bit_length() - 1 if q else 0
    return e if q == 1 << e and e <= 64 else 0


def _unpack(x: int, n: int, s: int, e: int = 0) -> list[int]:
    """The n slots of x, each in [-2^(s-1), 2^(s-1)), as a list; with
    0 < e < s and e <= 64, each slot's value mod 2^e instead."""
    w = s // 8
    top = _ones(n, s) << (s - 1)
    if e:
        # adding top makes every slot c + 2^(s-1) without carries, so the
        # low e bits of each slot are c mod 2^e
        x = (x + top) & ((1 << e) - 1) * _ones(n, s)
        r, codes = (e + 7) // 8, _UNSIGNED
    else:
        if w > 8:
            offset, mask = _range_check(n, s, 63)
            if (x + offset) & mask:
                raw = ((x + top) ^ top).to_bytes(n * w, "little")
                return [int.from_bytes(raw[i:i + w], "little", signed=True)
                        for i in range(0, n * w, w)]
        x = (x + top) ^ top                             # two's complement
        r, codes = min(w, 8), _SIGNED
    # the low r bytes of each slot hold its value: they go into items of
    # z = 1, 2, 4 or 8 bytes, the top byte sign-extended for signed values
    z = 1 << (r - 1).bit_length()
    raw = x.to_bytes(n * w, "little")
    if z != w:
        items = bytearray(n * z)
        for j in range(r):
            items[j::z] = raw[j::w]
        if r < z and not e:
            sign = raw[r - 1::w].translate(_SIGN_BYTES)
            for j in range(r, z):
                items[j::z] = sign
        raw = items
    items = array(codes[z], raw)
    if _BIG_ENDIAN:
        items.byteswap()
    return items.tolist()


def _cutter(count: int, stride: int) -> tuple:
    """(shifts, top, mask) with which _cut cuts an int into count parts at
    stride bits."""
    return (tuple(range(0, (count - 1) * stride, stride)),
            (count - 1) * stride, (1 << stride) - 1)


def _cut(x: int, cutter: tuple) -> list[int]:
    """The parts p_j of x with x = sum(p_j << j*stride): the low stride-bit
    digits of x, then every bit above them as the last part."""
    shifts, top, mask = cutter
    parts = [(x >> t) & mask for t in shifts]
    parts.append(x >> top)
    return parts


def _shift_sum(parts: list[int], stride: int) -> int:
    """sum(part_i << (stride*i)): ints placed stride bits apart.

    Horner's rule: the fewest big-int operations for the 2k-1 slices of a
    node, but quadratic in the number of parts."""
    out = parts[-1]
    for part in reversed(parts[:-1]):
        out = (out << stride) + part
    return out


def _join_blocks(parts: list[int], stride: int) -> int:
    """_shift_sum for any number of parts, in time linear-logarithmic in
    the result: neighbours are joined pairwise, level by level."""
    while len(parts) > 1:
        odd = [parts[-1]] if len(parts) % 2 else []
        parts = [lo + (hi << stride)
                 for lo, hi in zip(parts[::2], parts[1::2])] + odd
        stride *= 2
    return parts[0]


def _exact_div(x: int, d: int) -> int:
    """x/d, or raise if d does not divide x."""
    q, r = divmod(x, d)
    if r:
        raise InternalArithmeticError(
            f"interpolation division by {d} left a remainder")
    return q


def _exact_shift(x: int, t: int) -> int:
    """_exact_div(x, 2^t) as a shift plus a test of the low t bits, which
    are the remainder divmod would give."""
    if x & ((1 << t) - 1):
        raise InternalArithmeticError(
            f"interpolation division by {1 << t} left a remainder")
    return x >> t


def _evaluate2(p0, p1):
    return p0, p0 + p1, p1


def _evaluate3(p0, p1, p2):
    even = p0 + p2
    return (p0, even + p1, even - p1,                       # p(1), p(-1)
            (((p2 << 1) + p1) << 1) + p0, p2)               # p(2)


def _evaluate4(p0, p1, p2, p3):
    even, odd = p0 + p2, p1 + p3
    even2, odd2 = p0 + (p2 << 2), (p1 + (p3 << 2)) << 1
    return (p0, even + odd, even - odd,                     # p(1), p(-1)
            even2 + odd2, even2 - odd2,                     # p(2), p(-2)
            ((p3 * 3 + p2) * 3 + p1) * 3 + p0, p3)          # p(3)


def _interpolate2(products):
    v0, v1, vinf = products
    return v0, v1 - v0 - vinf, vinf


def _interpolate3(products):
    # points (0, 1, -1, 2, inf); every division below is exact over Z
    v0, v1, vm1, v2, vinf = products
    g = _exact_div(v2 - vm1, 3)                             # c1+c2+3c3+5c4
    h = _exact_shift(v1 - vm1, 1)                           # c1+c3
    m = vm1 - v0                                            # -c1+c2-c3+c4
    w3 = _exact_shift(g - m, 1) - h - 2 * vinf              # c3
    return v0, h - w3, m + h - vinf, w3, vinf


def _interpolate4(products):
    # points (0, 1, -1, 2, -2, 3, inf)
    v0, v1, vm1, v2, vm2, v3, vinf = products
    t0 = _exact_shift(v1 + vm1, 1) - v0 - vinf              # c2+c4
    t1 = _exact_shift(v2 + vm2 - 2 * v0 - 128 * vinf, 3)    # c2+4c4
    w4 = _exact_div(t1 - t0, 3)                             # c4
    w2 = t0 - w4                                            # c2
    s0 = _exact_shift(v1 - vm1, 1)                          # c1+c3+c5
    s1 = _exact_shift(v2 - vm2, 2)
    s1 = _exact_div(s1 - s0, 3)                             # c3+5c5
    s2 = _exact_div(v3 - v0 - 9 * w2 - 81 * w4 - 729 * vinf, 3)
    s2 = _exact_shift(s2 - s0, 3) - s1                      # 5c5
    w5 = _exact_div(s2, 5)                                  # c5
    w3 = s1 - s2                                            # c3
    return v0, s0 - w3 - w5, w2, w3, w4, w5, vinf


class _Steps(NamedTuple):
    """The evaluation and interpolation of one splitting factor k."""

    evaluate: Callable       # k parts -> 2k-1 evaluations
    interpolate: Callable    # 2k-1 products -> 2k-1 slices
    evaluate_adds: int       # counted adds per part coefficient
    interpolate_adds: int    # counted adds per product coefficient


_STEPS = {
    2: _Steps(_evaluate2, _interpolate2, 1, 2),
    3: _Steps(_evaluate3, _interpolate3, 5, 9),
    4: _Steps(_evaluate4, _interpolate4, 11, 20),
}


def _steps(k: int) -> _Steps:
    try:
        return _STEPS[k]
    except KeyError:
        raise InvalidPlanError(f"unsupported splitting factor k={k}") from None


# ---------------------------------------------------------------------------
# the public stage helpers (coefficient lists)
# ---------------------------------------------------------------------------

def split(p: Polynomial | list[int], k: int) -> list[list[int]]:
    """Split a polynomial into k equal-length coefficient slices.

    Every part has length ceil(len(p)/k); the last part is zero-padded.  The
    parts are raw lists (padding would be stripped by Polynomial
    normalization) and their concatenation is p with trailing zeros.
    """
    if k < 2:
        raise InvalidInputError(f"splitting factor must be >= 2, got {k}")
    coeffs = list(p.coeffs) if isinstance(p, Polynomial) else list(p)
    m = -(-len(coeffs) // k)
    coeffs += [0] * (m * k - len(coeffs))
    return [coeffs[i * m:(i + 1) * m] for i in range(k)]


def evaluate_parts(parts: list[list[int]], k: int) -> list[list[int]]:
    """Evaluate k part vectors at the 2k-1 points of k, in the order of the
    module docstring's table.

    Each output is a small-integer linear combination of the parts (points
    0 and inf are p0 and p_{k-1} verbatim); shorter parts are padded with 0.
    """
    if len(parts) != k:
        raise InvalidInputError(f"expected {k} parts, got {len(parts)}")
    evaluate = _steps(k).evaluate
    return _rows([evaluate(*c) for c in zip_longest(*parts, fillvalue=0)], k)


def interpolate(pointwise_products: list[list[int]],
                k: int) -> list[list[int]]:
    """Recover the 2k-1 result-coefficient slices from pointwise products.

    Solves the evaluation system of k's points (the module docstring's
    table) exactly over the integers; the product is the sum of slice i
    times x^(i*part_len).  A nonzero remainder in any division is an
    implementation defect and raises.
    """
    if len(pointwise_products) != 2 * k - 1:
        raise InvalidInputError(
            f"expected {2 * k - 1} pointwise products, got "
            f"{len(pointwise_products)}")
    solve = _steps(k).interpolate
    return _rows([solve(c)
                  for c in zip_longest(*pointwise_products, fillvalue=0)], k)


def _rows(columns, k: int) -> list[list[int]]:
    """The 2k-1 result vectors of per-coefficient columns; 2k-1 empty
    vectors when there is no column."""
    return [[c[i] for c in columns] for i in range(2 * k - 1)]


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------

class _Level(NamedTuple):
    """The constants of one recursion level: nodes of length n > cutoff,
    cut into k parts of m = ceil(n/k) slots."""

    cut: tuple               # _cutter(k, stride)
    evaluate: Callable       # k parts -> 2k-1 evaluations
    interpolate: Callable    # 2k-1 products -> 2k-1 slices
    width: int               # 2k-1 subproducts per node
    stride: int              # s*m bits between consecutive parts


@lru_cache(maxsize=1024)
def _levels(n: int, k: int, cutoff: int, s: int) -> tuple[_Level, ...]:
    """The levels of the recursion of a length-n product, top first; none
    when n is at or below the cutoff."""
    if n <= cutoff:
        return ()
    m = -(-n // k)
    steps = _STEPS[k]
    return (_Level(_cutter(k, s * m), steps.evaluate, steps.interpolate,
                   2 * k - 1, s * m),) + _levels(m, k, cutoff, s)


def _depth_leaf(n: int, k: int, cutoff: int) -> tuple[int, int]:
    """(depth, leaf): the levels a length-n product splits through on its
    way n -> ceil(n/k) down to the cutoff, and its leaves' length."""
    depth = 0
    while n > cutoff:
        n, depth = -(-n // k), depth + 1
    return depth, n


@lru_cache(maxsize=1024)
def _tree_counts(n: int, k: int, cutoff: int) -> tuple[int, int]:
    """(fundamental_mults, fundamental_adds) of one engine product of two
    length-n vectors.  A leaf counts what the schoolbook row loop counts.  A
    node with part length m counts its 2k-1 subproducts plus the adds of
    evaluating both operands, interpolating, and recomposing 2k-1 slices of
    2m-1 coefficients at stride m."""
    if n <= cutoff:
        return n * n, n * n - (2 * n - 1)
    m = -(-n // k)
    steps = _STEPS[k]
    mults, adds = _tree_counts(m, k, cutoff)
    return (2 * k - 1) * mults, (
        (2 * k - 1) * adds + 2 * steps.evaluate_adds * m
        + steps.interpolate_adds * (2 * m - 1) + 2 * (k - 1) * (m - 1))


def _interpolate_levels(products: list[int], levels) -> list[int]:
    """Up the given levels, bottom first: each group of 2k-1 consecutive
    subproducts interpolated and recomposed into one product."""
    for level in reversed(levels):
        interpolate, stride, width = \
            level.interpolate, level.stride, level.width
        products = [_shift_sum(interpolate(products[i:i + width]), stride)
                    for i in range(0, len(products), width)]
    return products


def _leaves(vectors, levels) -> list[int]:
    """The leaf operands of the evaluation trees of the given ints: at each
    of the given levels, top down, every int is cut into k parts and
    evaluated at the 2k-1 points, so the 2k-1 children of each node, and the
    leaves of each int, are next to each other."""
    for level in levels:
        evaluate, cut = level.evaluate, level.cut
        vectors = [e for v in vectors for e in evaluate(*_cut(v, cut))]
    return list(vectors)


#: Operands _operand_leaves keeps: a batch's shared operand stays while
#: fewer than this many others are looked up between two of its products
#: (each product looks up at most one other).  One N = 1024 operand at
#: q = 2^13 and cutoff 16 or more takes at most 85 kB (Karatsuba at cutoff
#: 16), whole or in blocks: the memo stays < 1 MB.
_MEMO_ENTRIES = 8


@lru_cache(maxsize=_MEMO_ENTRIES)
def _operand_leaves(coeffs: tuple[int, ...], ls: int, k: int, cutoff: int,
                    s: int) -> tuple[int, ...]:
    """The leaves of every ls-block of an operand, block after block: its
    blocks packed once and each block's tree evaluated once.  Memoised by
    the coefficients and the shape, so an operand shared by a batch of
    products is packed and evaluated by the first of them only."""
    return tuple(_leaves(_pack_blocks(coeffs, ls, s),
                         _levels(ls, k, cutoff, s)))


def _run_pairs(pairs: list[tuple[int, int]], k: int, cutoff: int, n: int,
               s: int) -> list[int]:
    """A pool worker's runner: the products of int pairs cut for length-n
    nodes in s-bit slots, evaluated, multiplied leaf by leaf and
    interpolated."""
    levels = _levels(n, k, cutoff, s)
    xs, ys = zip(*pairs)
    return _interpolate_levels(
        list(map(mul, _leaves(xs, levels), _leaves(ys, levels))), levels)


def _engine_mul(a: Polynomial, b: Polynomial, plan: MethodPlan,
                counter: OperationCounter) -> Polynomial:
    """The k-way engine product of two operands of any lengths.

    Multiplies every ls-block of the longer operand with the shorter one,
    in-process from both operands' memoised leaves when plan.workers is 1,
    else with the top level evaluated here and its subpairs on the pool
    (no memo); then sums the block products and unpacks once.  The counts
    come from the shape alone: _tree_counts per block plus the adds that
    join the blocks.
    """
    a._check_ring(b)
    long, short, q = a.coeffs, b.coeffs, a.modulus
    if len(long) < len(short):
        long, short = short, long
    k, cutoff, ls = plan.k, plan.base_cutoff, len(short)
    if q is None:
        amax, bmax = max(map(abs, long)), max(map(abs, short))
    else:
        amax = bmax = q - 1             # reduced coefficients lie in [0, q)
    s = _slot_bits(max(amax, 1) * max(bmax, 1) * ls)   # the product's bound
    levels = _levels(ls, k, cutoff, s)
    if plan.workers == 1:
        xs = _operand_leaves(long, ls, k, cutoff, s)
        ys = _operand_leaves(short, ls, k, cutoff, s)
        products = list(map(mul, xs, cycle(ys)))
    else:
        levels = levels[:1]
        xs = _leaves(_pack_blocks(long, ls, s), levels)
        ys = _leaves(_pack_blocks(short, ls, s), levels)
        m = -(-ls // k) if levels else ls
        products = run_round_robin(plan.workers, _run_pairs,
                                   list(zip(xs, cycle(ys))), k, cutoff, m, s)
    products = _interpolate_levels(products, levels)
    blocks = len(products)
    mults, adds = _tree_counts(ls, k, cutoff)
    counter.fundamental_mults += blocks * mults
    counter.fundamental_adds += blocks * adds + (blocks - 1) * (ls - 1)
    x, n = _join_blocks(products, s * ls), len(long) + ls - 1
    e = _mask_bits(q)
    if e:
        return Polynomial._reduced(_unpack(x, n, s, e), q)
    return Polynomial(_unpack(x, n, s), q)


def multiply(a: Polynomial, b: Polynomial, plan: MethodPlan,
             counter: OperationCounter | None = None) -> Polynomial:
    """Multiply with the method the plan names, on plan.workers processes.

    Karatsuba (k = 2) and Toom-Cook (k = 3, 4) make 2k-1 subproducts per
    split: with base_cutoff = 1 and both lengths N = k^m the counter grows
    by exactly (2k-1)^m fundamental multiplications.  With workers > 1 the
    top-level subproducts run on the worker pool; schoolbook plans always
    run in-process.  The result always equals schoolbook_mul(a, b), and the
    result and counts are the same for every worker count and scheduling.
    Pool creation failure, or a pool that breaks again after one rebuild,
    raises ResourceError; neither is silently downgraded to sequential.
    """
    if counter is None:
        counter = OperationCounter()
    if plan.method == SCHOOLBOOK:
        return schoolbook_mul(a, b, counter)
    return _engine_mul(a, b, plan, counter)


def parallel_mul(a: Polynomial, b: Polynomial, plan: MethodPlan
                 ) -> tuple[Polynomial, OperationCounter]:
    """multiply(a, b, plan) with a fresh counter, returned beside the
    product."""
    counter = OperationCounter()
    return multiply(a, b, plan, counter), counter


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
    depth, leaf = _depth_leaf(n, plan.k, plan.base_cutoff)
    return (2 * plan.k - 1) ** depth * leaf * leaf


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
    return _depth_leaf(n, plan.k, plan.base_cutoff)[0]
