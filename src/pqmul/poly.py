"""Dense integer polynomials and the schoolbook multiplier.

A polynomial is a coefficient vector over the signed integers or over the
integers mod q; index i holds the coefficient of x^i.  Values are immutable
and normalized (no trailing zero coefficients; the zero polynomial is the
single coefficient [0]).  All intermediate arithmetic uses Python integers,
so products never overflow regardless of q or operand length.

The schoolbook product here is the correctness oracle for every other
multiplication method in the package: two length-N operands cost exactly N^2
fundamental coefficient multiplications.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import add as _add

from .errors import InvalidInputError, RingMismatchError


@dataclass(slots=True)
class OperationCounter:
    """Tally of fundamental coefficient operations during multiplication.

    ``fundamental_mults`` counts coefficient-by-coefficient products at the
    recursion base case; it is structural (len(a)*len(b) per schoolbook
    block) and therefore identical for identical operand shapes.

    ``fundamental_adds`` counts the coefficient additions/subtractions a
    coefficient-wise run performs (evaluation, interpolation, recombination,
    accumulation onto a slot that already holds a value).  The schoolbook
    row loop tallies them as it goes; the packed Karatsuba/Toom-Cook engine
    adds each recursion node's count from the node's shape.
    """

    fundamental_mults: int = 0
    fundamental_adds: int = 0


def _check_modulus(modulus: int) -> None:
    if modulus < 2:
        raise InvalidInputError(f"modulus must be >= 2, got {modulus}")


def _normalize(coeffs: list[int]) -> list[int]:
    end = len(coeffs)
    while end > 1 and coeffs[end - 1] == 0:
        end -= 1
    return coeffs[:end]


class Polynomial:
    """Immutable dense polynomial, optionally over the integers mod q.

    Parameters
    ----------
    coeffs : sequence of int
        Coefficients, lowest degree first.  Must be non-empty.
    modulus : int, optional
        If given (q >= 2), coefficients are reduced into [0, q) and all
        arithmetic stays in that ring.
    """

    __slots__ = ("_coeffs", "_modulus")

    def __init__(self, coeffs, modulus: int | None = None):
        coeffs = list(coeffs)
        if not coeffs:
            raise InvalidInputError("a polynomial needs at least one coefficient")
        if modulus is not None:
            _check_modulus(modulus)
            coeffs = [c % modulus for c in coeffs]
        self._coeffs = tuple(_normalize(coeffs))
        self._modulus = modulus

    @classmethod
    def _reduced(cls, coeffs: list[int], modulus: int) -> "Polynomial":
        """A polynomial from a non-empty list of coefficients already in
        [0, modulus): they are trusted, and only trailing zeros trimmed."""
        self = object.__new__(cls)
        self._coeffs = tuple(_normalize(coeffs))
        self._modulus = modulus
        return self

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._coeffs

    @property
    def modulus(self) -> int | None:
        return self._modulus

    @property
    def degree(self) -> int:
        return len(self._coeffs) - 1

    def __len__(self):
        return len(self._coeffs)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._coeffs == other._coeffs and self._modulus == other._modulus

    def __hash__(self):
        return hash((self._coeffs, self._modulus))

    def __repr__(self):
        mod = f", mod {self._modulus}" if self._modulus is not None else ""
        return f"Polynomial({list(self._coeffs)}{mod})"

    def _check_ring(self, other: "Polynomial") -> None:
        if self._modulus != other._modulus:
            raise RingMismatchError(
                f"mixed moduli: {self._modulus} vs {other._modulus}")

    @classmethod
    def random(cls, num_coeffs: int, coeff_bound: int, seed: int,
               modulus: int | None = None) -> "Polynomial":
        """Deterministic random polynomial of exactly num_coeffs coefficients.

        Coefficients are uniform in [0, coeff_bound); the leading one is
        redrawn from [1, coeff_bound) until it is nonzero in the target ring,
        so the degree is always num_coeffs - 1.  Fixed seed, fixed output.
        """
        if num_coeffs < 1:
            raise InvalidInputError(f"num_coeffs must be >= 1, got {num_coeffs}")
        if coeff_bound < 2:
            raise InvalidInputError(
                f"coeff_bound must be >= 2 so the leading coefficient can be "
                f"nonzero, got {coeff_bound}")
        if modulus is not None:
            _check_modulus(modulus)
        rng = random.Random(seed)
        coeffs = [rng.randrange(coeff_bound) for _ in range(num_coeffs - 1)]
        lead = rng.randrange(1, coeff_bound)
        if modulus is not None:
            while lead % modulus == 0:
                lead = rng.randrange(1, coeff_bound)
        coeffs.append(lead)
        return cls(coeffs, modulus)


def derive_seed(base: int, *indices: int) -> int:
    """A 64-bit seed mixed from a base seed and indices (splitmix style).

    Deterministic across processes and runs: it must not depend on Python's
    salted hash().
    """
    h = base & 0xFFFFFFFFFFFFFFFF
    for i in indices:
        h = (h ^ (i + 0x9E3779B97F4A7C15)) & 0xFFFFFFFFFFFFFFFF
        h = (h * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        h ^= h >> 31
    return h


def _schoolbook_coeffs(a: list[int], b: list[int],
                       counter: OperationCounter) -> list[int]:
    """Raw O(n*m) product of two coefficient vectors (no normalization).

    Counts len(a)*len(b) fundamental multiplications and the accumulations
    onto already-written output slots as additions.
    """
    la, lb = len(a), len(b)
    out = [0] * (la + lb - 1)
    for i, ai in enumerate(a):
        # row accumulate via map: measurably faster than an indexed loop
        out[i:i + lb] = map(_add, out[i:i + lb], map(ai.__mul__, b))
    counter.fundamental_mults += la * lb
    counter.fundamental_adds += la * lb - (la + lb - 1)
    return out


def schoolbook_mul(a: Polynomial, b: Polynomial,
                   counter: OperationCounter | None = None) -> Polynomial:
    """Multiply two polynomials with the classical O(N^2) method.

    This is the reference implementation the recursive methods are checked
    against.  Exactly len(a)*len(b) fundamental multiplications are counted.
    """
    a._check_ring(b)
    if counter is None:
        counter = OperationCounter()
    out = _schoolbook_coeffs(list(a.coeffs), list(b.coeffs), counter)
    return Polynomial(out, a.modulus)
