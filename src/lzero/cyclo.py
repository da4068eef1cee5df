"""Exact arithmetic in cyclotomic fields Q(zeta_k).

Elements are stored on the power basis 1, zeta_k, ..., zeta_k^(phi(k)-1),
always reduced mod the k-th cyclotomic polynomial, as integer numerators
over one positive denominator in lowest terms.  The power basis generates
the full ring of integers Z[zeta_k], so an element is an algebraic integer
exactly when its denominator is 1.

Mixed-order arithmetic merges both operands into Q(zeta_lcm) via the
compatible system zeta_d = zeta_K^(K/d) for d | K.
"""
from __future__ import annotations

import functools
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm, prod

from lzero._kernels import poly_mul_reduce
from lzero.errors import IncompatibleOrders
from lzero.nt import euler_phi, factorize


@functools.lru_cache(maxsize=None)
def cyclotomic_poly(k: int) -> tuple[int, ...]:
    """The k-th cyclotomic polynomial, coefficients in ascending degree.

    For k > 1, Phi_k = prod_{d | k} (1 - x^d)^mu(k/d); the product is taken
    on power series cut off past degree phi(k), where factors with
    d > phi(k) are 1.

    >>> cyclotomic_poly(12)
    (1, 0, -1, 0, 1)
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return (-1, 1)
    deg = euler_phi(k)
    out = [1] + [0] * deg
    primes = list(factorize(k))
    for r in range(len(primes) + 1):
        for sub in combinations(primes, r):
            d = k // prod(sub)
            if d > deg:
                continue
            if r % 2:  # mu = -1: divide by 1 - x^d
                for i in range(d, deg + 1):
                    out[i] += out[i - d]
            else:  # mu = +1: multiply by 1 - x^d
                for i in range(deg, d - 1, -1):
                    out[i] -= out[i - d]
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _ctx(k: int):
    """Per-order tables: phi(k), monomial reductions, and multiply rows.

    pows[m] expands x^m mod Phi_k on the power basis for 0 <= m <= M where
    M = max(k - 1, 2 phi(k) - 2); mulrows is the slice used to reduce a raw
    degree-(2d-2) product.
    """
    phi = cyclotomic_poly(k)
    d = len(phi) - 1
    low = phi[:d]
    top = max(k - 1, 2 * d - 2)
    pows: list[tuple[int, ...]] = []
    cur = [0] * d
    cur[0] = 1
    for _ in range(top + 1):
        pows.append(tuple(cur))
        carry = cur[d - 1]
        cur = [0] + cur[: d - 1]
        if carry:
            for i in range(d):
                cur[i] -= carry * low[i]
    mulrows = tuple(pows[d : 2 * d - 1])
    return d, tuple(pows), mulrows


class CycloElt:
    """An element of Q(zeta_k): integer power-basis numerators over one
    positive denominator, kept in lowest terms (gcd(nums..., den) = 1)."""

    __slots__ = ("order", "nums", "den")

    def __init__(self, order: int, nums, den: int = 1):
        d = _ctx(order)[0]
        nums = tuple(nums)
        if len(nums) != d:
            raise ValueError(f"need {d} coordinates for order {order}")
        if den == 0:
            raise ZeroDivisionError("denominator 0")
        g = gcd(den, *nums)
        if den < 0:
            g = -g
        if g != 1:
            nums = tuple(n // g for n in nums)
            den //= g
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("CycloElt is immutable")

    # ---- constructors -------------------------------------------------

    @staticmethod
    def zero(order: int = 1) -> CycloElt:
        return CycloElt(order, [0] * _ctx(order)[0])

    @staticmethod
    def one(order: int = 1) -> CycloElt:
        return CycloElt.zeta(order, 0)

    @staticmethod
    def rational(q, order: int = 1) -> CycloElt:
        q = Fraction(q)
        nums = [0] * _ctx(order)[0]
        nums[0] = q.numerator
        return CycloElt(order, nums, q.denominator)

    @staticmethod
    def zeta(order: int, power: int = 1) -> CycloElt:
        """zeta_order^power."""
        _, pows, _ = _ctx(order)
        return CycloElt(order, pows[power % order])

    @staticmethod
    def from_exponent_sums(order: int, sums, den: int = 1) -> CycloElt:
        """(sum_m sums[m] zeta_order^m) / den for sums indexed by m < order,
        reduced to the power basis.

        >>> CycloElt.from_exponent_sums(4, [1, 2, 3, 4])
        CycloElt(k=4, [-2, -2])
        """
        d, pows, _ = _ctx(order)
        acc = [0] * d
        for c, row in zip(sums, pows):
            if c:
                for t in range(d):
                    if row[t]:
                        acc[t] += c * row[t]
        return CycloElt(order, acc, den)

    @classmethod
    def from_strings(cls, order: int, coords: list[str]) -> CycloElt:
        """Parse "n/d" coordinates (d > 0), as coord_strings writes them."""
        pairs = []
        for s in coords:
            n, d = map(int, s.split("/"))
            if d <= 0:
                raise ValueError(f"bad coordinate {s!r}")
            pairs.append((n, d))
        den = lcm(*(d for _, d in pairs))
        return cls(order, [n * (den // d) for n, d in pairs], den)

    # ---- serialization ------------------------------------------------

    def _reduced(self):
        """(numerator, denominator) of each coordinate in lowest terms."""
        den = self.den
        for n in self.nums:
            g = gcd(n, den)
            yield n // g, den // g

    def coord_strings(self) -> list[str]:
        return [f"{n}/{d}" for n, d in self._reduced()]

    def __repr__(self):
        coords = ", ".join(f"{n}/{d}" if d != 1 else str(n) for n, d in self._reduced())
        return f"CycloElt(k={self.order}, [{coords}])"

    # ---- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_algebraic_integer(self) -> bool:
        return self.den == 1

    def rational_value(self) -> Fraction | None:
        """The value as a Fraction if the element is rational, else None."""
        if any(self.nums[1:]):
            return None
        return Fraction(self.nums[0], self.den)

    # ---- order handling -----------------------------------------------

    def _map_basis(self, order: int, step: int) -> CycloElt:
        """Image in Q(zeta_order) under zeta_k -> zeta_order^step."""
        sums = [0] * order
        for i, c in enumerate(self.nums):
            sums[i * step % order] += c
        return CycloElt.from_exponent_sums(order, sums, self.den)

    def embed_into(self, big_order: int) -> CycloElt:
        """Image in Q(zeta_K) under zeta_k = zeta_K^(K/k); needs k | K."""
        k = self.order
        if big_order % k:
            raise IncompatibleOrders(f"order {k} does not divide {big_order}")
        if big_order == k:
            return self
        return self._map_basis(big_order, big_order // k)

    @staticmethod
    def _merge(a: CycloElt, b: CycloElt):
        if a.order == b.order:
            return a, b
        k = lcm(a.order, b.order)
        return a.embed_into(k), b.embed_into(k)

    @staticmethod
    def _coerce(x) -> CycloElt | None:
        if isinstance(x, CycloElt):
            return x
        if isinstance(x, (int, Fraction)):
            return CycloElt.rational(x)
        return None

    # ---- ring operations ----------------------------------------------

    def __add__(self, other):
        other = CycloElt._coerce(other)
        if other is None:
            return NotImplemented
        a, b = CycloElt._merge(self, other)
        den = lcm(a.den, b.den)
        ma, mb = den // a.den, den // b.den
        return CycloElt(a.order, [x * ma + y * mb for x, y in zip(a.nums, b.nums)], den)

    def __neg__(self):
        return CycloElt(self.order, [-c for c in self.nums], self.den)

    def __sub__(self, other):
        other = CycloElt._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = CycloElt._coerce(other)
        if other is None:
            return NotImplemented
        a, b = CycloElt._merge(self, other)
        mulrows = _ctx(a.order)[2]
        return CycloElt(a.order, poly_mul_reduce(a.nums, b.nums, mulrows), a.den * b.den)

    def __pow__(self, n: int) -> CycloElt:
        if n < 0:
            raise ValueError("negative powers are not supported")
        acc = CycloElt.one(self.order)
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    # ---- Galois action -------------------------------------------------

    def galois_conj(self, j: int) -> CycloElt:
        """The conjugate under zeta_k -> zeta_k^j; needs gcd(j, k) = 1."""
        k = self.order
        j %= k
        if gcd(j, k) != 1:
            raise ValueError(f"conjugation exponent {j} not coprime to {k}")
        return self._map_basis(k, j)

    # ---- comparison ----------------------------------------------------

    def __eq__(self, other):
        other = CycloElt._coerce(other)
        if other is None:
            return NotImplemented
        a, b = CycloElt._merge(self, other)
        return a.nums == b.nums and a.den == b.den

    __hash__ = None  # merged-order equality is not hash-compatible


def phi_degree(k: int) -> int:
    """phi(k), the degree of Q(zeta_k); table-backed."""
    return _ctx(k)[0]
