"""Exact arithmetic in cyclotomic fields Q(zeta_k).

Elements are stored on the power basis 1, zeta_k, ..., zeta_k^(phi(k)-1),
always reduced mod the k-th cyclotomic polynomial, as integer numerators
over one positive denominator in lowest terms.  The power basis generates
the full ring of integers Z[zeta_k], so an element is an algebraic integer
exactly when its denominator is 1.

Any sum_m c_m zeta_k^m, a product's convolution among them, reaches that
basis by one staged division (_reduce, and poly_mul_reduce for a product,
both through _kernels.reduce_by_stages), so an order keeps only phi(k) and
the stages' nonzero coefficients, and a product keeps no table.  For the
primes q_1 < ... < q_r of k and m = q_1, q_1 q_2, ..., q_1 ... q_r = rad(k)
in turn, it divides by Phi_m(x^(k/m)): monic, with only the nonzero terms
of Phi_m, at stride k/m.  Each of these vanishes at every primitive k-th
root of unity zeta (zeta^(k/m) is a primitive m-th root), so the
irreducible Phi_k divides it, and each stage leaves the remainder mod Phi_k
unchanged.  The last one is Phi_k itself, because
Phi_k(x) = Phi_rad(k)(x^(k/rad(k))).  For even k the first stage is the fold
x^(k/2) = -1, one subtraction per coefficient.

Mixed-order arithmetic merges both operands into Q(zeta_lcm) via the
compatible system zeta_d = zeta_K^(K/d) for d | K.
"""
from __future__ import annotations

import functools
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm, prod

from lzero._kernels import poly_mul_reduce, reduce_by_stages
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
    """phi(k) and the stages of _reduce: for each m = q_1, q_1 q_2, ..., rad(k)
    (the primes of k ascending; m = 1 for k = 1), the degree of
    Phi_m(x^(k/m)) and its nonzero coefficients (i, c) below that degree."""
    stages = []
    m = 1
    for q in sorted(factorize(k)) or [1]:
        m *= q
        phi_m, step = cyclotomic_poly(m), k // m
        stages.append(((len(phi_m) - 1) * step,
                       tuple((i * step, c) for i, c in enumerate(phi_m[:-1]) if c)))
    return stages[-1][0], tuple(stages)


def _reduce(k: int, coeffs) -> list[int]:
    """sum_m coeffs[m] x^m mod Phi_k on the power basis: reduce_by_stages by
    the stages of _ctx(k), each a monic multiple of Phi_k, the last Phi_k."""
    d, stages = _ctx(k)
    rem = reduce_by_stages(list(coeffs), stages)
    return rem + [0] * (d - len(rem))


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

    def __reduce__(self):
        # rebuilt through __init__: the default reduce would restore the
        # slots through the blocked __setattr__ (copy, deepcopy and pickle)
        return (CycloElt, (self.order, self.nums, self.den))

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
        return CycloElt(order, _reduce(order, [q.numerator]), q.denominator)

    @staticmethod
    def zeta(order: int, power: int = 1) -> CycloElt:
        """zeta_order^power."""
        return CycloElt(order, _reduce(order, [0] * (power % order) + [1]))

    @staticmethod
    def from_exponent_sums(order: int, sums, den: int = 1) -> CycloElt:
        """(sum_m sums[m] zeta_order^m) / den for sums indexed by m < order,
        reduced to the power basis.

        >>> CycloElt.from_exponent_sums(4, [1, 2, 3, 4])
        CycloElt(k=4, [-2, -2])
        """
        return CycloElt(order, _reduce(order, sums), den)

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
        stages = _ctx(a.order)[1]
        return CycloElt(a.order, poly_mul_reduce(a.nums, b.nums, stages), a.den * b.den)

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
    """phi(k), the degree of Q(zeta_k)."""
    return _ctx(k)[0]
