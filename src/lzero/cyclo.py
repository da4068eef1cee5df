"""Exact arithmetic in cyclotomic fields Q(zeta_k).

Elements are stored on the power basis 1, zeta_k, ..., zeta_k^(phi(k)-1)
with Fraction coordinates, always reduced mod the k-th cyclotomic
polynomial.  Denominators live inside the coordinates; an element is an
algebraic integer exactly when every coordinate is an integer (the power
basis generates the full ring of integers Z[zeta_k]).

Mixed-order arithmetic merges both operands into Q(zeta_lcm) via the
compatible system zeta_d = zeta_K^(K/d) for d | K.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from lzero._kernels import poly_mul_reduce
from lzero.errors import IncompatibleOrders
from lzero.nt import divisors, euler_phi


@dataclass(frozen=True)
class IntPoly:
    """Dense integer polynomial; coeffs[i] is the coefficient of x^i.

    The tuple carries no trailing zeros, so the zero polynomial is ().

    >>> (IntPoly.of(-1, 1) * IntPoly.of(1, 1)).coeffs
    (-1, 0, 1)
    """

    coeffs: tuple[int, ...]

    @staticmethod
    def of(*coeffs: int) -> IntPoly:
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        return IntPoly(tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: IntPoly) -> IntPoly:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly.of(*out)

    def __neg__(self) -> IntPoly:
        return IntPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: IntPoly) -> IntPoly:
        return self + (-other)

    def __mul__(self, other: IntPoly) -> IntPoly:
        if self.is_zero() or other.is_zero():
            return IntPoly(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly.of(*out)

    def __divmod__(self, other: IntPoly) -> tuple[IntPoly, IntPoly]:
        """Division with exact integer quotient steps (raises otherwise)."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        lead = other.coeffs[-1]
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return IntPoly(()), self
        quo = [0] * (dq + 1)
        for i in range(dq, -1, -1):
            top = rem[i + other.degree]
            if top % lead:
                raise ValueError("non-exact division step")
            q = top // lead
            quo[i] = q
            if q:
                for j, c in enumerate(other.coeffs):
                    rem[i + j] -= q * c
        return IntPoly.of(*quo), IntPoly.of(*rem)

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


@functools.lru_cache(maxsize=None)
def cyclotomic_poly(k: int) -> IntPoly:
    """The k-th cyclotomic polynomial, by exact division of x^k - 1.

    >>> cyclotomic_poly(12).coeffs
    (1, 0, -1, 0, 1)
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    num = IntPoly.of(*([-1] + [0] * (k - 1) + [1]))
    for d in divisors(k)[:-1]:
        quo, rem = divmod(num, cyclotomic_poly(d))
        assert rem.is_zero()
        num = quo
    return num


@functools.lru_cache(maxsize=None)
def _ctx(k: int):
    """Per-order tables: phi(k), monomial reductions, and multiply rows.

    pows[m] expands x^m mod Phi_k on the power basis for 0 <= m <= M where
    M = max(k - 1, 2 phi(k) - 2); mulrows is the slice used to reduce a raw
    degree-(2d-2) product.
    """
    phi = cyclotomic_poly(k)
    d = phi.degree
    low = phi.coeffs[:d]
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


def _qdivmod(a: list[Fraction], b: list[Fraction]):
    """Divmod for dense Fraction polynomials (lists, no trailing zeros)."""
    rem = list(a)
    quo = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    inv = 1 / b[-1]
    while len(rem) >= len(b) and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) < len(b):
            break
        q = rem[-1] * inv
        shift = len(rem) - len(b)
        quo[shift] = q
        for i, c in enumerate(b):
            rem[shift + i] -= q * c
        rem.pop()
    while rem and rem[-1] == 0:
        rem.pop()
    return quo, rem


class CycloElt:
    """An element of Q(zeta_k) in reduced power-basis coordinates."""

    __slots__ = ("order", "coords")

    def __init__(self, order: int, coords):
        d = _ctx(order)[0]
        coords = tuple(Fraction(c) for c in coords)
        if len(coords) != d:
            raise ValueError(f"need {d} coordinates for order {order}")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, *a):
        raise AttributeError("CycloElt is immutable")

    # ---- constructors -------------------------------------------------

    @staticmethod
    def zero(order: int = 1) -> CycloElt:
        return CycloElt(order, [0] * _ctx(order)[0])

    @staticmethod
    def one(order: int = 1) -> CycloElt:
        return CycloElt.rational(1, order)

    @staticmethod
    def rational(q, order: int = 1) -> CycloElt:
        coords = [Fraction(0)] * _ctx(order)[0]
        coords[0] = Fraction(q)
        return CycloElt(order, coords)

    @staticmethod
    def zeta(order: int, power: int = 1) -> CycloElt:
        """zeta_order^power."""
        _, pows, _ = _ctx(order)
        return CycloElt(order, pows[power % order])

    @classmethod
    def from_strings(cls, order: int, coords: list[str]) -> CycloElt:
        return cls(order, [Fraction(s) for s in coords])

    # ---- serialization ------------------------------------------------

    def coord_strings(self) -> list[str]:
        return [f"{c.numerator}/{c.denominator}" for c in self.coords]

    def __repr__(self):
        return f"CycloElt(k={self.order}, [{', '.join(map(str, self.coords))}])"

    # ---- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def is_algebraic_integer(self) -> bool:
        return all(c.denominator == 1 for c in self.coords)

    def rational_value(self) -> Fraction | None:
        """The value as a Fraction if the element is rational, else None."""
        if any(self.coords[1:]):
            return None
        return self.coords[0]

    # ---- order handling -----------------------------------------------

    def embed_into(self, big_order: int) -> CycloElt:
        """Image in Q(zeta_K) under zeta_k = zeta_K^(K/k); needs k | K."""
        k = self.order
        if big_order % k:
            raise IncompatibleOrders(f"order {k} does not divide {big_order}")
        if big_order == k:
            return self
        dK, powsK, _ = _ctx(big_order)
        step = big_order // k
        acc = [Fraction(0)] * dK
        for i, c in enumerate(self.coords):
            if c:
                row = powsK[(i * step) % big_order]
                for t in range(dK):
                    if row[t]:
                        acc[t] += c * row[t]
        return CycloElt(big_order, acc)

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
        return CycloElt(a.order, [x + y for x, y in zip(a.coords, b.coords)])

    __radd__ = __add__

    def __neg__(self):
        return CycloElt(self.order, [-c for c in self.coords])

    def __sub__(self, other):
        other = CycloElt._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CycloElt(self.order, [c * other for c in self.coords])
        if not isinstance(other, CycloElt):
            return NotImplemented
        a, b = CycloElt._merge(self, other)
        d, _, mulrows = _ctx(a.order)
        if d == 1:
            return CycloElt(a.order, [a.coords[0] * b.coords[0]])
        da = lcm(*(c.denominator for c in a.coords))
        db = lcm(*(c.denominator for c in b.coords))
        ia = [int(c * da) for c in a.coords]
        ib = [int(c * db) for c in b.coords]
        prod = poly_mul_reduce(ia, ib, mulrows)
        den = da * db
        return CycloElt(a.order, [Fraction(x, den) for x in prod])

    __rmul__ = __mul__

    def inverse(self) -> CycloElt:
        """Multiplicative inverse via the extended Euclidean algorithm."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        k = self.order
        phi = [Fraction(c) for c in cyclotomic_poly(k).coeffs]
        # xgcd(a, phi): track u with u*a = r (mod phi)
        r0, r1 = [Fraction(c) for c in self.coords], phi
        while r0 and r0[-1] == 0:
            r0.pop()
        u0: list[Fraction] = [Fraction(1)]
        u1: list[Fraction] = []
        while any(r1):
            q, rem = _qdivmod(r0, r1)
            r0, r1 = r1, rem
            # u_new = u0 - q*u1
            qu = [Fraction(0)] * (len(q) + len(u1) - 1 if q and u1 else 0)
            for i, qi in enumerate(q):
                if qi:
                    for j, uj in enumerate(u1):
                        qu[i + j] += qi * uj
            nu = list(u0)
            if len(nu) < len(qu):
                nu += [Fraction(0)] * (len(qu) - len(nu))
            for i, c in enumerate(qu):
                nu[i] -= c
            u0, u1 = u1, nu
        assert len(r0) == 1, "gcd with the cyclotomic polynomial must be constant"
        g = r0[0]
        d = _ctx(k)[0]
        inv = [Fraction(0)] * d
        for i, c in enumerate(u0[:d]):
            inv[i] = c / g
        return CycloElt(k, inv)

    def __truediv__(self, other):
        other = CycloElt._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return CycloElt._coerce(other) * self.inverse()

    def __pow__(self, n: int) -> CycloElt:
        if n < 0:
            return self.inverse() ** (-n)
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
        d, pows, _ = _ctx(k)
        acc = [Fraction(0)] * d
        for i, c in enumerate(self.coords):
            if c:
                row = pows[(i * j) % k]
                for t in range(d):
                    if row[t]:
                        acc[t] += c * row[t]
        return CycloElt(k, acc)

    def conjugates(self) -> list[CycloElt]:
        k = self.order
        return [self.galois_conj(j) for j in range(1, k + 1) if gcd(j, k) == 1]

    def norm(self) -> Fraction:
        """Field norm to Q: the product of all Galois conjugates."""
        prod = CycloElt.one(self.order)
        for conj in self.conjugates():
            prod = prod * conj
        val = prod.rational_value()
        assert val is not None, "norm must be rational"
        return val

    # ---- comparison ----------------------------------------------------

    def __eq__(self, other):
        other = CycloElt._coerce(other)
        if other is None:
            return NotImplemented
        a, b = CycloElt._merge(self, other)
        return a.coords == b.coords

    def __ne__(self, other):
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    __hash__ = None  # merged-order equality is not hash-compatible


def zeta_power_vector(k: int, m: int) -> tuple[int, ...]:
    """Integer coordinates of zeta_k^m on the power basis (reduced)."""
    return _ctx(k)[1][m % k]


def phi_degree(k: int) -> int:
    """phi(k), the degree of Q(zeta_k); table-backed."""
    return _ctx(k)[0] if k <= 10_000 else euler_phi(k)
