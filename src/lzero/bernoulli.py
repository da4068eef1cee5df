"""Classical and generalized Bernoulli numbers, L(0, chi), and h_minus.

Conventions:

* B_n follows the recurrence sum_{j<=n} C(n+1, j) B_j = 0 with B_0 = 1,
  so B_1 = -1/2.
* B_{1,chi} = (1/f) sum_{a=1..f} a chi(a) for chi of conductor f, an exact
  element of Q(zeta_k) where k is the order of chi.
* L(0, chi) = -B_{1,chi}.  This vanishes for even nontrivial chi and is
  nonzero for odd chi; both facts are asserted, not assumed.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from lzero.cache import CACHE_ENV_VAR, B1Cache
from lzero.characters import (
    DirichletChar,
    _dlog_table,
    _char_data,
    enumerate_characters,
    is_odd,
    is_primitive,
    is_trivial,
)
from lzero.cyclo import CycloElt
from lzero.errors import ImprimitiveInput, NonIntegralResult, TheoremViolation
from lzero.nt import is_prime, primes_upto

_bernoulli_row: list[Fraction] = [Fraction(1)]

_b1_cache: B1Cache | None = None  # bound on first use, see b1_cache()


def set_cache_dir(directory: str | None) -> None:
    """Point the B_{1,chi} cache at a directory (None = memory only)."""
    global _b1_cache
    if _b1_cache is not None:
        _b1_cache.close()
    _b1_cache = B1Cache(directory)


def b1_cache() -> B1Cache:
    """The B_{1,chi} cache.  Unless set_cache_dir came first, the first call
    binds it to the directory named by LZERO_CACHE_DIR, if that is set."""
    if _b1_cache is None:
        set_cache_dir(os.environ.get(CACHE_ENV_VAR) or None)
    return _b1_cache


def bernoulli_number(n: int) -> Fraction:
    """The n-th Bernoulli number, exactly.

    >>> bernoulli_number(12)
    Fraction(-691, 2730)
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    while len(_bernoulli_row) <= n:
        m = len(_bernoulli_row)
        acc = Fraction(0)
        for j, bj in enumerate(_bernoulli_row):
            if bj:
                acc += comb(m + 1, j) * bj
        _bernoulli_row.append(-acc / (m + 1))
    return _bernoulli_row[n]


@dataclass(frozen=True)
class LValueRecord:
    chi: DirichletChar
    b1chi: CycloElt
    l_at_zero: CycloElt


def _b1_sum(chi: DirichletChar) -> CycloElt:
    """(1/f) sum a*chi(a), accumulated per character value to stay integer."""
    f = chi.modulus
    k, weights = _char_data(chi.modulus, chi.exponents)
    buckets = [0] * k
    for a, exps in _dlog_table(f).items():
        m = sum(t * w for t, w in zip(exps, weights)) % k
        buckets[m] += a
    return CycloElt.from_exponent_sums(k, buckets, f)


def l_value_at_zero(chi: DirichletChar) -> LValueRecord:
    """L(0, chi) = -B_{1,chi} for a primitive nontrivial character."""
    if is_trivial(chi):
        raise ValueError("the trivial character is excluded (its L-value at 0 "
                         "is a zeta value, not a Bernoulli number)")
    if not is_primitive(chi):
        raise ImprimitiveInput(
            f"character mod {chi.modulus} has conductor < modulus; primitivize first"
        )
    cache = b1_cache()
    b1 = cache.get(chi.modulus, chi.exponents)
    if b1 is None:
        b1 = _b1_sum(chi)
        _check_vanishing(chi, b1)
        cache.put(chi.modulus, chi.exponents, b1)
    return LValueRecord(chi, b1, -b1)


def _check_vanishing(chi: DirichletChar, b1: CycloElt) -> None:
    odd = is_odd(chi)
    if odd and b1.is_zero():
        raise TheoremViolation("B_{1,chi} of an odd character cannot vanish")
    if not odd and not b1.is_zero():
        raise TheoremViolation("B_{1,chi} of an even nontrivial character must vanish")


def orbit_l_values(orbit: list[tuple[int, DirichletChar]]) -> list[LValueRecord]:
    """l_value_at_zero for every member (j, chi^j) of one Galois orbit, whose
    first member is (1, chi) (see characters.galois_orbits).

    B_{1,chi^j} = sigma_j(B_{1,chi}), where sigma_j sends zeta_k to zeta_k^j:
    the bucket sum is taken at most once per orbit, for chi, and a member
    the cache does not hold is that value's conjugate, checked and cached
    like a computed one.
    """
    if orbit[0][0] != 1:
        raise ValueError("an orbit's first member must be (1, chi)")
    cache = b1_cache()
    base = None  # B_{1,chi}
    out = []
    for j, chi in orbit:
        b1 = cache.get(chi.modulus, chi.exponents)
        if b1 is None:
            b1 = _b1_sum(chi) if base is None else base.galois_conj(j)
            _check_vanishing(chi, b1)
            cache.put(chi.modulus, chi.exponents, b1)
        if base is None:
            base = b1
        out.append(LValueRecord(chi, b1, -b1))
    return out


def minus_class_number(p: int) -> int:
    """h_minus of the p-th cyclotomic field from the odd L(0, chi) product.

    Uses h_minus = p * 2^(-(p-3)/2) * prod_{chi odd mod p} L(0, chi), and
    cross-checks the equivalent form 2p * prod (-B_{1,chi} / 2).
    """
    if p < 3 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    odd_chars = enumerate_characters(p, parity="odd")
    prod = CycloElt.one()
    for chi in odd_chars:
        prod = prod * l_value_at_zero(chi).l_at_zero
    val = prod.rational_value()
    if val is None:
        raise NonIntegralResult("odd L-value product is not Galois-stable")
    h = Fraction(p) * val / Fraction(2) ** ((p - 3) // 2)
    if h <= 0 or h.denominator != 1:
        raise NonIntegralResult(f"h_minus({p}) = {h} is not a positive integer")
    # same identity, folded differently
    alt = Fraction(2 * p) * (val / Fraction(2) ** len(odd_chars))
    if alt != h:
        raise TheoremViolation("the two product forms must agree")
    return int(h)


def irregular_pairs(p_max: int) -> list[tuple[int, int]]:
    """All (p, k) with p <= p_max prime, k even, 2 <= k <= p-3, p | numer(B_k).

    Every Bernoulli denominator met in the scan is validated against the
    squarefree product of primes q with (q-1) | k before use.
    """
    if p_max < 3:
        raise ValueError("p_max must be >= 3")
    primes = primes_upto(p_max)
    pairs = []
    for p in primes:
        if p < 3:
            continue
        for k in range(2, p - 2, 2):
            bk = bernoulli_number(k)
            expected_den = 1
            for q in primes:  # (q - 1) | k <= p - 3 puts q below p_max
                if k % (q - 1) == 0:
                    expected_den *= q
            if bk.denominator != expected_den:
                raise TheoremViolation(f"B_{k} denominator fails the von Staudt-Clausen check")
            if bk.numerator % p == 0:
                pairs.append((p, k))
    return pairs
