"""Small elementary number theory helpers (trial division scale).

Everything here operates on desk-sized integers (moduli up to a few
thousand), so the simple algorithms are the right ones.
"""
from __future__ import annotations

import functools
from math import gcd, isqrt


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: e} of n >= 1 by trial division."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    for d in range(3, isqrt(n) + 1, 2):
        if n % d == 0:
            return False
    return True


def primes_upto(n: int) -> list[int]:
    """All primes <= n (sieve of Eratosthenes)."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i, b in enumerate(sieve) if b]


def euler_phi(n: int) -> int:
    phi = 1
    for p, e in factorize(n).items():
        phi *= (p - 1) * p ** (e - 1)
    return phi


def divisors(n: int) -> list[int]:
    """All positive divisors of n, sorted increasing."""
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


def valuation(n: int, p: int) -> int:
    """Exponent of the prime p in n (n != 0)."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def multiplicative_order(a: int, n: int) -> int:
    """Order of a in (Z/n)^*."""
    a %= n
    if n == 1:
        return 1
    if gcd(a, n) != 1:
        raise ValueError(f"{a} is not a unit mod {n}")
    order = euler_phi(n)
    for p in factorize(order):
        while order % p == 0 and pow(a, order // p, n) == 1:
            order //= p
    return order


@functools.lru_cache(maxsize=None)
def smallest_primitive_root(q: int) -> int:
    """Smallest primitive root mod q, for q an odd prime power (or q = 2, 4)."""
    if q in (2, 4):
        return q - 1
    fac = factorize(q)
    if len(fac) != 1 or 2 in fac:
        raise ValueError(f"{q} is not an odd prime power")
    target = euler_phi(q)
    checks = [target // p for p in factorize(target)]
    for g in range(2, q):
        if gcd(g, q) != 1:
            continue
        if all(pow(g, c, q) != 1 for c in checks):
            return g
    raise AssertionError(f"no primitive root found mod {q}")


def crt_pair(r: int, m: int, s: int, n: int) -> int:
    """The x mod m*n with x = r (mod m), x = s (mod n); gcd(m, n) = 1."""
    return (r * n * pow(n, -1, m) + s * m * pow(m, -1, n)) % (m * n)
