"""Galois-norm oracle for every recorded valuation.

The conjugates of L(0, chi) over Q are the values L(0, chi^j) for j prime
to the value order k.  At any place above p their valuations therefore add
up to v_p(N(L(0, chi))), and the norm is the resultant Res(Phi_k, A) of the
cyclotomic polynomial with the coordinate polynomial A of L(0, chi).  That
sum depends on no choice of place, residue factor, Hensel lift or
embedding, so it checks the valuations the program records orbit by orbit:
those pinned in the golden ``prop1`` output, and those computed live for a
seeded sample of larger conductors, wild towers (p^2 | f) included.
"""

import json
import random
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
import sympy

from lzero import (
    DirichletChar,
    enumerate_characters,
    integrality_verdict,
    l_value_at_zero,
    pow_char,
)
from lzero.nt import primes_upto

GOLDEN = Path(__file__).parent / "golden"
X = sympy.symbols("x")


def _vp(q: Fraction, p: int) -> int:
    v, n, d = 0, q.numerator, q.denominator
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


def _norm(chi: DirichletChar) -> Fraction:
    """N(L(0, chi)) as Res(Phi_k, A), computed by sympy from the exact
    coordinates alone."""
    lv = l_value_at_zero(chi).l_at_zero
    coords = [Fraction(s) for s in lv.coord_strings()]
    den = lcm(*(c.denominator for c in coords))
    a = sympy.Poly([int(c * den) for c in reversed(coords)], X)
    phi = sympy.Poly(sympy.cyclotomic_poly(lv.order, X), X)
    # Res(Phi, A / den) = Res(Phi, A) / den^deg(Phi) since Phi is monic
    return Fraction(int(sympy.resultant(phi, a)), den ** phi.degree())


def _orbit_key(chi: DirichletChar) -> tuple:
    k = chi.value_order
    return chi.modulus, min(pow_char(chi, j).exponents for j in range(1, k + 1)
                            if gcd(j, k) == 1)


def _check_orbits(p: int, valuations: dict) -> int:
    """valuations maps (modulus, exponents) to the recorded Fraction; every
    Galois orbit among them must be complete and sum to v_p of the norm."""
    orbits: dict[tuple, list] = {}
    for (modulus, exps), v in valuations.items():
        chi = DirichletChar(modulus, exps)
        orbits.setdefault(_orbit_key(chi), []).append((chi, v))
    for members in orbits.values():
        chi = members[0][0]
        k = chi.value_order
        assert len(members) == sum(1 for j in range(1, k + 1) if gcd(j, k) == 1)
        assert sum(v for _, v in members) == _vp(_norm(chi), p), (p, chi)
    return len(orbits)


def test_golden_prop1_valuations_sum_to_norm():
    records = json.loads((GOLDEN / "prop1.out").read_text())["records"]
    by_p: dict[int, dict] = {}
    for r in records:
        by_p.setdefault(r["p"], {})[r["modulus"], tuple(r["exponents"])] = (
            Fraction(r["valuation"]))
    groups = sum(_check_orbits(p, vals) for p, vals in sorted(by_p.items()))
    assert groups == 72


def _live_cases():
    """Wild towers first, then a seeded sample of (p, conductor) pairs."""
    wild = [(3, 27), (3, 63), (5, 25), (5, 75), (5, 100), (7, 49), (3, 81)]
    rng = random.Random(1703_01563)
    primes = [p for p in primes_upto(31) if p > 2]
    # conductors 2 mod 4 carry no primitive character
    conductors = [f for f in range(21, 151) if f % 4 != 2]
    sample = [(rng.choice(primes), rng.choice(conductors)) for _ in range(20)]
    return wild + sample


@pytest.mark.parametrize("p,f", _live_cases(), ids=lambda x: str(x))
def test_live_valuations_sum_to_norm(p, f):
    chars = enumerate_characters(f, primitive_only=True, parity="odd")
    assert chars
    valuations = {chi.key(): integrality_verdict(chi, p).valuation for chi in chars}
    assert _check_orbits(p, valuations) == len({_orbit_key(c) for c in chars})
