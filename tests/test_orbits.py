"""Galois orbits as the unit of work, against per-character references.

The classification scan and the root-of-unity bound scan take one Galois
orbit of characters at a time: B_{1,chi} is summed once per orbit and
conjugated, and at each p one value per coset of the decomposition group is
embedded.  Each test here rebuilds the same answer one character at a time
(integrality_verdict, deligne_ribet_check, l_value_at_zero) and compares.
"""

from math import gcd

import pytest

from lzero import (
    N_START,
    deligne_ribet_check,
    deligne_ribet_scan,
    galois_orbits,
    integrality_verdict,
    is_odd,
    is_primitive,
    l_value_at_zero,
    nonintegral_locus_scan,
    orbit_l_values,
    pow_char,
    primitive_odd_characters,
    set_cache_dir,
)
from lzero import bernoulli, scans
from lzero.bernoulli import b1_cache
from lzero.nt import euler_phi, multiplicative_order, primes_upto, valuation

# the wild cases (p^2 | f) of tests/test_galois_norm.py
WILD = [(3, 27), (3, 63), (5, 25), (5, 75), (5, 100), (7, 49), (3, 81)]


@pytest.fixture
def fresh_cache():
    set_cache_dir(None)
    yield b1_cache()
    set_cache_dir(None)


def test_orbits_partition_the_primitive_odd_characters():
    orbits = galois_orbits(60)
    members = [chi.key() for orbit in orbits for _, chi in orbit]
    assert len(members) == len(set(members))
    assert sorted(members) == sorted(c.key() for c in primitive_odd_characters(60))
    for orbit in orbits:
        j0, rep = orbit[0]
        k = rep.value_order
        assert j0 == 1
        assert [j for j, _ in orbit] == [j for j in range(1, k) if gcd(j, k) == 1]
        for j, chi in orbit:
            assert chi == pow_char(rep, j)
            assert chi.modulus == rep.modulus and chi.value_order == k
            assert is_odd(chi) and is_primitive(chi)


def _per_character_scan(f_max, p_max):
    primes = [p for p in primes_upto(p_max) if p > 2]
    return [integrality_verdict(chi, p) for p in primes for chi in primitive_odd_characters(f_max)]


@pytest.mark.parametrize("jobs", [1, 2])
def test_orbit_scan_equals_per_character_reference(jobs):
    # the golden prop1 parameters
    assert nonintegral_locus_scan(20, 11, jobs=jobs) == _per_character_scan(20, 11)


@pytest.mark.parametrize("p,f", WILD, ids=str)
def test_orbit_verdicts_equal_per_character_reference_in_wild_towers(p, f):
    orbits = [orbit for orbit in galois_orbits(f) if orbit[0][1].modulus == f]
    got = [rec for orbit in orbits for rec in scans._orbit_verdicts(orbit, [p], N_START)]
    want = [integrality_verdict(chi, p) for orbit in orbits for _, chi in orbit]
    assert got == want


def _primes_above_p(p, k):
    """phi(k') / ord_{k'}(p): the number of primes above p in Q(zeta_k')."""
    k1 = k // p ** valuation(k, p)
    return euler_phi(k1) // multiplicative_order(p, k1) if k1 > 1 else 1


@pytest.mark.parametrize("f_max,ps", [(40, [3, 5, 7, 11, 13]), (100, [3, 5, 7])])
def test_one_valuation_per_prime_above_p(monkeypatch, f_max, ps):
    calls = []
    ladder = scans.cyclo_valuation

    def counting_ladder(z, p, n_start=N_START):
        calls.append(p)
        return ladder(z, p, n_start)

    monkeypatch.setattr(scans, "cyclo_valuation", counting_ladder)
    for orbit in galois_orbits(f_max):
        k = orbit[0][1].value_order
        for p in ps:
            calls.clear()
            scans._orbit_verdicts(orbit, [p], N_START)
            assert len(calls) == _primes_above_p(p, k), (orbit[0][1], p)


def test_decomposition_cosets_are_the_cosets_of_p():
    for p in (3, 5, 7, 11):
        for k in (2, 4, 6, 12, 18, 20, 36, 60, 100):
            js = [j for j in range(1, k) if gcd(j, k) == 1]
            labels = scans._decomposition_cosets(p, k, js)
            k1 = k // p ** valuation(k, p)
            for a, la in zip(js, labels):
                for b, lb in zip(js, labels):
                    # same coset iff b / a mod k' is a power of p
                    ratio = b * pow(a, -1, k1) % k1 if k1 > 1 else 0
                    in_d = any(pow(p, i, k1) == ratio for i in range(k1)) if k1 > 1 else True
                    assert (la == lb) == in_d, (p, k, a, b)
            assert len(set(labels)) == _primes_above_p(p, k)


def test_deligne_ribet_scan_equals_per_character_checks():
    chars = primitive_odd_characters(60)
    assert deligne_ribet_scan(60) == [deligne_ribet_check(chi) for chi in chars]


def test_orbit_l_values_sum_once_per_orbit(monkeypatch, fresh_cache):
    orbits = galois_orbits(45)
    sums = []
    b1_sum = bernoulli._b1_sum

    def counting_sum(chi):
        sums.append(chi.key())
        return b1_sum(chi)

    monkeypatch.setattr(bernoulli, "_b1_sum", counting_sum)
    got = {rec.chi.key(): rec for orbit in orbits for rec in orbit_l_values(orbit)}
    assert sums == [orbit[0][1].key() for orbit in orbits]
    held = dict(fresh_cache._mem)
    # per character, into an empty cache: the same values and the same entries
    set_cache_dir(None)
    monkeypatch.setattr(bernoulli, "_b1_sum", b1_sum)
    for orbit in orbits:
        for _, chi in orbit:
            rec = l_value_at_zero(chi)
            assert (rec.b1chi, rec.l_at_zero) == (got[chi.key()].b1chi, got[chi.key()].l_at_zero)
    assert b1_cache()._mem.keys() == held.keys()


def test_orbit_l_values_reads_the_cache_first(monkeypatch, fresh_cache):
    orbit = next(o for o in galois_orbits(40) if o[0][1].modulus == 37)
    want = [l_value_at_zero(chi).b1chi for _, chi in orbit]
    set_cache_dir(None)
    # hold one conjugate only: the rest come from the representative's sum
    l_value_at_zero(orbit[3][1])
    sums = []
    b1_sum = bernoulli._b1_sum
    monkeypatch.setattr(bernoulli, "_b1_sum", lambda chi: sums.append(chi) or b1_sum(chi))
    assert [rec.b1chi for rec in orbit_l_values(orbit)] == want
    assert sums == [orbit[0][1]]
    # a full cache sums nothing
    sums.clear()
    assert [rec.b1chi for rec in orbit_l_values(orbit)] == want
    assert sums == []


def test_orbit_l_values_needs_its_representative_first():
    orbit = galois_orbits(5)[-1]
    with pytest.raises(ValueError):
        orbit_l_values(orbit[::-1])
