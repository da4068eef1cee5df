"""The unit group's product order, against the per-unit formulas it replaced.

lzero.characters lists the units of Z/f once, in itertools.product order
over the generators' exponent ranges, and builds the dlog table, the
B_{1,chi} bucket sums and the Galois orbits from per-generator passes in
that order, and is_odd finds -1 by its place in that order.  The
references here are the per-unit formulas: a pow per generator per unit,
eval_exponent per unit or at -1, and a checked pow_char per conjugate.
"""

import itertools
from math import gcd

import pytest

from lzero import (
    DirichletChar,
    enumerate_characters,
    galois_orbits,
    pow_char,
    primitive_odd_characters,
    unit_group_basis,
)
from lzero.bernoulli import _b1_sum
from lzero.characters import (
    _dlog_table,
    _galois_orbits,
    _minus_one_exponents,
    _units,
    _value_exponents,
    eval_exponent,
    is_odd,
)
from lzero.cyclo import CycloElt

LARGE = [4096, 30011, 32603, 32767, 32768]


def _reference_dlog_table(modulus):
    basis = unit_group_basis(modulus)
    table = {}
    for exps in itertools.product(*(range(o) for _, o in basis.generators)):
        r = 1
        for (g, _), e in zip(basis.generators, exps):
            r = r * pow(g, e, modulus) % modulus
        table[r % modulus] = exps
    return table


def _reference_b1_sum(chi):
    """(1/f) sum_a a * zeta_k^m(a), m(a) from eval_exponent."""
    f, k = chi.modulus, chi.value_order
    buckets = [0] * k
    for a in range(f):
        m = eval_exponent(chi, a)
        if m is not None:
            buckets[m] += a
    return CycloElt.from_exponent_sums(k, buckets, f)


def _reference_galois_orbits(chars):
    left = {chi.key(): chi for chi in chars}
    orbits = []
    for chi in chars:
        if chi.key() in left:
            k = chi.value_order
            orbits.append([(j, left.pop(pow_char(chi, j).key())) for j in range(1, k)
                           if gcd(j, k) == 1])
    return orbits


@pytest.mark.parametrize("modulus", list(range(1, 401)) + LARGE)
def test_dlog_table_matches_the_per_unit_pows(modulus):
    table = _dlog_table(modulus)
    assert list(table.items()) == list(_reference_dlog_table(modulus).items())
    assert tuple(table) == _units(modulus)
    assert _minus_one_exponents(modulus) == table[(modulus - 1) % modulus]


@pytest.mark.parametrize("modulus", range(1, 121))
def test_b1_sum_matches_eval_exponent_per_unit(modulus):
    for chi in enumerate_characters(modulus, primitive_only=True):
        assert _value_exponents(chi) == [eval_exponent(chi, a) for a in _units(modulus)]
        assert _b1_sum(chi) == _reference_b1_sum(chi), chi


@pytest.mark.parametrize("modulus", range(3, 121))
def test_is_odd_matches_eval_exponent_at_minus_one(modulus):
    for chi in enumerate_characters(modulus):
        assert is_odd(chi) == (eval_exponent(chi, modulus - 1) != 0), chi


@pytest.mark.parametrize("modulus,exponents", [(30011, (1,)), (4096, (1, 1))])
def test_b1_sum_matches_eval_exponent_at_large_conductors(modulus, exponents):
    chi = DirichletChar(modulus, exponents)
    assert _b1_sum(chi) == _reference_b1_sum(chi)


def test_galois_orbits_match_pow_char_keys():
    for f_max in range(1, 151):
        want = _reference_galois_orbits(primitive_odd_characters(f_max))
        assert galois_orbits(f_max) == want, f_max
    # the odd characters mod p: one orbit per odd divisor d of p - 1, first
    # member (d,), as minus_class_number and the star check read them
    for p in (3, 7, 31, 37, 41, 61, 107):
        chars = enumerate_characters(p, parity="odd")
        orbits = _galois_orbits(chars)
        assert orbits == _reference_galois_orbits(chars), p
        members = sorted(chi.key() for orbit in orbits for _, chi in orbit)
        assert members == sorted(chi.key() for chi in chars), p
        assert [orbit[0][1].exponents for orbit in orbits] == [
            (d,) for d in range(1, p, 2) if (p - 1) % d == 0], p
