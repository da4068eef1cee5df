"""Dirichlet characters: basis anchors, brute-force conductor oracle, algebra."""

import itertools
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from lzero import (
    CycloElt,
    DirichletChar,
    char_eval,
    conductor,
    enumerate_characters,
    induce,
    is_odd,
    is_primitive,
    is_trivial,
    mul_chars,
    pow_char,
    primitive_odd_characters,
    primitivize,
    unit_group_basis,
)
from lzero.characters import _dlog_table, eval_exponent
from lzero.nt import euler_phi


# ---------------------------------------------------------------------------
# unit group basis


@pytest.mark.parametrize(
    "modulus,want",
    [
        (3, [(2, 2)]),
        (4, [(3, 2)]),
        (5, [(2, 4)]),
        (7, [(3, 6)]),
        (8, [(7, 2), (5, 2)]),
        (9, [(2, 6)]),
        (15, [(11, 2), (7, 4)]),
        (16, [(15, 2), (5, 4)]),
        (24, [(7, 2), (13, 2), (17, 2)]),
        (36, [(19, 2), (29, 6)]),
    ],
)
def test_basis_anchors(modulus, want):
    assert list(unit_group_basis(modulus).generators) == want


@pytest.mark.parametrize("modulus", list(range(3, 101)))
def test_basis_generates_unit_group(modulus):
    basis = unit_group_basis(modulus)
    # declared orders are exact
    for g, o in basis.generators:
        assert pow(g, o, modulus) == 1
        for q in {o // r for r in range(2, o + 1) if o % r == 0}:
            assert pow(g, q, modulus) != 1
    # the dlog table is a bijection onto the unit group
    table = _dlog_table(modulus)
    assert len(table) == euler_phi(modulus)
    for a, exps in table.items():
        acc = 1
        for (g, _), e in zip(basis.generators, exps):
            acc = acc * pow(g, e, modulus) % modulus
        assert acc == a


# ---------------------------------------------------------------------------
# character values


def _all_chars(modulus):
    return enumerate_characters(modulus)


@pytest.mark.parametrize("modulus", [5, 7, 8, 9, 12, 15, 16, 21])
def test_character_multiplicativity(modulus):
    for chi in _all_chars(modulus):
        vals = {a: char_eval(chi, a) for a in range(modulus) if gcd(a, modulus) == 1}
        assert vals[1] == CycloElt.one()
        for a in vals:
            for b in list(vals)[:4]:
                assert vals[a] * vals[b] == vals[a * b % modulus]


def test_character_of_noncoprime_is_zero():
    chi = DirichletChar(12, (1, 0))
    assert char_eval(chi, 6).is_zero()
    assert char_eval(chi, 0).is_zero()


@pytest.mark.parametrize("modulus", [3, 4, 5, 7, 8, 9, 11, 12, 13, 15, 16, 20, 21, 24])
def test_enumeration_is_complete_and_distinct(modulus):
    chars = _all_chars(modulus)
    assert len(chars) == euler_phi(modulus)
    units = [a for a in range(1, modulus) if gcd(a, modulus) == 1]
    seen = set()
    for chi in chars:
        sig = tuple((char_eval(chi, a).nums, char_eval(chi, a).den) for a in units)
        assert sig not in seen
        seen.add(sig)
    if modulus > 2:
        odd = [chi for chi in chars if is_odd(chi)]
        assert len(odd) == euler_phi(modulus) // 2


def test_parity_matches_value_at_minus_one():
    for modulus in (5, 8, 12, 15):
        for chi in _all_chars(modulus):
            v = char_eval(chi, modulus - 1)
            assert is_odd(chi) == (v == CycloElt.rational(-1))
            assert is_odd(chi) != (v == CycloElt.one())


# ---------------------------------------------------------------------------
# conductor: brute-force oracle


def _conductor_oracle(chi):
    """Smallest d | modulus with chi trivial on units congruent to 1 mod d."""
    f = chi.modulus
    for d in sorted(r for r in range(1, f + 1) if f % r == 0):
        if all(
            char_eval(chi, a) == CycloElt.one()
            for a in range(1, f + 1)
            if gcd(a, f) == 1 and a % d == 1 % d
        ):
            return d
    raise AssertionError("unreachable")


@pytest.mark.parametrize("modulus", [3, 4, 5, 8, 9, 12, 15, 16, 20, 21, 24, 36, 40, 45])
def test_conductor_matches_oracle(modulus):
    for chi in _all_chars(modulus):
        assert conductor(chi) == _conductor_oracle(chi)


def _conductor_by_kernel(chi):
    """The least c | f with chi(a) = 1 for every unit a = 1 mod c."""
    f = chi.modulus
    kernel = {a for a in range(f) if eval_exponent(chi, a) == 0}
    units = [a for a in range(f) if gcd(a, f) == 1]
    return next(c for c in range(1, f + 1)
                if f % c == 0 and all(a in kernel for a in units if a % c == 1 % c))


@pytest.mark.parametrize("modulus", range(1, 121))
def test_conductor_matches_definition(modulus):
    for chi in _all_chars(modulus):
        assert conductor(chi) == _conductor_by_kernel(chi)


@pytest.mark.parametrize("modulus", range(1, 301))
def test_primitive_enumeration_matches_filtering_all(modulus):
    # every exponent tuple on the basis, in lexicographic order, then filtered
    orders = [o for _, o in unit_group_basis(modulus).generators]
    chars = [DirichletChar(modulus, e) for e in itertools.product(*map(range, orders))]
    primitive = [chi for chi in chars if conductor(chi) == modulus]
    assert enumerate_characters(modulus) == chars
    assert enumerate_characters(modulus, primitive_only=True) == primitive
    assert enumerate_characters(modulus, primitive_only=True, parity="odd") == [
        chi for chi in primitive if is_odd(chi)]
    assert enumerate_characters(modulus, primitive_only=True, parity="even") == [
        chi for chi in primitive if not is_odd(chi)]


def test_parity_enumeration_matches_is_odd():
    # the parity read off the exponents against chi(-1) through is_odd, for
    # every character of every modulus up to 300
    for modulus in range(1, 301):
        for primitive_only in (False, True):
            chars = enumerate_characters(modulus, primitive_only=primitive_only)
            odd = [chi for chi in chars if is_odd(chi)]
            even = [chi for chi in chars if not is_odd(chi)]
            assert enumerate_characters(modulus, primitive_only, "odd") == odd, modulus
            assert enumerate_characters(modulus, primitive_only, "even") == even, modulus
            assert enumerate_characters(modulus, primitive_only, "all") == chars


def test_is_primitive_and_trivial():
    for modulus in (8, 12, 15):
        for chi in _all_chars(modulus):
            assert is_primitive(chi) == (conductor(chi) == modulus)
            assert is_trivial(chi) == all(
                char_eval(chi, a) == CycloElt.one()
                for a in range(1, modulus)
                if gcd(a, modulus) == 1
            )


def test_primitive_odd_listing():
    chars = primitive_odd_characters(12)
    assert all(is_primitive(c) and is_odd(c) for c in chars)
    by_f = {}
    for c in chars:
        by_f[c.modulus] = by_f.get(c.modulus, 0) + 1
    # independent count: conductor oracle + value at -1, per modulus
    want = {}
    for f in range(3, 13):
        n = sum(
            1
            for chi in _all_chars(f)
            if _conductor_oracle(chi) == f
            and char_eval(chi, f - 1) == CycloElt.rational(-1)
        )
        if n:
            want[f] = n
    assert by_f == want


# ---------------------------------------------------------------------------
# induce / primitivize / products / powers


def test_primitivize_induce_roundtrip():
    for f, mult in [(5, 3), (7, 4), (8, 3), (12, 5)]:
        for chi in _all_chars(f):
            if not is_primitive(chi):
                continue
            lifted = induce(chi, f * mult)
            assert conductor(lifted) == conductor(chi)
            assert primitivize(lifted) == chi
            for a in range(1, f * mult):
                if gcd(a, f * mult) == 1:
                    assert char_eval(lifted, a) == char_eval(chi, a)


def test_induce_requires_multiple():
    chi = DirichletChar(5, (1,))
    with pytest.raises(ValueError):
        induce(chi, 12)


def test_mul_and_pow_are_pointwise():
    a = DirichletChar(5, (1,))
    b = DirichletChar(7, (2,))
    ab = mul_chars(a, b)
    assert ab.modulus == 35
    for x in range(1, 35):
        if gcd(x, 35) == 1:
            assert char_eval(ab, x) == char_eval(a, x) * char_eval(b, x)
    sq = pow_char(a, 2)
    for x in range(1, 5):
        assert char_eval(sq, x) == char_eval(a, x) ** 2
    assert is_trivial(pow_char(a, 4))


def test_value_order_divides_group_exponent():
    for modulus in (7, 9, 15, 16):
        for chi in _all_chars(modulus):
            k = chi.value_order
            for a in range(1, modulus):
                if gcd(a, modulus) == 1:
                    assert char_eval(chi, a) ** k == CycloElt.one()


@settings(max_examples=50, deadline=None)
@given(st.sampled_from([5, 7, 8, 9, 12, 15]), st.data())
def test_pow_char_iterates_mul(modulus, data):
    chars = _all_chars(modulus)
    chi = data.draw(st.sampled_from(chars))
    n = data.draw(st.integers(min_value=0, max_value=6))
    acc = DirichletChar(modulus, tuple(0 for _ in chi.exponents))
    for _ in range(n):
        acc = mul_chars(acc, chi)
    assert pow_char(chi, n) == acc
