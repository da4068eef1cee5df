"""The per-prime-power character tables, against the definitions they replaced.

lzero.characters reads enumeration, conductors and Galois orbits off one
table per prime power q^a, and scans.root_of_unity_order reads w(chi) off
chi's components without building a character.  The references here are
the per-character definitions: a factorize and a _component_conductor call
per character, a checked pow_char per conjugate, and the conductor of
chi^(k/phi(n)) built as a character.
"""

import itertools
from math import gcd, lcm

import pytest

from lzero import (
    DirichletChar,
    characters,
    conductor,
    enumerate_characters,
    is_odd,
    is_primitive,
    pow_char,
    primitive_odd_characters,
)
from lzero.characters import (
    _component_conductor,
    _component_generators,
    _galois_orbits,
    _prime_power_table,
)
from lzero.nt import euler_phi, factorize
from lzero.scans import root_of_unity_order

F_MAX = 400


def _reference_enumerate(modulus, primitive_only=False, parity="all"):
    components = []
    for q, a in sorted(factorize(modulus).items()):
        exps = itertools.product(*(range(o) for _, o in _component_generators(q, a)))
        components.append([(e, e[0] % 2 if e else 0) for e in exps
                           if not primitive_only or _component_conductor(q, a, e) == q**a])
    want = {"odd": 1, "even": 0}.get(parity)
    out = []
    for parts in itertools.product(*components):
        if want is None or sum(s for _, s in parts) % 2 == want:
            out.append(DirichletChar(modulus, sum((e for e, _ in parts), ())))
    return out


def _reference_conductor(chi):
    cond = 1
    idx = 0
    for q, a in sorted(factorize(chi.modulus).items()):
        n = len(_component_generators(q, a))
        cond *= _component_conductor(q, a, chi.exponents[idx:idx + n])
        idx += n
    return cond


def _reference_galois_orbits(chars):
    left = {chi.key(): chi for chi in chars}
    orbits = []
    for chi in chars:
        if chi.key() in left:
            k = chi.value_order
            orbits.append([(j, left.pop(pow_char(chi, j).key())) for j in range(1, k)
                           if gcd(j, k) == 1])
    return orbits


def _reference_root_of_unity_order(chi):
    f, k = chi.modulus, chi.value_order
    best = 1
    for q, a in factorize(f).items():
        powers = ([4] if a >= 2 else []) if q == 2 else [q**e for e in range(a, 0, -1)]
        for n in powers:
            phi = euler_phi(n)
            if k % phi == 0 and n % _reference_conductor(pow_char(chi, k // phi)) == 0:
                best *= n
                break
    return lcm(2, best)


@pytest.mark.parametrize("modulus", range(1, F_MAX + 1))
def test_enumeration_and_conductor_match_per_character_definitions(modulus):
    for primitive_only in (False, True):
        for parity in ("all", "odd", "even"):
            got = enumerate_characters(modulus, primitive_only, parity)
            assert got == _reference_enumerate(modulus, primitive_only, parity), (
                primitive_only, parity)
            assert all(type(chi) is DirichletChar for chi in got)
    for chi in enumerate_characters(modulus):
        assert conductor(chi) == _reference_conductor(chi), chi
        assert is_primitive(chi) == (_reference_conductor(chi) == modulus), chi


def _same_orbits(got, want):
    """Equal orbits in equal order, holding the very objects of want."""
    assert got == want
    for orbit, ref in zip(got, want):
        assert all(chi is chi_ref for (_, chi), (_, chi_ref) in zip(orbit, ref))


def test_galois_orbits_match_pow_char_keys_to_400():
    chars = primitive_odd_characters(F_MAX)
    _same_orbits(_galois_orbits(chars), _reference_galois_orbits(chars))


@pytest.mark.parametrize("p", [1009, 2459])
def test_galois_orbits_match_pow_char_keys_mod_p(p):
    """The lists that star (primitive odd) and hminus (all odd) partition."""
    for chars in (enumerate_characters(p, primitive_only=True, parity="odd"),
                  enumerate_characters(p, parity="odd")):
        _same_orbits(_galois_orbits(chars), _reference_galois_orbits(chars))


def test_galois_orbits_group_interleaved_moduli():
    """A Galois-closed list with its moduli interleaved is partitioned one
    modulus at a time, in the order the moduli first appear."""
    a, b = enumerate_characters(7, parity="odd"), enumerate_characters(9, parity="odd")
    mixed = [chi for pair in zip(a, b) for chi in pair]
    want = _reference_galois_orbits(a) + _reference_galois_orbits(b)
    _same_orbits(_galois_orbits(mixed), want)


@pytest.mark.parametrize("f", [1, 2, 5, 12, 15])
def test_galois_orbits_partition_every_character(f):
    """All the characters mod f, the trivial one (value order 1) included:
    each lies in exactly one orbit, and the trivial one is alone in its."""
    chars = enumerate_characters(f)
    orbits = _galois_orbits(chars)
    members = [chi for orbit in orbits for _, chi in orbit]
    assert sorted(map(id, members)) == sorted(map(id, chars))
    trivial = next(chi for chi in chars if not any(chi.exponents))
    assert [(1, trivial)] in orbits
    for orbit in orbits:
        first = orbit[0][1]
        assert all(chi == pow_char(first, j) for j, chi in orbit)


def test_root_of_unity_order_matches_pow_char_definition():
    for chi in primitive_odd_characters(F_MAX):
        assert root_of_unity_order(chi) == _reference_root_of_unity_order(chi), chi


def test_root_of_unity_order_rejects_imprimitive_characters():
    with pytest.raises(ValueError, match="primitive"):
        root_of_unity_order(DirichletChar(15, (1, 0)))


@pytest.mark.parametrize("q,a", [(2, 1), (2, 2), (2, 5), (3, 4), (5, 2), (101, 1)])
def test_prime_power_table_entries(q, a):
    table = _prime_power_table(q, a)
    assert table.orders == tuple(o for _, o in _component_generators(q, a))
    exps = list(itertools.product(*map(range, table.orders)))
    assert len(table.entries) == len(exps)
    for e, entry in zip(exps, table.entries):
        assert table.entry(e) is entry
        c, s, k = entry
        assert c == _component_conductor(q, a, e)
        assert k == lcm(*[o // gcd(o, x) for x, o in zip(e, table.orders)])
        if q**a > 2:
            assert s == is_odd(DirichletChar(q**a, e)), e


def test_tables_take_at_most_one_conductor_call_per_entry(monkeypatch):
    """A table calls _component_conductor once per gcd tuple of its entries,
    however many moduli and characters read it."""
    calls = []
    real = characters._component_conductor
    monkeypatch.setattr(characters, "_component_conductor",
                        lambda q, a, e: calls.append((q, a, e)) or real(q, a, e))
    characters._prime_power_table.cache_clear()
    characters._components.cache_clear()
    try:
        for f in range(1, 121):
            enumerate_characters(f, primitive_only=True, parity="odd")
            for chi in enumerate_characters(f):
                conductor(chi)
        prime_powers = {(q, a) for f in range(1, 121) for q, a in factorize(f).items()}
        assert len(calls) == len(set(calls))
        assert {(q, a) for q, a, _e in calls} == prime_powers
        for q, a in prime_powers:
            orders = _prime_power_table(q, a).orders
            gcd_tuples = {tuple(map(gcd, orders, e))
                          for e in itertools.product(*map(range, orders))}
            assert sum(1 for call in calls if call[:2] == (q, a)) == len(gcd_tuples)
    finally:
        characters._prime_power_table.cache_clear()
        characters._components.cache_clear()
