"""Dirichlet characters as exponent vectors against a canonical unit basis.

A character mod f is stored by its exponents on a fixed generator system of
(Z/f)^*: chi(g_i) = zeta_{o_i}^{e_i} where o_i is the order of g_i.  The
generator system is canonical so that the encoding is reproducible:

* odd prime power components use the smallest primitive root;
* 2 contributes nothing, 4 contributes (-1 mod 4), and 2^a for a >= 3
  contributes the pair (-1, 5) with orders (2, 2^(a-2));
* component generators are CRT-lifted to be 1 in the other components and
  listed by increasing prime.

Prime-power tables.  A character mod f is the product of its components on
the (Z/q^a)^*, q^a || f, and its conductor, parity and order are the
product, the sum mod 2 and the lcm of theirs.  So each prime power has one
table, built once per process (_prime_power_table), of every character of
(Z/q^a)^*: its conductor, parity and order.  A modulus reads its prime
powers, its generator orders and their tables off _components(f), and
enumerate_characters, conductor and _galois_orbits work from those, with no
factorization per character.

Product order.  The units of Z/f are listed once, in a fixed order that
this module alone defines: the order of itertools.product over the
exponent ranges range(o_1), ..., range(o_r), the last generator's exponent
varying fastest (_exponent_vectors).  _units(f) holds the units in that
order, and _dlog_table(f) is built from it, with the same insertion order.
_value_exponents lists chi's exponents on the units in the same order, so
a sum over the units, such as B_{1,chi}, zips the two lists and never reads
the dict; is_odd finds -1 by its place in _units.
"""
from __future__ import annotations

import functools
import itertools
import operator
from collections.abc import Iterator
from math import gcd, lcm
from typing import NamedTuple

from lzero.cyclo import CycloElt
from lzero.errors import TheoremViolation
from lzero.nt import crt_pair, factorize, smallest_primitive_root, valuation


class UnitGroupBasis(NamedTuple):
    """Canonical generators of (Z/modulus)^* with their orders."""

    modulus: int
    generators: tuple[tuple[int, int], ...]  # (residue, order)


def _component_generators(q: int, a: int) -> list[tuple[int, int]]:
    """Generators of (Z/q^a)^* for one prime power, as residues mod q^a."""
    qa = q**a
    if q == 2:
        if a == 1:
            return []
        if a == 2:
            return [(3, 2)]
        return [(qa - 1, 2), (5, 2 ** (a - 2))]
    g = smallest_primitive_root(qa)
    return [(g, (q - 1) * q ** (a - 1))]


def _component_conductor(q: int, a: int, exps: tuple[int, ...]) -> int:
    """Conductor of the character of (Z/q^a)^* with exponents exps on the
    generators of _component_generators(q, a)."""
    if q == 2:
        if a <= 2:  # the only generator, if any, is -1
            return 4 if any(exps) else 1
        e_minus, e_five = exps
        o_five = 2 ** (a - 2)
        s = o_five // gcd(o_five, e_five)
        return 4 * s if s > 1 else 4 if e_minus else 1
    o = (q - 1) * q ** (a - 1)
    s = o // gcd(o, exps[0])
    return q ** (1 + valuation(s, q)) if s > 1 else 1


class _PrimePowerTable:
    """The characters of (Z/q^a)^* on _component_generators(q, a): the
    generator orders, and in entries each character's (conductor, parity,
    order), in the product order of its exponent tuples (entry)."""

    __slots__ = ("orders", "entries")

    def __init__(self, orders: tuple[int, ...], entries: list[tuple[int, int, int]]):
        self.orders = orders
        self.entries = entries

    def entry(self, exps: tuple[int, ...]) -> tuple[int, int, int]:
        """The entry of the character with exponents exps: its place in
        product order is exps read in the mixed radix of the orders."""
        i = 0
        for x, o in zip(exps, self.orders):
            i = i * o + x
        return self.entries[i]


@functools.lru_cache(maxsize=None)
def _prime_power_table(q: int, a: int) -> _PrimePowerTable:
    """The table of (Z/q^a)^*, built once per process.

    An entry depends on its exponents e_i only through the gcds
    g_i = gcd(o_i, e_i): the order is lcm(o_i / g_i), the conductor is read
    off the orders o_i / g_i (_component_conductor), and the parity is
    e_1 mod 2 = g_1 mod 2, o_1 being even (-1 is the first generator for 4
    and 2^a, and its (o_1/2)-th power for q^a, q odd).  So entries sharing
    their gcds share one value, and _component_conductor is called once per
    gcd tuple, at e = g.

    >>> _prime_power_table(2, 3).entries
    [(1, 0, 1), (8, 0, 2), (4, 1, 2), (8, 1, 2)]
    """
    orders = tuple(o for _, o in _component_generators(q, a))
    gcds = [list(map(gcd, itertools.repeat(o, o), range(o))) for o in orders]
    kinds = {}
    for g in itertools.product(*map(set, gcds)):
        e = tuple(map(operator.mod, g, orders))
        kinds[g] = (_component_conductor(q, a, e), g[0] % 2 if g else 0, _value_order(orders, e))
    return _PrimePowerTable(orders, list(map(kinds.__getitem__, itertools.product(*gcds))))


class _Components:
    """A modulus's generator orders, and for each prime power q^a || modulus,
    by increasing q, the parts (q, a, i, j, table): its table and the slice
    [i, j) of an exponent tuple that lies on (Z/q^a)^*."""

    __slots__ = ("orders", "parts")

    def __init__(self, orders: tuple[int, ...], parts: tuple[tuple, ...]):
        self.orders = orders
        self.parts = parts


@functools.lru_cache(maxsize=None)
def _components(modulus: int) -> _Components:
    """The prime powers of modulus, read once, with their tables.

    >>> _components(24).orders
    (2, 2, 2)
    >>> [part[:4] for part in _components(24).parts]
    [(2, 3, 0, 2), (3, 1, 2, 3)]
    """
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    orders: tuple[int, ...] = ()
    parts = []
    for q, a in sorted(factorize(modulus).items()):
        table = _prime_power_table(q, a)
        parts.append((q, a, len(orders), len(orders) + len(table.orders), table))
        orders += table.orders
    return _Components(orders, tuple(parts))


def _component_characters(chi: DirichletChar) -> list[tuple]:
    """(q, a, exponents, (conductor, parity, order)) of chi's component on
    each (Z/q^a)^*, q^a || modulus, by increasing q: one table entry each."""
    out = []
    for q, a, i, j, table in _components(chi.modulus).parts:
        exps = chi.exponents[i:j]
        out.append((q, a, exps, table.entry(exps)))
    return out


@functools.lru_cache(maxsize=None)
def unit_group_basis(modulus: int) -> UnitGroupBasis:
    """
    >>> unit_group_basis(7).generators
    ((3, 6),)
    >>> unit_group_basis(8).generators
    ((7, 2), (5, 2))
    >>> unit_group_basis(15).generators
    ((11, 2), (7, 4))
    """
    gens: list[tuple[int, int]] = []
    for q, a, _i, _j, _table in _components(modulus).parts:
        qa = q**a
        rest = modulus // qa
        for g, order in _component_generators(q, a):
            lifted = g if rest == 1 else crt_pair(g, qa, 1, rest)
            gens.append((lifted, order))
    return UnitGroupBasis(modulus, tuple(gens))


def _exponent_vectors(modulus: int) -> Iterator[tuple[int, ...]]:
    """Every exponent tuple on the canonical generators, in product order."""
    return itertools.product(*(range(o) for _, o in unit_group_basis(modulus).generators))


@functools.lru_cache(maxsize=None)
def _units(modulus: int) -> tuple[int, ...]:
    """The units prod g_i^(t_i) mod modulus in product order (see above):
    one pass per generator multiplies every unit so far by each of its powers.

    >>> _units(15)
    (1, 7, 4, 13, 11, 2, 14, 8)
    """
    units = [1 % modulus]
    for g, o in unit_group_basis(modulus).generators:
        powers = [1]
        for _ in range(o - 1):
            powers.append(powers[-1] * g % modulus)
        units = [u * x % modulus for u in units for x in powers]
    return tuple(units)


@functools.lru_cache(maxsize=None)
def _dlog_table(modulus: int) -> dict[int, tuple[int, ...]]:
    """residue -> exponent tuple on the canonical generators, in product order."""
    return dict(zip(_units(modulus), _exponent_vectors(modulus)))


class _DirichletCharFields(NamedTuple):
    modulus: int
    exponents: tuple[int, ...]


class DirichletChar(_DirichletCharFields):
    """A character of (Z/modulus)^*, extended by zero off the units.

    A named tuple (modulus, exponents); the exponent vector is checked
    against the orders of the canonical generators (_components) when the
    character is built, also by _make and _replace.
    """

    __slots__ = ()

    def __new__(cls, modulus: int, exponents: tuple[int, ...]):
        orders = _components(modulus).orders
        if len(exponents) != len(orders):
            raise ValueError("exponent vector length does not match the basis")
        for e, o in zip(exponents, orders):
            if not 0 <= e < o:
                raise ValueError("exponent out of range for generator order")
        return tuple.__new__(cls, (modulus, exponents))

    @classmethod
    def _make(cls, iterable) -> DirichletChar:
        # the named tuple's _make, which _replace calls, skips __new__
        return cls(*iterable)

    @property
    def value_order(self) -> int:
        return _value_order(_components(self.modulus).orders, self.exponents)

    def key(self) -> tuple[int, tuple[int, ...]]:
        return (self.modulus, self.exponents)


def _value_order(orders: tuple[int, ...], exps: tuple[int, ...]) -> int:
    """The order of the character with exponents exps on generators of
    orders: the lcm of the orders o_i / gcd(o_i, e_i) of its values."""
    return lcm(*map(operator.floordiv, orders, map(gcd, orders, exps)))


@functools.lru_cache(maxsize=None)
def _char_data(modulus: int, exponents: tuple[int, ...]):
    """(value order k, weights w_i) with chi(g_i) = zeta_k^(w_i)."""
    orders = _components(modulus).orders
    k = _value_order(orders, exponents)
    # chi(g_i) = zeta_{o_i}^{e_i} = zeta_k^(e_i k / o_i); the division is exact
    # because the value's order o_i/gcd(o_i, e_i) divides k.
    weights = []
    for e, o in zip(exponents, orders):
        if (e * k) % o:
            raise TheoremViolation("each generator's value order must divide the value order")
        weights.append((e * k) // o % k)
    return k, tuple(weights)


def eval_exponent(chi: DirichletChar, a: int) -> int | None:
    """m with chi(a) = zeta_k^m (k the value order), or None off the units."""
    f = chi.modulus
    a %= f
    if f > 1 and gcd(a, f) != 1:
        return None
    k, weights = _char_data(chi.modulus, chi.exponents)
    exps = _dlog_table(f)[a]
    return sum(t * w for t, w in zip(exps, weights)) % k


def _value_exponents(chi: DirichletChar) -> list[int]:
    """eval_exponent(chi, a) for the units a of _units(chi.modulus), in that
    order: sum_i t_i * w_i mod k over the exponent vectors t in product
    order, one pass per generator.

    >>> _value_exponents(DirichletChar(15, (1, 1)))
    [0, 1, 2, 3, 2, 3, 0, 1]
    """
    k, weights = _char_data(chi.modulus, chi.exponents)
    ms = [0]
    for w, (_, o) in zip(weights, unit_group_basis(chi.modulus).generators):
        steps = [t * w % k for t in range(o)]
        ms = [(m + s) % k for m in ms for s in steps]
    return ms


def char_eval(chi: DirichletChar, a: int) -> CycloElt:
    """chi(a) as an exact element of Q(zeta_k); zero when gcd(a, f) > 1."""
    k = chi.value_order
    m = eval_exponent(chi, a)
    if m is None:
        return CycloElt.zero(k)
    return CycloElt.zeta(k, m)


@functools.lru_cache(maxsize=None)
def _minus_one_exponents(modulus: int) -> tuple[int, ...]:
    """The exponent tuple of -1 on the canonical generators, read off its
    place in _units(modulus), so that parity needs no dlog table.

    >>> _minus_one_exponents(15)
    (1, 2)
    """
    i = _units(modulus).index(modulus - 1)
    return next(itertools.islice(_exponent_vectors(modulus), i, None))


def is_odd(chi: DirichletChar) -> bool:
    """True when chi(-1) = -1."""
    f = chi.modulus
    if f <= 2:
        return False
    k, weights = _char_data(f, chi.exponents)
    m = sum(t * w for t, w in zip(_minus_one_exponents(f), weights)) % k
    if m not in (0, k // 2 if k % 2 == 0 else 0):
        raise TheoremViolation("chi(-1) must be +1 or -1")
    return m != 0


def is_trivial(chi: DirichletChar) -> bool:
    return chi.value_order == 1


def conductor(chi: DirichletChar) -> int:
    """Smallest modulus through which chi factors: the product of its
    components' conductors (_prime_power_table)."""
    cond = 1
    for _q, _a, _e, (c, _s, _k) in _component_characters(chi):
        cond *= c
    return cond


def is_primitive(chi: DirichletChar) -> bool:
    return conductor(chi) == chi.modulus


def _coprime_lift(x: int, small: int, big: int) -> int:
    """Some y = x (mod small) with gcd(y, big) = 1; needs small | big."""
    y = x % small
    if y == 0 and small == 1:
        y = 1
    while gcd(y, big) != 1:
        y += small
    return y


def _transport(chi: DirichletChar, new_modulus: int) -> DirichletChar:
    """Rewrite chi on the basis of new_modulus (both induce the same
    primitive character; conductor(chi) | new_modulus required)."""
    k = chi.value_order
    basis = unit_group_basis(new_modulus)
    exps = []
    for g, o in basis.generators:
        m = eval_exponent(chi, _coprime_lift(g, new_modulus, chi.modulus))
        if m is None:
            raise TheoremViolation(f"chi has no value at the unit {g} mod {new_modulus}")
        if (m * o) % k:
            raise TheoremViolation("value order must divide the generator order")
        exps.append((m * o // k) % o)
    return DirichletChar(new_modulus, tuple(exps))


def primitivize(chi: DirichletChar) -> DirichletChar:
    """The primitive character inducing chi, on its conductor's basis."""
    c = conductor(chi)
    if c == chi.modulus:
        return chi
    return _transport(chi, c)


def induce(chi: DirichletChar, new_modulus: int) -> DirichletChar:
    """The character mod new_modulus induced by chi; chi.modulus | new_modulus."""
    if new_modulus % chi.modulus:
        raise ValueError("can only induce to a multiple of the modulus")
    if new_modulus == chi.modulus:
        return chi
    return _transport(chi, new_modulus)


def mul_chars(a: DirichletChar, b: DirichletChar) -> DirichletChar:
    """Pointwise product, on the lcm of the moduli."""
    m = lcm(a.modulus, b.modulus)
    ai, bi = induce(a, m), induce(b, m)
    basis = unit_group_basis(m)
    exps = tuple(
        (x + y) % o for x, y, (_, o) in zip(ai.exponents, bi.exponents, basis.generators)
    )
    return DirichletChar(m, exps)


def _pow_exponents(chi: DirichletChar, n: int) -> tuple[int, ...]:
    """The exponent vector of chi^n."""
    return tuple([e * n % o for e, o in zip(chi.exponents, _components(chi.modulus).orders)])


def pow_char(chi: DirichletChar, n: int) -> DirichletChar:
    return DirichletChar(chi.modulus, _pow_exponents(chi, n))


def enumerate_characters(
    modulus: int, primitive_only: bool = False, parity: str = "all"
) -> list[DirichletChar]:
    """All characters mod modulus in lexicographic exponent order.

    parity is one of "all", "odd", "even".
    """
    if parity not in ("all", "odd", "even"):
        raise ValueError("parity must be all, odd or even")
    # chi is primitive iff each prime-power component is, and its parity is
    # the sum of theirs, so the entries of each component's table are
    # filtered and multiplied out; the product of lexicographic lists is
    # still lexicographic.
    want = {"odd": 1, "even": 0}.get(parity)
    exps: list[tuple[tuple[int, ...], int]] = [((), 0)]
    for q, a, _i, _j, table in _components(modulus).parts:
        qa = q**a
        part = [(e, s) for e, (c, s, _k) in zip(itertools.product(*map(range, table.orders)),
                                                table.entries)
                if not primitive_only or c == qa]
        exps = [(x + e, t ^ s) for x, t in exps for e, s in part]
        if not exps:
            return []
    return [DirichletChar(modulus, x) for x, t in exps if want is None or t == want]


def primitive_odd_characters(f_max: int) -> list[DirichletChar]:
    """All primitive odd characters of conductor <= f_max, by conductor."""
    out = []
    for f in range(3, f_max + 1):
        out.extend(enumerate_characters(f, primitive_only=True, parity="odd"))
    return out


def galois_orbits(f_max: int) -> list[list[tuple[int, DirichletChar]]]:
    """primitive_odd_characters(f_max), partitioned into Galois orbits
    (_galois_orbits).

    >>> [[(j, c.modulus, c.exponents) for j, c in orbit] for orbit in galois_orbits(5)]
    [[(1, 3, (1,))], [(1, 4, (1,))], [(1, 5, (1,)), (3, 5, (3,))]]
    """
    return _galois_orbits(primitive_odd_characters(f_max))


def _galois_orbits(chars: list[DirichletChar]) -> list[list[tuple[int, DirichletChar]]]:
    """chars, a Galois-closed list of characters, partitioned into orbits.

    The orbit of chi, of value order k, is {chi^j : gcd(j, k) = 1}; it is
    listed as the pairs (j, chi^j) for j = 1, ..., k prime to k (j = 1 alone
    when chi is trivial, k = 1), so its first member (j = 1) is chi itself,
    the first character of the orbit in the order of chars.  Conjugates
    share the modulus, the conductor, the value order and the parity: an
    odd chi has even k, so j is odd.  The orbits come one modulus at a time,
    the moduli in the order they first appear in chars, so a list sorted by
    modulus keeps its order.
    """
    # members are the objects in chars, found by the exponents e * j mod o of
    # chi^j, so each character is built once
    by_modulus: dict[int, list[DirichletChar]] = {}
    for f, run in itertools.groupby(chars, operator.attrgetter("modulus")):
        by_modulus.setdefault(f, []).extend(run)
    units: dict[int, list[int]] = {}  # k -> the j in [1, k] prime to k
    orbits = []
    for f, run in by_modulus.items():
        orders = _components(f).orders
        left = {chi.exponents: chi for chi in run}
        for chi in run:
            e = chi.exponents
            if e in left:
                k = _value_order(orders, e)
                js = units.get(k)
                if js is None:
                    js = units[k] = [j for j in range(1, k + 1) if gcd(j, k) == 1]
                # one column of exponents per generator, zipped into keys; a
                # modulus with no generators (f = 1, 2) has the one key ()
                keys = zip(*[[x * j % o for j in js] for x, o in zip(e, orders)]) if e else [e]
                orbits.append(list(zip(js, map(left.pop, keys))))
    return orbits
