"""Dirichlet characters as exponent vectors against a canonical unit basis.

A character mod f is stored by its exponents on a fixed generator system of
(Z/f)^*: chi(g_i) = zeta_{o_i}^{e_i} where o_i is the order of g_i.  The
generator system is canonical so that the encoding is reproducible:

* odd prime power components use the smallest primitive root;
* 2 contributes nothing, 4 contributes (-1 mod 4), and 2^a for a >= 3
  contributes the pair (-1, 5) with orders (2, 2^(a-2));
* component generators are CRT-lifted to be 1 in the other components and
  listed by increasing prime.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import gcd, lcm

from lzero.cyclo import CycloElt
from lzero.errors import TheoremViolation
from lzero.nt import crt_pair, factorize, smallest_primitive_root, valuation


@dataclass(frozen=True)
class UnitGroupBasis:
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
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    gens: list[tuple[int, int]] = []
    for q, a in sorted(factorize(modulus).items()):
        qa = q**a
        rest = modulus // qa
        for g, order in _component_generators(q, a):
            lifted = g if rest == 1 else crt_pair(g, qa, 1, rest)
            gens.append((lifted, order))
    return UnitGroupBasis(modulus, tuple(gens))


@functools.lru_cache(maxsize=None)
def _dlog_table(modulus: int) -> dict[int, tuple[int, ...]]:
    """residue -> exponent tuple on the canonical generators."""
    basis = unit_group_basis(modulus)
    table: dict[int, tuple[int, ...]] = {}
    for exps in itertools.product(*(range(o) for _, o in basis.generators)):
        r = 1
        for (g, _), e in zip(basis.generators, exps):
            r = r * pow(g, e, modulus) % modulus
        table[r % modulus] = exps
    return table


@dataclass(frozen=True)
class DirichletChar:
    """A character of (Z/modulus)^*, extended by zero off the units."""

    modulus: int
    exponents: tuple[int, ...]

    def __post_init__(self):
        basis = unit_group_basis(self.modulus)
        if len(self.exponents) != len(basis.generators):
            raise ValueError("exponent vector length does not match the basis")
        for e, (_, o) in zip(self.exponents, basis.generators):
            if not 0 <= e < o:
                raise ValueError("exponent out of range for generator order")

    @property
    def value_order(self) -> int:
        return _char_data(self.modulus, self.exponents)[0]

    def key(self) -> tuple[int, tuple[int, ...]]:
        return (self.modulus, self.exponents)


@functools.lru_cache(maxsize=None)
def _char_data(modulus: int, exponents: tuple[int, ...]):
    """(value order k, weights w_i) with chi(g_i) = zeta_k^(w_i)."""
    basis = unit_group_basis(modulus)
    k = 1
    for e, (_, o) in zip(exponents, basis.generators):
        k = lcm(k, o // gcd(o, e))
    # chi(g_i) = zeta_{o_i}^{e_i} = zeta_k^(e_i k / o_i); the division is exact
    # because the value's order o_i/gcd(o_i, e_i) divides k.
    weights = []
    for e, (_, o) in zip(exponents, basis.generators):
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


def char_eval(chi: DirichletChar, a: int) -> CycloElt:
    """chi(a) as an exact element of Q(zeta_k); zero when gcd(a, f) > 1."""
    k = chi.value_order
    m = eval_exponent(chi, a)
    if m is None:
        return CycloElt.zero(k)
    return CycloElt.zeta(k, m)


def is_odd(chi: DirichletChar) -> bool:
    """True when chi(-1) = -1."""
    f = chi.modulus
    if f <= 2:
        return False
    m = eval_exponent(chi, f - 1)
    k = chi.value_order
    if m not in (0, k // 2 if k % 2 == 0 else 0):
        raise TheoremViolation("chi(-1) must be +1 or -1")
    return m != 0


def is_trivial(chi: DirichletChar) -> bool:
    return chi.value_order == 1


@functools.lru_cache(maxsize=None)
def conductor(chi: DirichletChar) -> int:
    """Smallest modulus through which chi factors, component by component."""
    basis = unit_group_basis(chi.modulus)
    cond = 1
    idx = 0
    for q, a in sorted(factorize(chi.modulus).items()):
        if q == 2:
            if a == 1:
                continue
            if a == 2:
                e, (_, o) = chi.exponents[idx], basis.generators[idx]
                idx += 1
                if e:
                    cond *= 4
                continue
            e_minus, e_five = chi.exponents[idx], chi.exponents[idx + 1]
            o_five = basis.generators[idx + 1][1]
            idx += 2
            s = o_five // gcd(o_five, e_five)
            if s > 1:
                cond *= 4 * s
            elif e_minus:
                cond *= 4
        else:
            e, (_, o) = chi.exponents[idx], basis.generators[idx]
            idx += 1
            s = o // gcd(o, e)
            if s > 1:
                cond *= q ** (1 + valuation(s, q))
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


def pow_char(chi: DirichletChar, n: int) -> DirichletChar:
    basis = unit_group_basis(chi.modulus)
    exps = tuple(e * n % o for e, (_, o) in zip(chi.exponents, basis.generators))
    return DirichletChar(chi.modulus, exps)


def enumerate_characters(
    modulus: int, primitive_only: bool = False, parity: str = "all"
) -> list[DirichletChar]:
    """All characters mod modulus in lexicographic exponent order.

    parity is one of "all", "odd", "even".
    """
    if parity not in ("all", "odd", "even"):
        raise ValueError("parity must be all, odd or even")
    basis = unit_group_basis(modulus)
    out = []
    for exps in itertools.product(*(range(o) for _, o in basis.generators)):
        chi = DirichletChar(modulus, exps)
        if primitive_only and not is_primitive(chi):
            continue
        if parity == "odd" and not is_odd(chi):
            continue
        if parity == "even" and is_odd(chi):
            continue
        out.append(chi)
    return out


def primitive_odd_characters(f_max: int) -> list[DirichletChar]:
    """All primitive odd characters of conductor <= f_max, by conductor."""
    out = []
    for f in range(3, f_max + 1):
        out.extend(enumerate_characters(f, primitive_only=True, parity="odd"))
    return out


def galois_orbits(f_max: int) -> list[list[tuple[int, DirichletChar]]]:
    """primitive_odd_characters(f_max), partitioned into Galois orbits.

    The orbit of chi, of value order k, is {chi^j : gcd(j, k) = 1}; it is
    listed as the pairs (j, chi^j) for j = 1, ..., k - 1 prime to k, so its
    first member (j = 1) is chi itself, the first character of the orbit in
    the order of primitive_odd_characters.  Conjugates share the conductor
    and the value order, and they are odd too: k is even, so j is odd.

    >>> [[(j, c.modulus, c.exponents) for j, c in orbit] for orbit in galois_orbits(5)]
    [[(1, 3, (1,))], [(1, 4, (1,))], [(1, 5, (1,)), (3, 5, (3,))]]
    """
    # members are the objects primitive_odd_characters made, not pow_char's
    # equal copies: the lru_cache of conductor() keeps those alive anyway
    chars = primitive_odd_characters(f_max)
    left = {chi.key(): chi for chi in chars}
    orbits = []
    for chi in chars:
        if chi.key() in left:
            k = chi.value_order
            orbits.append([(j, left.pop(pow_char(chi, j).key())) for j in range(1, k)
                           if gcd(j, k) == 1])
    return orbits
