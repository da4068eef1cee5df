"""The fixed embedding into Qbar_p: towers, valuations, residues, coherence."""

import random
from fractions import Fraction
from math import lcm

import pytest

from lzero import (
    ABOVE_PRECISION,
    CycloElt,
    DirichletChar,
    N_CAP,
    PrecisionExhausted,
    build_tower,
    char_is_omega_power_mod_p,
    cyclo_valuation,
    embed_padic,
    padic_residue,
    padic_valuation,
    residue_factor,
    teichmuller,
)
from lzero.cyclo import cyclotomic_poly
from lzero.nt import euler_phi, multiplicative_order, valuation


# ---------------------------------------------------------------------------
# residue field factors


def test_factor_degree_is_order_of_p():
    for p, k1 in [(5, 4), (5, 6), (7, 4), (3, 8), (11, 5), (13, 9)]:
        fct = residue_factor(p, k1)
        assert len(fct) - 1 == multiplicative_order(p, k1)
        assert fct[-1] == 1


def test_factor_divides_cyclotomic_mod_p():
    for p, k1 in [(5, 4), (5, 6), (7, 4), (3, 8), (7, 12), (11, 21)]:
        fct = [c % p for c in residue_factor(p, k1)]
        phi = [c % p for c in cyclotomic_poly(k1).coeffs]
        # long division mod p; monic divisor so this is exact when it divides
        rem = list(phi)
        d = len(fct) - 1
        while len(rem) > d:
            top = rem.pop()
            if top:
                inv = 1  # fct is monic
                for i in range(d):
                    rem[-d + i] = (rem[-d + i] - top * inv * fct[i]) % p
        assert all(c % p == 0 for c in rem)


def test_split_case_picks_smallest_root():
    # k1 = 4, p = 5: x^2 + 1 = (x-2)(x-3) mod 5, and the rule takes root 2,
    # i.e. the factor x - 2 = x + 3.
    assert residue_factor(5, 4) == (-2 % 5**0 or 3, 1) or residue_factor(5, 4)[-1] == 1
    fct = residue_factor(5, 4)
    assert len(fct) == 2
    assert fct[0] % 5 == 3  # x + 3 = x - 2
    # k1 = 6, p = 7: x^2 - x + 1 has roots 3 and 5 mod 7; smallest root 3.
    fct = residue_factor(7, 6)
    assert len(fct) == 2
    assert fct[0] % 7 == -3 % 7


def test_factor_is_deterministic():
    assert residue_factor(11, 20) == residue_factor(11, 20)
    assert residue_factor(23, 55) == residue_factor(23, 55)


# ---------------------------------------------------------------------------
# tower shape


@pytest.mark.parametrize(
    "p,k,e,f",
    [
        (5, 4, 1, 1),
        (5, 20, 4, 1),
        (3, 3, 2, 1),
        (3, 9, 6, 1),
        (7, 4, 1, 2),
        (5, 6, 1, 2),
        (5, 30, 4, 2),
        (3, 4, 1, 2),
        (13, 36, 1, 3),
    ],
)
def test_tower_invariants(p, k, e, f):
    t = build_tower(p, k)
    assert (t.e_ram, t.f_res) == (e, f)
    z = t.zeta_image()
    assert z ** k == t.one()
    for d in (m for m in range(1, k) if k % m == 0):
        assert z ** d != t.one()


def test_hensel_factor_congruent_mod_p():
    t = build_tower(5, 20, 32)
    assert [c % 5 for c in t.lifted_factor] == [c % 5 for c in residue_factor(5, 4)]
    # and it still divides Phi_{k'} to the working precision
    mod = 5**32
    phi = [c % mod for c in cyclotomic_poly(4).coeffs]
    rem = list(phi)
    d = len(t.lifted_factor) - 1
    while len(rem) > d:
        top = rem.pop()
        if top:
            for i in range(d):
                rem[-d + i] = (rem[-d + i] - top * t.lifted_factor[i]) % mod
    assert all(c == 0 for c in rem)


def test_lifted_root_at_5_4():
    # the chosen factor of x^2+1 over Z_5 is x - r with r = 2 mod 5
    t = build_tower(5, 4, 16)
    (c0, c1) = t.lifted_factor
    assert c1 == 1
    root = (-c0) % 5**16
    assert root % 5 == 2
    assert (root * root + 1) % 5**16 == 0


# ---------------------------------------------------------------------------
# valuations of anchor elements


def test_valuation_anchors():
    # v(p) = 1 always
    assert cyclo_valuation(CycloElt.rational(5), 5)[0] == 1
    assert cyclo_valuation(CycloElt.rational(50), 5)[0] == 2
    assert cyclo_valuation(CycloElt.rational(Fraction(1, 5)), 5)[0] == -1
    # v(1 - zeta_p) = 1/(p-1)
    for p in (3, 5, 7):
        elt = CycloElt.one() - CycloElt.zeta(p)
        assert cyclo_valuation(elt, p)[0] == Fraction(1, p - 1)
    # v(1 - zeta_9) = 1/phi(9) at p = 3
    elt = CycloElt.one() - CycloElt.zeta(9)
    assert cyclo_valuation(elt, 3)[0] == Fraction(1, 6)
    # unramified unit: 1 - zeta_4 has norm 2, a unit at p = 5
    elt = CycloElt.one() - CycloElt.zeta(4)
    assert cyclo_valuation(elt, 5)[0] == 0


def test_valuation_of_gaussian_combination():
    # (3 + zeta_4)/5: zeta_4 -> 2 means 3 + zeta_4 -> 5, so v = 1 - 1 = 0;
    # (3 - zeta_4)/5 -> 1/5 with v = -1.
    plus = (CycloElt.rational(3) + CycloElt.zeta(4)) * Fraction(1, 5)
    minus = (CycloElt.rational(3) - CycloElt.zeta(4)) * Fraction(1, 5)
    assert cyclo_valuation(plus, 5)[0] == 0
    assert cyclo_valuation(minus, 5)[0] == -1


def test_valuation_is_additive_and_ultrametric():
    t = build_tower(5, 20)
    a = embed_padic(CycloElt.one(20) - CycloElt.zeta(20), t)
    b = embed_padic(CycloElt.rational(5), t)
    va, vb = padic_valuation(a), padic_valuation(b)
    assert padic_valuation(a * b) == va + vb
    s = padic_valuation(a + b)
    assert s >= min(va, vb)
    assert padic_valuation(a + a) == va  # v(2x) = v(x) away from 2


def _horner_embed(z, tower):
    """Reference embedding: Horner's rule in the tower's own arithmetic."""
    p, pN = tower.p, tower.modulus
    den = lcm(*(c.denominator for c in z.coords))
    s = valuation(den, p)
    xi = tower.zeta_image() ** (tower.k // z.order)
    acc = tower.zero()
    for c in reversed(z.coords):
        acc = acc * xi + tower.from_int(int(c * den))
    acc = acc * pow(den // p**s, -1, pN)
    return s, acc.mat


@pytest.mark.parametrize("p,k", [(5, 4), (5, 6), (13, 52), (5, 20), (3, 36)])
def test_embedding_matches_horner_reference(p, k):
    rng = random.Random(p * 1000 + k)
    tower = build_tower(p, k)
    orders = [m for m in range(1, k + 1) if k % m == 0]
    dens = [1, 2, 7, p, 3 * p, p**2, p**3]
    shifted = 0
    for trial in range(50):
        # every other element lives in the full field; the rest in a proper
        # subfield, which uses the table of zeta_k^step with step > 1
        order = k if trial % 2 else rng.choice(orders[:-1])
        z = CycloElt(order, [Fraction(rng.randrange(-99, 100), rng.choice(dens))
                             for _ in range(euler_phi(order))])
        got = embed_padic(z, tower)
        shifted += got.shift > 0
        assert (got.shift, got.mat) == _horner_embed(z, tower)
    assert shifted


def test_zero_element_valuation_is_above_precision():
    t = build_tower(5, 4)
    assert padic_valuation(t.zero()) is ABOVE_PRECISION


# ---------------------------------------------------------------------------
# precision ladder


def test_ladder_escalates_for_deep_values():
    val, tower = cyclo_valuation(CycloElt.rational(5**20), 5, n_start=16)
    assert val == 20
    assert tower.precision == 32


def test_ladder_gives_up_past_the_cap():
    with pytest.raises(PrecisionExhausted):
        cyclo_valuation(CycloElt.rational(5 ** (N_CAP + 10)), 5, n_start=16)


def test_valuation_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        cyclo_valuation(CycloElt.zero(4), 5)


# ---------------------------------------------------------------------------
# Teichmuller lifts


def test_teichmuller_anchors():
    assert teichmuller(2, 5, 2) == 7  # 7^4 = 2401 = 1 mod 25, 7 = 2 mod 5
    for p, n in [(5, 3), (7, 2), (11, 2)]:
        mod = p**n
        for a in range(1, p):
            w = teichmuller(a, p, n)
            assert w % p == a
            assert pow(w, p - 1, mod) == 1
    # multiplicativity mod p^2
    for p in (5, 7, 13):
        for a in range(1, p):
            for b in range(1, p):
                lhs = teichmuller(a, p, 2) * teichmuller(b, p, 2) % p**2
                assert lhs == teichmuller(a * b % p, p, 2)


# ---------------------------------------------------------------------------
# residues and cross-tower coherence


def test_residue_of_integer_is_mod_p():
    t = build_tower(7, 4)
    assert padic_residue(embed_padic(CycloElt.rational(10), t)) == (3, 0)
    assert padic_residue(embed_padic(CycloElt.rational(-1), t)) == (6, 0)


def test_residue_rejects_nonintegral():
    t = build_tower(5, 4)
    bad = embed_padic(CycloElt.rational(Fraction(1, 5)), t)
    with pytest.raises(ValueError):
        padic_residue(bad)


@pytest.mark.parametrize(
    "p,k_small,k_big",
    [(5, 4, 20), (5, 6, 30), (7, 4, 28), (3, 4, 36), (11, 6, 66), (5, 12, 60)],
)
def test_place_restricts_coherently(p, k_small, k_big):
    """The big tower's place restricted to Q(zeta_{k_small}) is the small
    tower's place: same valuations and same residues for many elements."""
    small = build_tower(p, k_small)
    big = build_tower(p, k_big)
    assert small.f_res == len(small.lifted_factor) - 1
    for m in range(k_small):
        z = CycloElt.zeta(k_small, m) + CycloElt.rational(m % 3)
        if z.is_zero():
            continue
        in_small = embed_padic(z, small)
        in_big = embed_padic(z.embed_into(k_big), big)
        vs, vb = padic_valuation(in_small), padic_valuation(in_big)
        assert vs == vb
        if vs == 0:
            rs = padic_residue(in_small)
            rb = padic_residue(in_big)
            # the residue fields coincide (same chosen factor on the tame part)
            assert rs == rb[: len(rs)] and all(c == 0 for c in rb[len(rs):])


def test_zeta_crt_normalisation():
    # zeta_k^(k') = 1 + pi and zeta_k^(p^a) = x in the bivariate model
    t = build_tower(3, 36)  # k' = 4, p^a = 9
    z = t.zeta_image()
    one_plus_pi = t.zero()
    mat = [list(r) for r in one_plus_pi.mat]
    mat[0][0] = 1
    if t.e_ram > 1:
        mat[1][0] = 1
    one_plus_pi = type(z)(t, 0, tuple(tuple(r) for r in mat))
    assert z ** 4 == one_plus_pi
    x_elt = t.zero()
    mat = [list(r) for r in x_elt.mat]
    if t.f_res > 1:
        mat[0][1] = 1
        x_elt = type(z)(t, 0, tuple(tuple(r) for r in mat))
        assert z ** 9 == x_elt


# ---------------------------------------------------------------------------
# omega-power detection


def test_char_is_omega_power_basics():
    # the order-4 character mod 5 with chi(2) = zeta_4 -> residue 2 = 2^1:
    # it restricts to omega itself.
    chi = DirichletChar(5, (1,))
    assert char_is_omega_power_mod_p(chi, 5, 1)
    assert not char_is_omega_power_mod_p(chi, 5, -1)
    # its cube is omega^3 = omega^{-1}
    from lzero import pow_char

    assert char_is_omega_power_mod_p(pow_char(chi, 3), 5, -1)


def test_char_omega_power_ignores_wild_part():
    # conductor 9 characters reduce to their tame part mod the place
    chi9 = DirichletChar(9, (1,))  # order 6: omega * (wild order 3)
    assert char_is_omega_power_mod_p(chi9, 3, 1)
    chi27 = DirichletChar(27, (1,))  # order 18
    assert char_is_omega_power_mod_p(chi27, 3, 1)


def test_char_omega_power_composite_conductor():
    from lzero import mul_chars

    quad3 = DirichletChar(3, (1,))
    quad4 = DirichletChar(4, (1,))
    prod = mul_chars(quad3, quad4)  # conductor 12, trivial... no: quad char
    # chi mod 12 with chi = quad3*quad4; at p = 5 it is an omega power iff
    # its values at units match 2^t mod 5 on generators -- just check both
    # answers are stable booleans.
    answers = {t: char_is_omega_power_mod_p(prod, 5, t) for t in range(4)}
    assert sum(answers.values()) <= 1
