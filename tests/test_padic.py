"""The fixed embedding into Qbar_p: towers, valuations, residues, coherence."""

import random
from fractions import Fraction
from math import lcm

import pytest
import sympy
from sympy.polys import polyconfig

from lzero import (
    ABOVE_PRECISION,
    CycloElt,
    DirichletChar,
    N_CAP,
    PrecisionExhausted,
    TheoremViolation,
    build_tower,
    char_is_omega_power_mod_p,
    cyclo_valuation,
    embed_padic,
    padic_residue,
    padic_valuation,
    residue_factor,
    residue_image,
    teichmuller,
)
from lzero import padic
from lzero.cyclo import _reduce, cyclotomic_poly
from lzero._kernels import mulmod, reduce_mod
from lzero.padic import (
    PadicElt,
    _eisenstein_poly,
    _gauss_period,
    _hensel_lift,
    _pm_gcd,
)
from lzero.nt import euler_phi, multiplicative_order, valuation


# ---------------------------------------------------------------------------
# schoolbook polynomials mod p for the oracles below, written independently
# of the kernels they check (lists, ascending degree, trimmed)


def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pm_mul(a, b, p):
    """a b mod p, trimmed."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return _trim([c % p for c in out])


def _schoolbook_divmod(a, b, p):
    """Quotient and remainder of a by b mod p, both trimmed, by long
    division; b's leading coefficient must be a unit mod p."""
    rem = _trim([x % p for x in a])
    b = _trim([x % p for x in b])
    inv = pow(b[-1], -1, p)
    quo = [0] * max(len(rem) - len(b) + 1, 0)
    while len(rem) >= len(b):
        q = rem[-1] * inv % p
        shift = len(rem) - len(b)
        quo[shift] = q
        for i, c in enumerate(b):
            rem[shift + i] = (rem[shift + i] - q * c) % p
        _trim(rem)
    return quo, rem


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
        phi = [c % p for c in cyclotomic_poly(k1)]
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
    assert residue_factor(5, 4) == (3, 1)
    # k1 = 6, p = 7: x^2 - x + 1 has roots 3 and 5 mod 7; smallest root 3,
    # i.e. the factor x - 3 = x + 4.
    assert residue_factor(7, 6) == (4, 1)


def _least_factor_by_sympy(p, k1):
    """The selection rule applied to sympy's factorisation of Phi_{k1} mod p.

    Cantor-Zassenhaus, so the oracle does not share the split's method, a
    Berlekamp split by Gauss periods."""
    x = sympy.Symbol("x")
    phi = sympy.Poly(sympy.cyclotomic_poly(k1, x), x, modulus=p)
    with polyconfig.using(GF_FACTOR_METHOD="zassenhaus"):
        _, factors = phi.factor_list()
    ascending = [tuple(c % p for c in reversed(f.all_coeffs())) for f, _ in factors]
    assert all(g[-1] == 1 for g in ascending)
    return min(ascending, key=lambda g: tuple((-c) % p for c in g[:-1]))


FACTOR_ORACLE_PAIRS = [
    (p, k1)
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
    for k1 in range(1, 61)
    if k1 % p
] + [(23, 82), (5, 82), (19, 78), (149, 96), (32749, 12), (601, 200), (61, 600)]


def test_factor_matches_sympy_selection():
    # uncached, so every pair is really split again
    for p, k1 in FACTOR_ORACLE_PAIRS:
        assert residue_factor.__wrapped__(p, k1) == _least_factor_by_sympy(p, k1), (p, k1)


@pytest.mark.parametrize("p,k1", [(3, 8), (5, 21), (7, 43), (13, 36), (31, 100), (149, 96)])
def test_gauss_periods_are_fixed_by_frobenius(p, k1):
    # T_j^p = T_j mod x^k1 - 1: the p-th power of a sum over a Frobenius
    # orbit permutes its terms, so every T_j lies in the Berlekamp algebra
    d = multiplicative_order(p, k1)
    cyclic = [p - 1] + [0] * (k1 - 1) + [1]
    for j in sorted({0, 1, 2, 3, k1 // 3, k1 // 2, k1 - 1}):
        t = _gauss_period(j, p, k1, d)
        power = [1]
        for bit in bin(p)[2:]:
            power = _schoolbook_divmod(_pm_mul(power, power, p), cyclic, p)[1]
            if bit == "1":
                power = _schoolbook_divmod(_pm_mul(power, t, p), cyclic, p)[1]
        assert power == t, j


def test_split_with_a_wrong_degree_raises(monkeypatch):
    # Phi_3 = x^2 + x + 1 is irreducible mod 5; told that d = 1, the split
    # must refuse instead of returning a factor of the wrong degree
    monkeypatch.setattr(padic, "multiplicative_order", lambda a, n: 1)
    with pytest.raises(TheoremViolation):
        residue_factor.__wrapped__(5, 3)


def _split_everything(p, k1):
    """The selection made by splitting Phi_{k1} mod p into all its factors
    by Gauss periods, then taking the least by the rule: no norm key."""
    d = multiplicative_order(p, k1) if k1 > 1 else 1
    pieces = [_trim([c % p for c in cyclotomic_poly(k1)])]
    j = 0
    while any(len(h) - 1 != d for h in pieces):
        j += 1
        period = _trim([c % p for c in _reduce(k1, _gauss_period(j, p, k1, d))])
        pieces = [g for h in pieces
                  for g in ([h] if len(h) - 1 == d else padic._split_by_period(h, period, p))]
    return tuple(min(pieces, key=lambda g: tuple((-c) % p for c in g[:-1])))


def _least_primitive_root(p):
    return next(r for r in range(2, p)
                if all(pow(r, (p - 1) // q, p) != 1 for q in sympy.primefactors(p - 1)))


def test_norm_key_chooses_without_a_split(monkeypatch):
    # a unique least b_0 = (-1)^(d+1) N(theta^u) needs one gcd, no split
    expected = {(97, 15): _split_everything(97, 15)}
    for p in (2459, 4079):  # d = 1: x - g, g the least root of Phi_{p-1}
        expected[p, p - 1] = ((p - _least_primitive_root(p)) % p, 1)

    def no_split(*args):
        raise AssertionError("split")

    monkeypatch.setattr(padic, "_split_by_period", no_split)
    for (p, k1), factor in expected.items():
        assert residue_factor.__wrapped__(p, k1) == factor, (p, k1)


def test_norm_key_splits_tied_factors(monkeypatch):
    # p = 7, k' = 8: d = 2 and 1 + 7 = 0 mod 8, so every norm is 1 and both
    # factors x^2 + 3x + 1 and x^2 + 4x + 1 of x^4 + 1 tie on b_0 = 6
    calls = []
    split = padic._split_by_period

    def counting_split(*args):
        calls.append(args)
        return split(*args)

    monkeypatch.setattr(padic, "_split_by_period", counting_split)
    assert residue_factor.__wrapped__(7, 8) == (1, 4, 1)
    assert calls


def test_norm_key_matches_split_everything():
    pairs = [(p, k1) for p in sympy.primerange(3, 200) for k1 in range(1, 130) if k1 % p]
    for p, k1 in pairs[::10]:
        assert residue_factor.__wrapped__(p, k1) == _split_everything(p, k1), (p, k1)


def _gcd_by_sympy(a, b, p):
    x = sympy.Symbol("x")
    a, b = (sympy.Poly(list(reversed(c)) or [0], x, modulus=p) for c in (a, b))
    return _trim([int(c) % p for c in reversed(a.gcd(b).all_coeffs())])


def _gcd_cases():
    rng = random.Random(2203)
    cases = []
    for p in (3, 5, 7, 31, 149):

        def poly(degree):  # signed, above p, leading coefficient a unit != 1
            return [rng.randrange(-3 * p, 3 * p) for _ in range(degree)] + [rng.randrange(2, p) - p]

        for _ in range(6):
            common = poly(rng.randrange(0, 3))
            cases.append((_pm_mul(poly(rng.randrange(0, 5)), common, p),
                          _pm_mul(poly(rng.randrange(0, 5)), common, p), p))
        a = poly(3)
        cases += [
            (a, [], p),                              # zero second argument
            (a, [p, 0, -2 * p], p),                  # one that vanishes mod p
            (a, _pm_mul(a, poly(2), p), p),          # a | b
            (_pm_mul(a, poly(2), p), a, p),          # b | a
            (poly(4), poly(4), p),                   # random pair
            ([], [], p),
        ]
    return cases


@pytest.mark.parametrize("a,b,p", _gcd_cases())
def test_pm_gcd_matches_sympy(a, b, p):
    before = (list(a), list(b))
    g = _pm_gcd(a, b, p)
    assert g == _gcd_by_sympy(a, b, p)
    assert (a, b) == before  # the inputs are not reduced in place
    if any(c % p for c in a + b):
        assert g[-1] == 1  # monic
    else:
        assert g == []


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
    z = embed_padic(CycloElt.zeta(k, 1), t)
    one = _elt(t, {(0, 0): 1})
    powers = [one]
    for _ in range(k):
        powers.append(powers[-1] * z)
    assert powers[k].mat == one.mat
    for d in (m for m in range(1, k) if k % m == 0):
        assert powers[d].mat != one.mat


def _elt(tower, entries):
    """The element of the tower with matrix entries {(j, i): c} (coefficient
    of pi^j x^i), all others 0."""
    mat = [[0] * tower.f_res for _ in range(tower.e_ram)]
    for (j, i), c in entries.items():
        mat[j][i] = c % tower.modulus
    return PadicElt(tower, 0, tuple(map(tuple, mat)))


def _power(z, n):
    acc = _elt(z.tower, {(0, 0): 1})
    while n:
        if n & 1:
            acc = acc * z
        z = z * z
        n >>= 1
    return acc


def _zeta_reference(t):
    """The image of zeta_k as (1 + pi)^alpha x^beta, multiplied out in the
    tower: alpha k' = 1 mod p^a, beta p^a = 1 mod k', and x is the lifted
    root of g when f = 1."""
    pa = t.k // t.k_tame
    x = _elt(t, {(0, 1): 1} if t.f_res > 1 else {(0, 0): -t.factor[0]})
    one_pi = _elt(t, {(0, 0): 1, (1, 0): 1} if pa > 1 else {(0, 0): 1})
    beta = pow(pa, -1, t.k_tame) if t.k_tame > 1 else 1
    return _power(one_pi, pow(t.k_tame, -1, pa)) * _power(x, beta)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_power_columns_match_tower_products(p):
    # the embedding of each power of zeta_(k/step) against powers of
    # zeta_k^step taken with the tower's own product, for every step
    # dividing k
    cases = 0
    for k in range(1, 80):
        for N in (1, 3, 16):
            t = build_tower(p, k, N)
            z = _zeta_reference(t)
            for step in (s for s in range(1, k + 1) if k % s == 0):
                xi = _power(z, step)
                img = _elt(t, {(0, 0): 1})
                for i in range(euler_phi(k // step)):
                    got = embed_padic(CycloElt.zeta(k // step, i), t)
                    assert (got.shift, got.mat) == (0, img.mat), (k, N, step, i)
                    img = img * xi
                cases += 1
    assert cases > 900


def _reference_embed(z, tower):
    """embed_padic by a per-tower table of the images of zeta_k^m: the
    columns U[alpha m mod p^a] (x) V[beta m mod k'], m < phi(k), with
    U[u] = (1 + pi)^u mod (E, p^N) and V[t] = x^t mod (g, p^N), and one flat
    dot of z's numerators with each column.  Returns (shift, mat)."""
    z = z.embed_into(tower.k)
    p, pN, N = tower.p, tower.modulus, tower.precision
    e, f, k1 = tower.e_ram, tower.f_res, tower.k_tame
    s = valuation(z.den, p)
    if s >= N:
        raise PrecisionExhausted(f"shift {s} at N={N}")
    pa = tower.k // k1
    alpha, beta = pow(k1, -1, pa), pow(pa, -1, k1)
    eis = list(_eisenstein_poly(p, tower.wild_exp))
    u = [[1] + [0] * (e - 1)]
    for _ in range(pa - 1):
        u.append(mulmod(u[-1], [1, 1], eis, pN))
    v = [[1] + [0] * (f - 1)]
    for _ in range(k1 - 1):
        v.append(reduce_mod([0, *v[-1]], list(tower.factor), pN))
    ms = range(euler_phi(tower.k))
    inv_unit = pow(z.den // p**s, -1, pN)
    flat = [sum(n * u[alpha * m % pa][j] * v[beta * m % k1][i] % pN
                for m, n in zip(ms, z.nums)) * inv_unit % pN
            for j in range(e) for i in range(f)]
    return s, tuple(tuple(flat[j : j + f]) for j in range(0, e * f, f))


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_embedding_matches_the_table_reference(p):
    # every k < 120 at N = 1, 3, 16: the same image, or PrecisionExhausted
    # on both sides when den's p-part uses up the precision
    rng = random.Random(p)
    images = raised = 0
    for k in range(1, 120):
        for N in (1, 3, 16):
            tower = build_tower(p, k, N)
            for den in (1, 7, p, 3 * p**2, p**N):
                z = CycloElt(k, [rng.randrange(-10**6, 10**6) for _ in range(euler_phi(k))], den)
                try:
                    want = _reference_embed(z, tower)
                except PrecisionExhausted:
                    with pytest.raises(PrecisionExhausted):
                        embed_padic(z, tower)
                    raised += 1
                    continue
                got = embed_padic(z, tower)
                assert (got.shift, got.mat) == want, (k, N, den)
                images += 1
    assert images > 1000 and raised > 300


@pytest.mark.parametrize("N", [1, 16])
@pytest.mark.parametrize("p,a", [(3, 1), (3, 3), (5, 2), (7, 2)])
def test_binomial_rows_are_the_powers_of_one_plus_pi(p, a, N):
    # row j holds the pi^j-coefficients of (1 + pi)^u, j <= u < e, and
    # (1 + pi)^u is taken mod (E, p^N) with mulmod
    eis = list(_eisenstein_poly(p, a))
    e, pN = len(eis) - 1, p**N
    rows = padic._binomial_rows(e, pN)
    assert [len(row) for row in rows] == list(range(e, 0, -1))
    power = [1] + [0] * (e - 1)
    for u in range(e):
        assert [rows[j][u - j] for j in range(u + 1)] == power[: u + 1]
        assert not any(power[u + 1 :])
        power = mulmod(power, [1, 1], eis, pN)


@pytest.mark.parametrize("p,a", [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (7, 2), (13, 1)])
def test_eisenstein_poly_matches_sympy(p, a):
    x = sympy.symbols("x")
    phi = sympy.cyclotomic_poly(p**a, x).subs(x, x + 1)
    want = [int(c) for c in reversed(sympy.Poly(sympy.expand(phi), x).all_coeffs())]
    got = _eisenstein_poly(p, a)
    assert list(got) == want
    assert got[-1] == 1 and all(c % p == 0 for c in got[:-1]) and got[0] % p**2


def _remainder(poly, monic, mod):
    """poly mod (monic, mod) by long division, written out independently."""
    rem = [c % mod for c in poly]
    d = len(monic) - 1
    while len(rem) > d:
        top = rem.pop()
        if top:
            for i in range(d):
                rem[-d + i] = (rem[-d + i] - top * monic[i]) % mod
    return rem


def test_hensel_factor_congruent_mod_p():
    t = build_tower(5, 20, 32)
    assert [c % 5 for c in t.factor] == [c % 5 for c in residue_factor(5, 4)]
    # and it still divides Phi_{k'} to the working precision
    rem = _remainder(cyclotomic_poly(4), t.factor, 5**32)
    assert all(c == 0 for c in rem)


def _pm_xgcd(a, b, p):
    """(g, s, t) with s a + t b = g mod p, g monic."""

    def sub(u, v):
        n = max(len(u), len(v))
        u, v = u + [0] * (n - len(u)), v + [0] * (n - len(v))
        return _trim([(x - y) % p for x, y in zip(u, v)])

    r0, s0, t0 = _trim(list(a)), [1], []
    r1, s1, t1 = _trim(list(b)), [], [1]
    while r1:
        q, r = _schoolbook_divmod(r0, r1, p)
        s2 = sub(s0, _pm_mul(q, s1, p))
        t2 = sub(t0, _pm_mul(q, t1, p))
        r0, s0, t0, r1, s1, t1 = r1, s1, t1, r, s2, t2
    inv = pow(r0[-1], -1, p)
    return (
        [x * inv % p for x in r0],
        [x * inv % p for x in s0],
        [x * inv % p for x in t0],
    )


def _linear_hensel_reference(F, g_bar, p, N):
    """Lift g_bar | F mod p to p^N by N - 1 linear Hensel steps, one power
    of p at a time; each step solves G dh + H dg = (F - GH)/p^n mod p."""
    g = [c % p for c in g_bar]
    if len(g) == len(F):
        return [c % p**N for c in F]
    h = _schoolbook_divmod([c % p for c in F], g, p)[0]
    s = _pm_xgcd(g, h, p)[1]  # s g = 1 mod (h, p)
    G, H = list(g), list(h)
    for n in range(1, N):
        mod, nxt = p**n, p ** (n + 1)
        GH = [0] * len(F)
        for i, x in enumerate(G):
            for j, y in enumerate(H):
                GH[i + j] += x * y
        diff = [(f - gh) % nxt for f, gh in zip(F, GH)]
        assert all(c % mod == 0 for c in diff)
        E = [c // mod for c in diff]
        dh = _schoolbook_divmod(_pm_mul(s, E, p), h, p)[1]
        gdh = _pm_mul(g, dh, p) + [0] * len(E)
        dg, rem = _schoolbook_divmod([(x - y) % p for x, y in zip(E, gdh)], h, p)
        assert not rem
        H = [(c + mod * d) % nxt for c, d in zip(H, dh + [0] * len(H))]
        G = [(c + mod * d) % nxt for c, d in zip(G, dg + [0] * len(G))]
    return G


HENSEL_PRECISIONS = (1, 2, 3, 16, 17, 128)


@pytest.mark.parametrize("p", [3, 5, 7, 13, 31, 149])
def test_newton_lift_matches_linear_reference(p):
    degenerate = []
    for k1 in range(1, 45):
        if k1 % p == 0:
            continue
        phi = cyclotomic_poly(k1)
        g = residue_factor(p, k1)
        if len(g) == len(phi):
            degenerate.append(k1)
        for N in HENSEL_PRECISIONS:
            G = _hensel_lift(k1, g, p, N)
            assert G == _linear_hensel_reference(phi, g, p, N), (k1, N)
            assert len(G) == len(g) and G[-1] == 1
            assert [c % p for c in G] == [c % p for c in g]
            assert all(c == 0 for c in _remainder(phi, G, p**N))
    # p generates (Z/k')^* for some k' > 1, where the factor is Phi_{k'} itself
    assert [k1 for k1 in degenerate if k1 > 1]


@pytest.mark.parametrize("N", [1, 2, 16])
def test_newton_lift_matches_linear_reference_at_a_large_k1(N):
    # degree 1, where each step is a scalar pow, with a long Phi_{k'}
    p, k1 = 2459, 2458
    phi = cyclotomic_poly(k1)
    g = residue_factor(p, k1)
    assert len(g) == 2
    assert _hensel_lift(k1, g, p, N) == _linear_hensel_reference(phi, g, p, N)


@pytest.mark.parametrize("N", HENSEL_PRECISIONS)
def test_newton_lift_doubles_precision_per_step(N, monkeypatch):
    moduli = set()
    p, k1 = 7, 43  # a degree-6 factor of Phi_43 mod 7
    x_k1_minus_1 = [-1, *[0] * (k1 - 1), 1]

    def recording_reduce_mod(rem, monic, m):
        if rem == x_k1_minus_1:
            moduli.add(m)
        return reduce_mod(rem, monic, m)

    monkeypatch.setattr(padic, "reduce_mod", recording_reduce_mod)
    _hensel_lift(k1, residue_factor(p, k1), p, N)
    lifted = sorted(valuation(m, p) for m in moduli if m > p)
    assert len(lifted) == (N - 1).bit_length()  # ceil(log2 N) steps
    assert lifted[-1:] == ([N] if N > 1 else [])
    for n, nxt in zip([1] + lifted, lifted):
        assert n < nxt <= 2 * n


@pytest.mark.parametrize("N", [1, 2, 16])
def test_hensel_lift_rejects_a_non_factor(N):
    # x + 1 divides x^4 - 1 but not Phi_4 = x^2 + 1 mod 5: every Newton step
    # passes, so the final check must refuse it
    with pytest.raises(TheoremViolation):
        _hensel_lift(4, (1, 1), 5, N)


@pytest.mark.parametrize("N", [1, 2, 16])
def test_hensel_lift_rejects_a_non_divisor_of_x_k_minus_1(N):
    # 3^3 = 6 mod 7, so x - 3 does not divide x^3 - 1 mod 7
    with pytest.raises(TheoremViolation):
        _hensel_lift(3, (4, 1), 7, N)


def test_lifted_root_at_5_4():
    # the chosen factor of x^2+1 over Z_5 is x - r with r = 2 mod 5
    t = build_tower(5, 4, 16)
    (c0, c1) = t.factor
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
    za, zb = CycloElt.one(20) - CycloElt.zeta(20), CycloElt.rational(5)
    a, b = embed_padic(za, t), embed_padic(zb, t)
    va, vb = padic_valuation(a), padic_valuation(b)
    assert padic_valuation(a * b) == va + vb
    s = padic_valuation(embed_padic(za + zb, t))
    assert s >= min(va, vb)
    assert padic_valuation(embed_padic(za + za, t)) == va  # v(2x) = v(x) away from 2


def _horner_embed(z, tower):
    """Reference embedding: Horner's rule in the tower's own arithmetic."""
    p, pN = tower.p, tower.modulus
    s = valuation(z.den, p)
    xi = _power(_zeta_reference(tower), tower.k // z.order)
    acc = _elt(tower, {})
    for c in reversed(z.nums):
        mat = [list(r) for r in (acc * xi).mat]
        mat[0][0] = (mat[0][0] + c) % pN  # + c: the constant coefficient
        acc = PadicElt(tower, 0, tuple(map(tuple, mat)))
    acc = acc * _elt(tower, {(0, 0): pow(z.den // p**s, -1, pN)})
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
        # subfield, which is rewritten in Q(zeta_k) first
        order = k if trial % 2 else rng.choice(orders[:-1])
        qs = [Fraction(rng.randrange(-99, 100), rng.choice(dens))
              for _ in range(euler_phi(order))]
        den = lcm(*(q.denominator for q in qs))
        z = CycloElt(order, [q.numerator * (den // q.denominator) for q in qs], den)
        got = embed_padic(z, tower)
        shifted += got.shift > 0
        assert (got.shift, got.mat) == _horner_embed(z, tower)
    assert shifted


def test_zero_element_valuation_is_above_precision():
    t = build_tower(5, 4)
    assert padic_valuation(_elt(t, {})) is ABOVE_PRECISION


# ---------------------------------------------------------------------------
# precision ladder


def test_ladder_escalates_for_deep_values():
    z = CycloElt.rational(5**20)
    val, tower = cyclo_valuation(z, 5, n_start=16)
    assert val == 20
    assert tower.precision == 32
    # the ladder's own image is the one a plain embedding gives
    *judged, image = padic._ladder(z, 5, 16)
    assert judged == [val, tower]
    again = embed_padic(z, tower)
    assert (image.shift, image.mat) == (again.shift, again.mat)


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


@pytest.mark.parametrize("p,k", [
    (5, 4), (7, 9), (11, 30), (13, 21), (31, 44),   # tame
    (3, 12), (5, 30), (7, 28), (3, 63), (13, 52),   # wild: beta = 3, 5, 3, 4, 1
    (7, 14), (3, 1), (3, 27), (5, 25),              # k' = 2, then k' = 1
])
def test_residue_image_matches_the_embedding(p, k):
    """residue_image reads the residue of a p-integral value off its
    numerators, with no table: it must be the residue of the embedding."""
    rng = random.Random(p * 1000 + k)
    orders = [m for m in range(1, k + 1) if k % m == 0]
    dens = [d for d in (1, 2, 3, 7, 11, 221, 10**30 + 1) if d % p]
    zeros = 0
    for trial in range(60):
        order = k if trial % 2 else rng.choice(orders)
        z = CycloElt(order, [rng.randrange(-10**40, 10**40) for _ in range(euler_phi(order))],
                     rng.choice(dens))
        if trial % 5 == 0:  # positive valuation, by p or by 1 - zeta_p: residue 0
            small = CycloElt.rational(p, order)
            if order % p == 0 and trial % 10:
                small = CycloElt.one(order) - CycloElt.zeta(order, order // p)
            z = z * small
        if z.is_zero():
            continue
        want = padic_residue(embed_padic(z, build_tower(p, z.order)))
        assert residue_image(z, p) == want
        zeros += not any(want)
    assert zeros


def test_residue_image_rejects_p_in_the_denominator():
    with pytest.raises(ValueError):
        residue_image(CycloElt.rational(Fraction(2, 15)), 5)


@pytest.mark.parametrize(
    "p,k_small,k_big",
    [(5, 4, 20), (5, 6, 30), (7, 4, 28), (3, 4, 36), (11, 6, 66), (5, 12, 60)],
)
def test_place_restricts_coherently(p, k_small, k_big):
    """The big tower's place restricted to Q(zeta_{k_small}) is the small
    tower's place: same valuations and same residues for many elements."""
    small = build_tower(p, k_small)
    big = build_tower(p, k_big)
    assert small.f_res == len(small.factor) - 1
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
    z = embed_padic(CycloElt.zeta(36, 1), t)
    assert (t.e_ram, t.f_res) == (6, 2)
    assert _power(z, 4).mat == _elt(t, {(0, 0): 1, (1, 0): 1}).mat
    assert _power(z, 9).mat == _elt(t, {(0, 1): 1}).mat


# ---------------------------------------------------------------------------
# omega-power detection


def _omega_power_reference(chi, p, t):
    """char_is_omega_power_mod_p before its per-(p, k') tables, verbatim."""
    from lzero.characters import _char_data, eval_exponent, unit_group_basis
    from lzero.nt import factorize, is_prime

    if p == 2 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    f = chi.modulus
    m_mod = lcm(f, p)
    k, _ = _char_data(chi.modulus, chi.exponents)
    a_wild = factorize(k).get(p, 0)
    k1 = k // p**a_wild
    beta = pow(p**a_wild, -1, k1) if k1 > 1 else 1
    fct = list(residue_factor(p, k1))
    for g, _o in unit_group_basis(m_mod).generators:
        m = eval_exponent(chi, g)
        if m is None:
            raise TheoremViolation(f"chi has no value at the unit {g} mod {m_mod}")
        lhs = _schoolbook_divmod([0] * (m * beta % k1) + [1], fct, p)[1]
        rhs = _trim([pow(g, t, p)])
        if lhs != rhs:
            return False
    return True


def test_omega_power_tables_match_reference():
    from lzero.characters import enumerate_characters
    from lzero.nt import primes_upto

    chars = [chi for f in range(1, 61) for chi in enumerate_characters(f, primitive_only=True)]
    hits = 0
    for p in primes_upto(31)[1:]:
        for chi in chars:
            for t in (-1, 0, 1):
                got = char_is_omega_power_mod_p(chi, p, t)
                assert got == _omega_power_reference(chi, p, t), (p, chi, t)
                hits += got
    assert hits  # both answers occur


def test_omega_power_by_weights_matches_eval_exponent():
    """chi(g) read off the weights agrees with the reference, which takes a
    discrete logarithm of g mod f (eval_exponent)."""
    from lzero.characters import primitive_odd_characters
    from lzero.nt import primes_upto

    chars = primitive_odd_characters(120)
    hits = 0
    for p in primes_upto(31)[1:]:
        for chi in chars:
            for t in (-1, 0, 1, 2):
                got = char_is_omega_power_mod_p(chi, p, t)
                assert got == _omega_power_reference(chi, p, t), (p, chi, t)
                hits += got
    assert hits  # both answers occur


def test_omega_power_rejects_a_generator_off_the_basis(monkeypatch):
    """A generator of (Z/lcm(f, p))^* that is neither 1 nor a generator mod f
    raises TheoremViolation (a raise, not an assert, so -O keeps it)."""
    real = padic.unit_group_basis

    def squared(modulus):
        basis = real(modulus)
        if modulus != 35:
            return basis
        return basis._replace(generators=tuple((g * g % modulus, o) for g, o in basis.generators))

    monkeypatch.setattr(padic, "unit_group_basis", squared)
    with pytest.raises(TheoremViolation, match="neither 1 nor a generator mod 5"):
        char_is_omega_power_mod_p(DirichletChar(5, (1,)), 7, 0)


def test_omega_power_rejects_even_or_composite_p():
    chi = DirichletChar(5, (1,))
    for p in (2, 9, 1):
        with pytest.raises(ValueError):
            char_is_omega_power_mod_p(chi, p, -1)


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
