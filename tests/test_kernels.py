"""Behaviour of the arithmetic kernels.

The oracle here is schoolbook polynomial arithmetic with explicit long
division, written without reference to the kernel code.
"""

import random

import pytest

from lzero import _kernels, cyclo, padic


def _poly_rem(poly, monic):
    """Remainder of poly by a monic polynomial, schoolbook long division."""
    rem = list(poly)
    d = len(monic) - 1
    while len(rem) > d:
        top = rem.pop()
        if top:
            for i in range(d):
                rem[-d + i] -= top * monic[i]
    rem += [0] * (d - len(rem))
    return rem


def _naive_mul(a, b, monic):
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] += ai * bj
    return _poly_rem(prod, monic)


def _stages_for(monic):
    """monic as the one stage poly_mul_reduce divides by: its degree and its
    nonzero lower terms (i, c)."""
    return ((len(monic) - 1, tuple((i, c) for i, c in enumerate(monic[:-1]) if c)),)


def _random_monic(rng, degree, bound):
    return [rng.randrange(-bound, bound) for _ in range(degree)] + [1]


# Each kernel is checked both as defined and as bound at its one call site.
# The case ids are the ones these tests had when there were two kernel
# implementations, so results stay comparable across that change.
@pytest.mark.parametrize("impl", [_kernels, cyclo], ids=["python", "selected"])
def test_poly_mul_reduce_matches_schoolbook(impl):
    rng = random.Random(7101)
    for _ in range(40):
        d = rng.randrange(1, 12)
        monic = _random_monic(rng, d, 9)
        stages = _stages_for(monic)
        a = [rng.randrange(-10**6, 10**6) for _ in range(d)]
        b = [rng.randrange(-10**6, 10**6) for _ in range(d)]
        assert impl.poly_mul_reduce(a, b, stages) == _naive_mul(a, b, monic)


def test_poly_mul_reduce_big_coefficients():
    """Coefficients far beyond 64 bits must survive."""
    rng = random.Random(88)
    monic = [3, -2, 1, 1]  # x^3 + x^2 - 2x + 3
    stages = _stages_for(monic)
    a = [rng.randrange(-(10**40), 10**40) for _ in range(3)]
    b = [rng.randrange(-(10**40), 10**40) for _ in range(3)]
    assert _kernels.poly_mul_reduce(a, b, stages) == _naive_mul(a, b, monic)


def _operand_pairs(rng, d, bound):
    """Signed operands of length d, shorter than d, and longer, and zero
    vectors, for a modulus of degree d."""
    def vec(n):
        return [rng.randrange(-bound, bound) for _ in range(n)]

    lengths = [(d, d), (1, d), (max(d - 1, 1), 1), (2 * d, d + 1), (1, 1)]
    pairs = [(vec(i), vec(j)) for i, j in lengths for _ in range(4)]
    return pairs + [([0] * d, vec(d)), (vec(d), [0] * d), ([0], [0])]


# (monic, m): a dense monic, linear ones, E = x (the Eisenstein
# polynomial of an unramified tower), an Eisenstein polynomial, a cyclotomic
# polynomial mod a prime, and a modulus at the precision cap p^512
_ZMOD_CASES = {
    "dense": ([4, -7, 0, 11, -2, 1], 3**10),
    "linear": ([-5, 1], 7**6),
    "linear-unit": ([1, 1], 13),
    "E=x": ([0, 1], 5**8),
    "eisenstein": ([3, 3, 1], 3**16),
    "cyclotomic": (list(cyclo.cyclotomic_poly(12)), 13),
    "p^512": (_random_monic(random.Random(512), 6, 3**512), 3**512),
    "linear-p^512": ([-(2**700), 1], 5**512),
}


@pytest.mark.parametrize("monic,m", _ZMOD_CASES.values(), ids=_ZMOD_CASES.keys())
def test_convolve_reduce_mod_and_mulmod_match_schoolbook(monic, m):
    rng = random.Random(m % 9973)
    d = len(monic) - 1
    for a, b in _operand_pairs(rng, d, 2 * m):
        prod = _naive_mul(a, b, [0] * (len(a) + len(b) - 1) + [1])  # unreduced
        assert _kernels.convolve(a, b) == prod
        want = [c % m for c in _poly_rem(prod, monic)]
        for got in (_kernels.reduce_mod(list(prod), monic, m), _kernels.mulmod(a, b, monic, m)):
            assert len(got) == min(len(prod), d)
            assert got + [0] * (d - len(got)) == want


def test_dense_product_at_a_safe_prime_order():
    """k = 166 = 2 * 83, p = 167 a safe prime: every coordinate of both
    factors is nonzero, with 40 digits, and CycloElt.__mul__ (convolution,
    then the fold x^83 = -1 and Phi_166) agrees with division by Phi_166."""
    rng = random.Random(166)
    d = cyclo.phi_degree(166)
    a = [rng.choice([-1, 1]) * rng.randrange(10**39, 10**40) for _ in range(d)]
    b = [rng.choice([-1, 1]) * rng.randrange(10**39, 10**40) for _ in range(d)]
    got = cyclo.CycloElt(166, a) * cyclo.CycloElt(166, b)
    assert list(got.nums) == _naive_mul(a, b, cyclo.cyclotomic_poly(166))
    assert got.den == 1


def _naive_tower_mul(amat, bmat, gmonic, emonic, modulus):
    """Bivariate product reduced by g(x) then E(pi), as dictionaries."""
    e, f = len(amat), len(amat[0])
    prod = {}
    for j1 in range(e):
        for i1 in range(f):
            if not amat[j1][i1]:
                continue
            for j2 in range(e):
                for i2 in range(f):
                    if bmat[j2][i2]:
                        key = (j1 + j2, i1 + i2)
                        prod[key] = prod.get(key, 0) + amat[j1][i1] * bmat[j2][i2]
    # reduce x-degree within each pi-row
    rows = [[0] * (2 * f - 1) for _ in range(2 * e - 1)]
    for (j, i), c in prod.items():
        rows[j][i] += c
    rows = [_poly_rem(r, gmonic) for r in rows]
    # reduce pi-degree; E has integer (x-free) coefficients
    out = [row[:] for row in rows[:e]]
    for m in range(2 * e - 2, e - 1, -1):
        top = rows[m]
        expansion = _poly_rem([0] * m + [1], emonic)
        for j in range(e):
            if expansion[j]:
                for i in range(f):
                    out[j][i] += expansion[j] * top[i]
    return [[c % modulus for c in row] for row in out]


def test_tower_mul_matches_schoolbook():
    rng = random.Random(424242)
    for _ in range(25):
        e = rng.randrange(1, 6)
        f = rng.randrange(1, 6)
        modulus = rng.choice([3**10, 5**8, 7**6])
        gmonic = _random_monic(rng, f, modulus)
        emonic = _random_monic(rng, e, modulus)
        amat = [[rng.randrange(modulus) for _ in range(f)] for _ in range(e)]
        bmat = [[rng.randrange(modulus) for _ in range(f)] for _ in range(e)]
        got = _kernels.tower_mul(amat, bmat, gmonic, emonic, modulus)
        want = _naive_tower_mul(amat, bmat, gmonic, emonic, modulus)
        assert got == want
    # an unramified tower (E = x), a linear G, zero rows, and the cap p^512
    for gmonic, emonic, modulus in [
        ([3, 0, 1], [0, 1], 5**8),
        ([-(7**9), 1], [7, 7, 1], 7**12),
        (_random_monic(rng, 3, 3**512), [3, 3, 1], 3**512),
        (_random_monic(rng, 2, 5**512), [0, 1], 5**512),
    ]:
        e, f = len(emonic) - 1, len(gmonic) - 1
        amat = [[rng.randrange(-modulus, modulus) for _ in range(f)] for _ in range(e)]
        bmat = [[rng.randrange(modulus) for _ in range(f)] for _ in range(e)]
        if e > 1:
            amat[0] = [0] * f
        got = _kernels.tower_mul(amat, bmat, gmonic, emonic, modulus)
        assert got == _naive_tower_mul(amat, bmat, gmonic, emonic, modulus)



def test_padic_product_matches_schoolbook():
    """PadicElt.__mul__, tower_mul's one call site, in towers whose factor
    and Eisenstein polynomial it reads: wild and tame, f up to 3, e up to
    20, signed entries, a zero row and the cap p^512.  The shifts add."""
    rng = random.Random(424242)
    for p, k, N in [(3, 9, 10), (5, 25, 8), (7, 28, 6), (3, 36, 10), (5, 30, 8),
                    (13, 36, 6), (3, 4, 512), (5, 6, 512)]:
        t = padic.build_tower(p, k, N)
        e, f, modulus = t.e_ram, t.f_res, t.modulus
        emonic = padic._eisenstein_poly(p, t.wild_exp)
        for trial in range(4):
            amat = [[rng.randrange(-modulus, modulus) for _ in range(f)] for _ in range(e)]
            bmat = [[rng.randrange(modulus) for _ in range(f)] for _ in range(e)]
            if trial == 0:
                amat[0] = [0] * f
            a = padic.PadicElt(t, 1, tuple(map(tuple, amat)))
            b = padic.PadicElt(t, 2, tuple(map(tuple, bmat)))
            got = a * b
            assert got.tower is t and got.shift == 3
            assert [list(row) for row in got.mat] == _naive_tower_mul(
                amat, bmat, t.factor, emonic, modulus)
