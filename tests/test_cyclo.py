"""Exact cyclotomic arithmetic against sympy/mpmath oracles and field axioms."""

import copy
import functools
import pickle
import random
import tracemalloc
from fractions import Fraction

import mpmath as mp
import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.polys.densearith import dup_rem
from sympy.polys.densebasic import dup_strip
from sympy.polys.domains import ZZ

from lzero import CycloElt, DirichletChar, IncompatibleOrders, bernoulli, cyclo, cyclotomic_poly
from lzero.cyclo import phi_degree


# ---------------------------------------------------------------------------
# cyclotomic polynomials


@pytest.mark.parametrize("k", list(range(1, 61)) + [105, 1155, 2310])
def test_cyclotomic_poly_matches_sympy(k):
    x = sympy.symbols("x")
    want = [int(c) for c in reversed(sympy.cyclotomic_poly(k, x).as_poly(x).all_coeffs())]
    assert list(cyclotomic_poly(k)) == want


def _poly_product(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_cyclotomic_product_is_x_n_minus_1():
    for n in (1, 2, 6, 12, 30):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                prod = _poly_product(prod, cyclotomic_poly(d))
        want = [-1] + [0] * (n - 1) + [1]
        assert prod == want


# ---------------------------------------------------------------------------
# CycloElt: frozen anchors


def test_zeta_basics():
    z5 = CycloElt.zeta(5)
    assert z5 ** 5 == CycloElt.one()
    # Phi_5(zeta_5) = 0
    acc = CycloElt.zero(5)
    for i in range(5):
        acc = acc + z5 ** i
    # 1 + z + z^2 + z^3 + z^4 = 0
    assert acc.is_zero()


def test_cross_order_identities():
    # zeta_6 = -zeta_3^2 and zeta_2 = -1 hold after merging orders.
    assert CycloElt.zeta(6) == -(CycloElt.zeta(3) ** 2)
    assert CycloElt.zeta(2) == CycloElt.rational(-1)
    assert CycloElt.zeta(4) ** 2 == CycloElt.rational(-1)


def test_embed_into_requires_divisibility():
    with pytest.raises(IncompatibleOrders):
        CycloElt.zeta(5).embed_into(12)


def test_rational_value_and_integrality():
    half = CycloElt.rational(Fraction(1, 2), 12)
    assert half.rational_value() == Fraction(1, 2)
    assert not half.is_algebraic_integer()
    assert CycloElt.zeta(12).is_algebraic_integer()
    assert CycloElt.zeta(12).rational_value() is None


def test_lowest_terms_and_printing():
    a = CycloElt(4, [2, -4], -6)
    assert (a.nums, a.den) == ((-1, 2), 3)
    assert a == CycloElt.rational(Fraction(-1, 3), 4) + CycloElt.zeta(4) * Fraction(2, 3)
    assert a.coord_strings() == ["-1/3", "2/3"]
    assert repr(CycloElt(4, [6, 0], 4)) == "CycloElt(k=4, [3/2, 0])"
    assert repr(CycloElt(4, [6, 3], 1)) == "CycloElt(k=4, [6, 3])"
    assert CycloElt.zero(4).coord_strings() == ["0/1", "0/1"]
    with pytest.raises(ZeroDivisionError):
        CycloElt(4, [1, 0], 0)


@pytest.mark.parametrize("how", [
    *(f"pickle-{protocol}" for protocol in range(pickle.HIGHEST_PROTOCOL + 1)),
    "copy", "deepcopy",
])
def test_copies_are_equal_and_immutable(how):
    for a in (CycloElt(4, [1, 2], 3), CycloElt(1, [5]), CycloElt.zeta(12, 5) * Fraction(1, 7)):
        if how == "copy":
            b = copy.copy(a)
        elif how == "deepcopy":
            b = copy.deepcopy(a)
        else:
            b = pickle.loads(pickle.dumps(a, protocol=int(how.split("-")[1])))
        assert type(b) is CycloElt
        assert b == a
        assert (b.order, b.nums, b.den) == (a.order, a.nums, a.den)
        with pytest.raises(AttributeError, match="immutable"):
            b.den = 1


def test_l_value_record_pickles():
    """An LValueRecord, a character and two CycloElts, survives pickling, so
    it can cross a process boundary."""
    record = bernoulli.l_value_at_zero(DirichletChar(7, (1,)))
    assert pickle.loads(pickle.dumps(record)) == record


def _norm(a: CycloElt) -> Fraction:
    """N(a) as the resultant Res(Phi_k, A) / den^phi(k), by sympy."""
    x = sympy.symbols("x")
    phi = sympy.Poly(sympy.cyclotomic_poly(a.order, x), x)
    res = sympy.resultant(phi, sympy.Poly(list(reversed(a.nums)), x))
    return Fraction(int(res), a.den ** phi.degree())


def test_norm_of_one_minus_zeta_p():
    # N(1 - zeta_p) = p for prime p.
    for p in (3, 5, 7, 11, 13):
        elt = CycloElt.one(p) - CycloElt.zeta(p)
        assert _norm(elt) == p


def test_galois_conjugates_product_is_norm():
    a = CycloElt(5, [1, 2, 0, -1])
    prod = CycloElt.one(5)
    for j in range(1, 5):
        prod = prod * a.galois_conj(j)
    assert prod.rational_value() == _norm(a)


@pytest.mark.parametrize("k", [1, 2, 7, 8, 9, 12, 15, 36])
def test_from_exponent_sums_matches_zeta_sum(k):
    rng = random.Random(k)
    for m in range(k):  # one exponent: zeta_k^m itself
        assert CycloElt.from_exponent_sums(k, [int(i == m) for i in range(k)]) == CycloElt.zeta(k, m)
    for _ in range(20):
        sums = [rng.choice([0, 0, rng.randrange(-50, 51)]) for _ in range(k)]
        den = rng.choice([1, 2, 6, 35, 10**12])
        want = CycloElt.zero(k)
        for m, c in enumerate(sums):
            want = want + CycloElt.zeta(k, m) * c
        assert CycloElt.from_exponent_sums(k, sums, den) == want * Fraction(1, den)


# ---------------------------------------------------------------------------
# reduction to the power basis against sympy's polynomial remainder

# Phi_105 is the first cyclotomic polynomial with a coefficient outside
# {-1, 0, 1} (a -2); 385, 1155 and 2002 have three or four odd prime factors.
_REDUCTION_ORDERS = list(range(1, 61)) + [105, 210, 385, 1155, 2002]


@functools.lru_cache(maxsize=None)
def _sympy_phi(k):
    """Phi_k as sympy's dense list over ZZ, highest degree first."""
    x = sympy.symbols("x")
    return [int(c) for c in sympy.Poly(sympy.cyclotomic_poly(k, x), x).all_coeffs()]


def _sympy_rem(dense, k):
    """sympy's remainder of a dense polynomial (highest degree first) by Phi_k,
    as phi(k) ascending coefficients."""
    out = [int(c) for c in reversed(dup_rem(dense, _sympy_phi(k), ZZ))]
    return out + [0] * (phi_degree(k) - len(out))


@pytest.mark.parametrize("k", _REDUCTION_ORDERS)
def test_from_exponent_sums_matches_sympy_rem(k):
    rng = random.Random(1000 + k)
    d = phi_degree(k)
    for n in (rng.randrange(d), rng.randrange(d), k, k):  # shorter than phi(k), or k long
        sums = [rng.choice([0, rng.randrange(-10**6, 10**6)]) for _ in range(n)]
        dense = dup_strip([ZZ(c) for c in reversed(sums)])
        assert list(CycloElt.from_exponent_sums(k, sums).nums) == _sympy_rem(dense, k)


@pytest.mark.parametrize("k", _REDUCTION_ORDERS)
def test_zeta_and_mulrows_match_sympy_powers(k):
    """zeta_k^m for every m < 2k, and for m = d, ..., 2d - 2 the product of
    two basis powers zeta_k^(d-1) zeta_k^(m-d+1), whose convolution is x^m:
    the top terms a product reduces."""
    d = phi_degree(k)
    top = CycloElt.zeta(k, d - 1)
    power = [ZZ(1)]  # x^m mod Phi_k, dense
    for m in range(2 * k):
        want = _sympy_rem(power, k)
        assert list(CycloElt.zeta(k, m).nums) == want
        if d <= m <= 2 * d - 2:
            assert list((top * CycloElt.zeta(k, m - d + 1)).nums) == want
        power = dup_rem(power + [ZZ(0)], _sympy_phi(k), ZZ)


@pytest.mark.parametrize("k", _REDUCTION_ORDERS)
def test_reduction_stages_are_multiples_of_phi(k):
    """Each stage of _reduce is a monic multiple of Phi_k, and the last is Phi_k."""
    d, stages = cyclo._ctx(k)
    assert d == phi_degree(k) == len(_sympy_phi(k)) - 1
    tops = [top for top, _ in stages]
    assert tops == sorted(tops, reverse=True) and len(set(tops)) == len(tops)
    for top, low in stages:
        dense = [ZZ(0)] * (top + 1)
        dense[0] = ZZ(1)
        for i, c in low:
            dense[top - i] = ZZ(c)
        assert dup_rem(dense, _sympy_phi(k), ZZ) == []
    assert stages[-1] == (d, tuple((i, c) for i, c in enumerate(cyclotomic_poly(k)[:-1]) if c))


def _long_division(k, coeffs):
    """coeffs mod Phi_k by plain long division by the dense Phi_k."""
    phi = cyclotomic_poly(k)
    d = len(phi) - 1
    rem = list(coeffs) + [0] * d
    for s in range(len(coeffs) - 1 - d, -1, -1):
        if c := rem[s + d]:
            for i, a in enumerate(phi):
                rem[s + i] -= c * a
    return rem[:d]


# orders <= 400 in full; 30010 = 2 * 5 * 3001 (phi = 12,000) only on inputs a
# little longer than phi(k), where the dense division stays affordable
_LONG_DIVISION_ORDERS = list(range(1, 401)) + [1155, 2002, 2310, 30010]


@pytest.mark.parametrize("k", _LONG_DIVISION_ORDERS)
def test_reduce_matches_long_division_by_phi(k):
    rng = random.Random(2000 + k)
    d = phi_degree(k)
    lengths = (0, 1, rng.randrange(d + 1), d + 40) if k > 2310 else (0, 1, rng.randrange(d + 1), k, 2 * k)
    for n in lengths:
        coeffs = [rng.randrange(-10**6, 10**6) for _ in range(n)]
        assert cyclo._reduce(k, coeffs) == _long_division(k, coeffs)
    for m in (d, d + 1, d + 17) if k > 2310 else (d, k - 1, k, 2 * k - 1):
        monomial = [0] * m + [1]
        assert cyclo._reduce(k, monomial) == _long_division(k, monomial)


def test_b1_sum_memory_stays_linear_in_the_order():
    """B_{1,chi} of a character of order 1008 allocates under 1 MiB at peak;
    a table of x^m mod Phi_1008 for every m < 1008 alone takes about 2.4 MiB."""
    chi = DirichletChar(1009, (1,))
    cyclo._ctx.cache_clear()
    tracemalloc.start()
    try:
        bernoulli._b1_sum(chi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# numeric oracle: embed into C via mpmath


def _to_complex(a: CycloElt) -> mp.mpc:
    z = mp.exp(2j * mp.pi / a.order)
    return mp.fsum(
        (mp.mpc(c) / a.den * z ** i for i, c in enumerate(a.nums)),
        absolute=False,
    )


def test_arithmetic_matches_complex_embedding():
    mp.mp.dps = 40
    a = CycloElt(12, [1, 6, 0, -3], 3)
    b = CycloElt(12, [0, 5, 7, 7], 7)
    for got, want in [
        (a * b, _to_complex(a) * _to_complex(b)),
        (a + b, _to_complex(a) + _to_complex(b)),
        (a ** 3, _to_complex(a) ** 3),
        (a.embed_into(36), _to_complex(a)),
    ]:
        assert abs(_to_complex(got) - want) < mp.mpf("1e-30")


# ---------------------------------------------------------------------------
# field axioms on random elements


def _elts(order):
    d = phi_degree(order)
    nums = st.lists(st.integers(min_value=-24, max_value=24), min_size=d, max_size=d)
    return st.builds(lambda ns, den: CycloElt(order, ns, den),
                     nums, st.integers(min_value=1, max_value=6))


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([3, 4, 5, 8, 9, 12]))
def test_ring_axioms(data, order):
    a = data.draw(_elts(order))
    b = data.draw(_elts(order))
    c = data.draw(_elts(order))
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == CycloElt.zero(order)
    assert a * CycloElt.one(order) == a


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([3, 4, 5, 8, 12]))
def test_norm_multiplicativity(data, order):
    a = data.draw(_elts(order))
    b = data.draw(_elts(order))
    assert _norm(a * b) == _norm(a) * _norm(b)


@settings(max_examples=40, deadline=None)
@given(st.data(), st.sampled_from([5, 8, 12]))
def test_galois_action_is_ring_morphism(data, order):
    a = data.draw(_elts(order))
    b = data.draw(_elts(order))
    from math import gcd

    for j in range(1, order):
        if gcd(j, order) != 1:
            continue
        assert (a * b).galois_conj(j) == a.galois_conj(j) * b.galois_conj(j)
        assert (a + b).galois_conj(j) == a.galois_conj(j) + b.galois_conj(j)
        assert CycloElt.zeta(order).galois_conj(j) == CycloElt.zeta(order, j)


def test_mixed_order_arithmetic_merges():
    a = CycloElt.zeta(3) + CycloElt.zeta(4)
    assert a.order == 12
    # (z3 + z4)(z3^2 + z4^3) = 1 + z3 z4^3 + z3^2 z4 + 1
    lhs = a * (CycloElt.zeta(3, 2) + CycloElt.zeta(4, 3))
    rhs = (
        CycloElt.rational(2)
        + CycloElt.zeta(12, 4 + 9)
        + CycloElt.zeta(12, 8 + 3)
    )
    assert lhs == rhs
