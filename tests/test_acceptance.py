"""Acceptance gate: one test per criterion, each printing one PASS/FAIL line.

Run with ``pytest -v tests/test_acceptance.py``.  Every check here is exact
unless the criterion itself calls for a floating-point cross-check.
"""

import random
import time
from fractions import Fraction
from math import gcd

import mpmath as mp
import pytest

from lzero import (
    ABOVE_PRECISION,
    CycloElt,
    DirichletChar,
    build_tower,
    cyclo_valuation,
    deligne_ribet_scan,
    embed_padic,
    integrality_verdict,
    irregular_pairs,
    kummer_scan,
    l_value_at_zero,
    minus_class_number,
    nonintegral_locus_scan,
    odd_product_identity_check,
    padic_valuation,
    pow_char,
    primitive_odd_characters,
    residue_congruence_scan,
    twisted_pair_witness,
)
from lzero.nt import euler_phi, primes_upto, valuation as int_valuation


# ---------------------------------------------------------------------------
# shared scan for criteria 2 and 3


@pytest.fixture(scope="module")
def prop1_scan():
    t0 = time.monotonic()
    records = nonintegral_locus_scan(60, 37)
    elapsed = time.monotonic() - t0
    return records, elapsed


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_lvalue_spot_checks():
    t0 = time.monotonic()
    assert l_value_at_zero(DirichletChar(3, (1,))).l_at_zero.rational_value() == Fraction(1, 3)
    assert l_value_at_zero(DirichletChar(4, (1,))).l_at_zero.rational_value() == Fraction(1, 2)
    assert l_value_at_zero(DirichletChar(7, (3,))).l_at_zero == CycloElt.one()
    assert l_value_at_zero(DirichletChar(5, (1,))).l_at_zero == (
        CycloElt.rational(3) + CycloElt.zeta(4)
    ) * Fraction(1, 5)
    assert time.monotonic() - t0 < 1.0


def test_criterion_02_classification_scan(prop1_scan):
    records, elapsed = prop1_scan
    assert elapsed < 300.0
    # every record is consistent with: v < 0 iff conductor = p^d and
    # chi-bar = omega^{-1} (the scan itself raises on any violation, but
    # re-assert record by record)
    for r in records:
        is_ppow = r.modulus == r.p ** int_valuation(r.modulus, r.p) and r.modulus > 1
        assert r.classification_consistent
        assert (r.valuation < 0) == (is_ppow and r.omega_inverse)
    # per-level counts: 1 at d = 1 and phi(p^{d-1}) at d >= 2
    counts: dict = {}
    for r in records:
        if r.valuation < 0:
            d = int_valuation(r.modulus, r.p)
            counts[(r.p, d)] = counts.get((r.p, d), 0) + 1
    for (p, d), n in counts.items():
        assert n == (1 if d == 1 else euler_phi(p ** (d - 1)))
    # every in-range (p, d) level is present
    for p in primes_upto(37):
        if p == 2:
            continue
        d = 1
        while p**d <= 60:
            assert (p, d) in counts
            d += 1


def test_criterion_03_pole_orders(prop1_scan):
    records, _ = prop1_scan
    poles = [r for r in records if r.valuation < 0]
    assert poles
    for r in poles:
        d = int_valuation(r.modulus, r.p)
        want = Fraction(-1) if d == 1 else Fraction(-1, euler_phi(r.p ** (d - 1)))
        assert r.valuation == want


def test_criterion_04_kummer_congruences():
    t0 = time.monotonic()
    rows = kummer_scan(100)
    assert time.monotonic() - t0 < 120.0
    assert rows
    assert all(r.equal for r in rows)
    want = sum((p - 3) // 2 for p in primes_upto(100) if p > 2)
    assert len(rows) == want


def _hminus_float_oracle(p: int) -> float:
    """h^- from the product formula, on an arithmetic path that shares
    nothing with the package: brute-force index tables and mpmath sums."""
    mp.mp.dps = 60
    g = next(
        g
        for g in range(2, p)
        if len({pow(g, i, p) for i in range(p - 1)}) == p - 1
    )
    index = {pow(g, i, p): i for i in range(p - 1)}
    prod = mp.mpc(1)
    for j in range(1, p - 1, 2):  # odd characters chi_j(g^i) = e^(2 pi i j i / (p-1))
        lval = sum(
            mp.expjpi(mp.mpf(2 * j * index[a]) / (p - 1)) * mp.zeta(0, mp.mpf(a) / p)
            for a in range(1, p)
        )
        prod *= lval
    val = p * mp.mpf(2) ** (-((p - 3) // 2)) * prod
    assert abs(mp.im(val)) < mp.mpf("1e-10")
    return float(mp.re(val))


def test_criterion_05_minus_class_numbers():
    t0 = time.monotonic()
    table = {3: 1, 5: 1, 23: 3, 29: 8, 37: 37}
    for p, h in table.items():
        assert minus_class_number(p) == h
        oracle = _hminus_float_oracle(p)
        assert abs(oracle - h) < 0.5
    assert time.monotonic() - t0 < 120.0


def test_criterion_06_unique_simple_pole():
    for p in primes_upto(31):
        if p == 2:
            continue
        rep = odd_product_identity_check(p)
        assert rep.unique_pole
        vals = [v for _, v in rep.factors]
        assert sum(1 for v in vals if v == -1) == 1
        assert all(v >= 0 for v in vals if v != -1)


def test_criterion_07_deligne_ribet_bound():
    t0 = time.monotonic()
    records = deligne_ribet_scan(60)
    assert time.monotonic() - t0 < 180.0
    assert len(records) == len(primitive_odd_characters(60))
    assert all(r.integral for r in records)


def test_criterion_08_irregular_pairs():
    t0 = time.monotonic()
    assert irregular_pairs(150) == [
        (37, 32),
        (59, 44),
        (67, 58),
        (101, 68),
        (103, 24),
        (131, 22),
        (149, 130),
    ]
    assert time.monotonic() - t0 < 60.0


def test_criterion_09_twisted_witnesses():
    for p, q in [(3, 7), (5, 11)]:
        untwisted, twisted = twisted_pair_witness(p, q)
        assert untwisted.valuation == -1
        assert twisted.valuation >= 0
        assert twisted.modulus == p * q


def _gauss_val_oracle(x: int, y: int) -> int:
    """Valuation of x + y*i at the Gaussian prime 2 - i, by exact division."""
    v = 0
    while x or y:
        nx, ny = 2 * x - y, x + 2 * y  # (x + yi)(2 + i)
        if nx % 5 or ny % 5:
            return v
        x, y = nx // 5, ny // 5
        v += 1
    raise AssertionError("zero has no finite valuation")


def _mat_sum(x, y):
    """The matrix of x + y for two images with shift 0."""
    pN = x.tower.modulus
    assert x.shift == y.shift == 0
    return tuple(tuple((a + b) % pN for a, b in zip(ra, rb))
                 for ra, rb in zip(x.mat, y.mat))


def test_criterion_10_property_suites():
    rng = random.Random(0x1CEB00DA)

    # (a) ring-morphism and ultrametric laws, 200 elements per tower
    for p, k in [(5, 4), (3, 9), (7, 4), (5, 20)]:
        tower = build_tower(p, k)
        d = len(CycloElt.zero(k).nums)
        elts = [
            CycloElt(k, [rng.randrange(-30, 31) for _ in range(d)])
            for _ in range(200)
        ]
        images = [embed_padic(z, tower) for z in elts]
        for i in range(0, 200, 2):
            a, b = elts[i], elts[i + 1]
            fa, fb = images[i], images[i + 1]
            fs = embed_padic(a + b, tower)
            assert (fs.shift, fs.mat) == (0, _mat_sum(fa, fb))
            fp = embed_padic(a * b, tower)
            assert (fp.shift, fp.mat) == (0, (fa * fb).mat)
            va, vb = padic_valuation(fa), padic_valuation(fb)
            if va is ABOVE_PRECISION or vb is ABOVE_PRECISION:
                continue
            vs = padic_valuation(fs)
            if vs is not ABOVE_PRECISION:
                assert vs >= min(va, vb)
                if va != vb:
                    assert vs == min(va, vb)
            vp = padic_valuation(fa * fb)
            if vp is not ABOVE_PRECISION:
                assert vp == va + vb
        one = [[0] * tower.f_res for _ in range(tower.e_ram)]
        one[0][0] = 1
        assert embed_padic(CycloElt.one(k), tower).mat == tuple(map(tuple, one))

    # (b) Gaussian-integer valuation oracle at k = 4, p = 5
    checked_positive = 0
    for _ in range(120):
        x = rng.randrange(-40, 41)
        y = rng.randrange(-40, 41)
        if x == 0 and y == 0:
            continue
        t = rng.randrange(0, 3)
        for _ in range(t):  # multiply by (2 - i)^t to salt in valuation
            x, y = 2 * x + y, -x + 2 * y
        z = CycloElt.rational(x) + CycloElt.zeta(4) * y
        want = _gauss_val_oracle(x, y)
        assert cyclo_valuation(z, 5)[0] == want
        checked_positive += want > 0
    assert checked_positive > 10

    # (c) Galois equivariance of B_{1,chi} up to conductor 40
    for chi in primitive_odd_characters(40):
        k = chi.value_order
        b1 = l_value_at_zero(chi).b1chi
        for j in range(2, k):
            if gcd(j, k) != 1:
                continue
            assert l_value_at_zero(pow_char(chi, j)).b1chi == b1.galois_conj(j)

    # (d) scan determinism: jobs and doubled precision
    assert nonintegral_locus_scan(20, 7, jobs=1) == nonintegral_locus_scan(
        20, 7, jobs=4
    )
    for chi in primitive_odd_characters(12):
        for p in (3, 5, 7):
            lo = integrality_verdict(chi, p, n_start=16)
            hi = integrality_verdict(chi, p, n_start=32)
            assert (lo.valuation, lo.global_integral, lo.omega_inverse) == (
                hi.valuation,
                hi.global_integral,
                hi.omega_inverse,
            )
            assert lo.classification_consistent and hi.classification_consistent
            assert lo.question2_zero == hi.question2_zero


def test_note_conjecture_scans_report_clean(prop1_scan):
    # congruence evidence: zero anomalies for f <= 60 and p <= 13
    for p in (3, 5, 7, 11, 13):
        rep = residue_congruence_scan(60, p)
        assert all(pair.equal for pair in rep.pairs), f"anomaly at p={p}"
        assert rep.pairs, f"no pairs compared at p={p}"
    # the Question 2 probe must complete and classify every probed case
    records, _ = prop1_scan
    probes = [r for r in records if r.question2_zero is not None]
    assert probes, "expected omega-inverse-congruent composite-conductor cases"
    for r in probes:
        assert r.valuation >= 0
        assert r.question2_zero == (r.valuation > 0)
