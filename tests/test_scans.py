"""The verification scans: classification, pole depths, congruences, bounds."""

from fractions import Fraction

import pytest

from lzero import (
    DirichletChar,
    NoOrderPCharacter,
    char_eval,
    deligne_ribet_check,
    deligne_ribet_scan,
    integrality_verdict,
    is_odd,
    is_primitive,
    kummer_check,
    kummer_scan,
    l_value_at_zero,
    minus_class_number,
    mul_chars,
    nonintegral_locus_scan,
    odd_product_identity_check,
    omega_char,
    omega_inverse_char,
    pole_depth_check,
    pow_char,
    primitivize,
    residue_congruence_scan,
    root_of_unity_order,
    straightened_character,
    twisted_pair_witness,
)
from lzero import padic, scans
from lzero.nt import euler_phi
from lzero.scans import expected_pole_depth


# ---------------------------------------------------------------------------
# omega


def test_omega_char_is_order_p_minus_1():
    for p in (3, 5, 7, 11, 13):
        w = omega_char(p)
        assert w.modulus == p
        assert w.value_order == p - 1
        inv = omega_inverse_char(p)
        assert mul_chars(w, inv).exponents == (0,)
        assert is_odd(inv)


# ---------------------------------------------------------------------------
# single verdicts


def test_verdict_nonintegral_iff_prime_power_omega_inverse():
    # quadratic character mod 3 = omega^{-1} at p = 3: the only pole mod 3
    r = integrality_verdict(DirichletChar(3, (1,)), 3)
    assert r.omega_inverse
    assert r.valuation == -1
    assert not r.global_integral  # 1/3 is not an algebraic integer
    assert r.classification_consistent
    # same character at p = 5: L(0) = 1/3 is a 5-adic unit
    r = integrality_verdict(DirichletChar(3, (1,)), 5)
    assert r.valuation == 0
    assert not r.omega_inverse
    # order-4 character mod 5 at p = 5: v = 0 (it is omega, not omega^{-1})
    r = integrality_verdict(DirichletChar(5, (1,)), 5)
    assert r.valuation == 0
    assert not r.omega_inverse
    # quadratic character mod 7 at p = 7: L(0) = 1, globally integral
    r = integrality_verdict(DirichletChar(7, (3,)), 7)
    assert r.global_integral and r.valuation == 0


def test_verdict_requires_odd_primitive():
    from lzero import induce

    with pytest.raises(ValueError):
        integrality_verdict(DirichletChar(5, (2,)), 5)  # even
    with pytest.raises(Exception):
        integrality_verdict(induce(DirichletChar(3, (1,)), 9), 5)


def test_verdict_record_shape():
    r = integrality_verdict(DirichletChar(7, (1,)), 7)
    assert r.modulus == 7 and r.exponents == (1,)
    assert set(r.tower) >= {"p", "k", "precision", "f_res", "e_ram"}
    assert isinstance(r.valuation, Fraction)


# ---------------------------------------------------------------------------
# the classification scan


def test_locus_scan_small():
    recs = nonintegral_locus_scan(4, 3)
    bad = [r for r in recs if r.valuation < 0]
    assert len(bad) == 1
    assert (bad[0].modulus, bad[0].exponents) == (3, (1,))


def test_locus_scan_counts():
    recs = nonintegral_locus_scan(10, 7)
    bad = [r for r in recs if r.valuation < 0]
    # one pole of conductor p for each p in {3, 5, 7}, plus phi(3) = 2
    # second-level poles at conductor 9 for p = 3
    assert sorted((r.p, r.modulus) for r in bad) == [
        (3, 3), (3, 9), (3, 9), (5, 5), (7, 7),
    ]
    for r in bad:
        assert r.omega_inverse
        assert r.valuation == (-1 if r.modulus == r.p else Fraction(-1, 2))


def test_locus_scan_includes_wild_levels():
    recs = nonintegral_locus_scan(9, 3)
    bad = [(r.modulus, r.exponents) for r in recs if r.valuation < 0]
    # conductor 3: the unique pole of depth 1; conductor 9: phi(3) = 2
    # characters restricting to omega^{-1}
    assert len([m for m, _ in bad if m == 3]) == 1
    assert len([m for m, _ in bad if m == 9]) == 2


def test_locus_scan_depths_match_expected():
    recs = nonintegral_locus_scan(27, 3)
    for r in recs:
        if r.valuation >= 0:
            continue
        d = 0
        m = r.modulus
        while m % 3 == 0:
            m //= 3
            d += 1
        assert r.valuation == expected_pole_depth(3, d)


def test_expected_pole_depth_values():
    assert expected_pole_depth(3, 1) == -1
    assert expected_pole_depth(3, 2) == Fraction(-1, 2)
    assert expected_pole_depth(3, 3) == Fraction(-1, 6)
    assert expected_pole_depth(5, 2) == Fraction(-1, 4)
    assert expected_pole_depth(7, 3) == Fraction(-1, 42)


def test_jobs_do_not_change_results():
    a = nonintegral_locus_scan(12, 5, jobs=1)
    b = nonintegral_locus_scan(12, 5, jobs=3)
    assert a == b


def test_question2_probes_are_nonnegative_only():
    recs = nonintegral_locus_scan(40, 13)
    for r in recs:
        if r.question2_zero is not None:
            assert r.omega_inverse
            assert r.valuation >= 0
            assert r.question2_zero == (r.valuation > 0)


# ---------------------------------------------------------------------------
# pole depths in towers


def test_pole_depth_tower_3():
    rows = pole_depth_check(3, 3)
    by_r = {}
    for row in rows:
        d = 0
        m = row.modulus
        while m % 3 == 0:
            m //= 3
            d += 1
        by_r.setdefault(d, []).append(row)
    assert len(by_r[1]) == 1 and by_r[1][0].computed == -1
    assert len(by_r[2]) == 2 and all(r.computed == Fraction(-1, 2) for r in by_r[2])
    assert len(by_r[3]) == 6 and all(r.computed == Fraction(-1, 6) for r in by_r[3])
    assert all(r.equal for r in rows)


def test_pole_depth_tower_5():
    rows = pole_depth_check(5, 2)
    assert sum(1 for r in rows if r.modulus == 5) == 1
    assert sum(1 for r in rows if r.modulus == 25) == euler_phi(5)
    assert all(r.equal and r.computed == r.expected for r in rows)


# ---------------------------------------------------------------------------
# Kummer congruences


def test_kummer_rows_p5():
    rows = kummer_check(5)
    assert [(r.n, r.lhs, r.rhs) for r in rows] == [(1, 3, 3)]
    assert all(r.equal for r in rows)


def test_kummer_rows_p7():
    rows = kummer_check(7)
    assert [(r.n, r.lhs, r.rhs) for r in rows] == [(1, 3, 3), (3, 6, 6)]


def test_kummer_empty_for_p3():
    assert kummer_check(3) == []


def test_kummer_scan_runs_clean():
    rows = kummer_scan(37)
    assert all(r.equal for r in rows)
    # each odd prime p contributes (p-3)/2 rows (n odd, 1 <= n <= p-4)
    from lzero.nt import primes_upto

    want = sum((p - 3) // 2 for p in primes_upto(37) if p > 2)
    assert len(rows) == want


def test_kummer_rhs_is_bernoulli_quotient():
    import sympy

    for row in kummer_check(13):
        b = sympy.Rational(sympy.bernoulli(row.n + 1))
        num, den = int(b.p), int(b.q)
        want = num * pow(den * (row.n + 1), -1, 13) % 13
        assert row.rhs == want


# ---------------------------------------------------------------------------
# Deligne-Ribet bound


def test_root_of_unity_order_anchors():
    assert root_of_unity_order(DirichletChar(3, (1,))) == 6
    assert root_of_unity_order(DirichletChar(4, (1,))) == 4
    assert root_of_unity_order(DirichletChar(5, (1,))) == 10
    assert root_of_unity_order(DirichletChar(7, (1,))) == 14
    assert root_of_unity_order(DirichletChar(9, (1,))) == 18
    # the odd quadratic character mod 8 cuts out Q(sqrt(-2)): only +-1
    assert root_of_unity_order(DirichletChar(8, (1, 1))) == 2
    # quadratic mod 7 cuts out Q(sqrt(-7)): only +-1
    assert root_of_unity_order(DirichletChar(7, (3,))) == 2


def test_root_of_unity_order_brute_force():
    # The roots of unity of Q(zeta_f) form mu_N, N = lcm(2, f), and sigma_a
    # acts on them through the odd lift of a mod N.  zeta_n is in the fixed
    # field of ker(chi) iff every kernel element lifts to 1 mod n.
    from math import gcd

    for f, exps in [(5, (1,)), (7, (2,)), (8, (1, 1)), (9, (1,)), (15, (1, 1)), (13, (2,))]:
        chi = DirichletChar(f, exps)
        n_amb = f if f % 2 == 0 else 2 * f
        kernel = [
            a
            for a in range(1, f)
            if gcd(a, f) == 1 and char_eval(chi, a).rational_value() == 1
        ]
        lifts = [a if f % 2 == 0 or a % 2 == 1 else a + f for a in kernel]
        best = max(
            n
            for n in range(1, n_amb + 1)
            if n_amb % n == 0 and all(t % n == 1 % n for t in lifts)
        )
        assert root_of_unity_order(chi) == best


def test_deligne_ribet_anchors():
    r = deligne_ribet_check(DirichletChar(3, (1,)))
    assert r.w == 6 and r.integral
    # w * L(0) = 6 * (1/3) = 2 is integral
    r = deligne_ribet_check(DirichletChar(5, (1,)))
    assert r.w == 10 and r.integral
    # (3 + zeta_4) * 2 integral


def test_deligne_ribet_scan_all_integral():
    for r in deligne_ribet_scan(20):
        assert r.integral
        lv = l_value_at_zero(DirichletChar(r.modulus, r.exponents)).l_at_zero
        assert (lv * r.w).is_algebraic_integer()


# ---------------------------------------------------------------------------
# the minus class number product


def _vp(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@pytest.mark.parametrize("p", [3, 5, 7, 23, 31, 37])
def test_product_identity(p):
    rep = odd_product_identity_check(p)
    assert rep.h_minus == minus_class_number(p)
    assert rep.unique_pole
    assert rep.product_identity
    vals = [v for _, v in rep.factors]
    assert sum(vals) + 1 == _vp(rep.h_minus, p)
    # exactly one factor has a pole, of depth -1
    assert sorted(v for v in vals if v < 0) == [-1]


def test_product_identity_regular_prime_all_units():
    rep = odd_product_identity_check(11)
    assert all(v == 0 for _, v in rep.factors if v >= 0)
    assert _vp(rep.h_minus, 11) == 0


def test_product_identity_sees_irregular_zero():
    # at p = 37 the factor for omega^31 vanishes mod p (irregular index),
    # balancing the omega^{-1} pole: sum of valuations = 0 and 37 | h.
    rep = odd_product_identity_check(37)
    assert any(v > 0 for _, v in rep.factors)
    assert _vp(rep.h_minus, 37) == 1


# ---------------------------------------------------------------------------
# straightened characters and residue congruences


def test_straightened_character_strips_wild_part():
    chi = DirichletChar(9, (1,))
    psi = straightened_character(chi, 3)
    assert psi.modulus == 3  # the tame part survives
    chi2 = DirichletChar(5, (1,))
    assert straightened_character(chi2, 7) == chi2  # no wild part, untouched


def test_congruence_scan_no_anomalies():
    rep = residue_congruence_scan(33, 5)
    assert all(pair.equal for pair in rep.pairs)
    assert rep.n_classes > 0


def test_congruence_scan_quad3_pair_present():
    rep = residue_congruence_scan(33, 5)
    hits = [
        pr
        for pr in rep.pairs
        if {pr.modulus1, pr.modulus2} == {3, 33}
    ]
    assert hits, "the conductor 3 / 33 congruent pair should be compared"
    assert all(pr.equal for pr in hits)
    assert all(pr.residue1 == pr.residue2 for pr in hits)


def test_congruence_scan_embeds_each_value_once(monkeypatch):
    # every embed reads the tower's power table once; the residue of a
    # value must reuse the image its valuation was judged on
    calls = {"embeds": 0, "values": 0}
    table, ladder = padic.PadicTower.zeta_power_columns, scans.cyclo_valuation

    def counting_table(tower, step):
        calls["embeds"] += 1
        return table(tower, step)

    def counting_ladder(*args, **kwargs):
        calls["values"] += 1
        return ladder(*args, **kwargs)

    monkeypatch.setattr(padic.PadicTower, "zeta_power_columns", counting_table)
    monkeypatch.setattr(scans, "cyclo_valuation", counting_ladder)
    rep = residue_congruence_scan(33, 5)
    assert calls["values"] == 2 * len(rep.pairs) > 0
    assert calls["embeds"] == calls["values"]


def test_congruence_scan_excludes_omega_inverse_class():
    rep = residue_congruence_scan(20, 5)
    for pr in rep.pairs:
        psi = DirichletChar(pr.class_modulus, pr.class_exponents)
        assert not (
            psi.modulus == 5
            and pow_char(psi, 1) == omega_inverse_char(5)
        )
    assert rep.n_excluded >= 1


# ---------------------------------------------------------------------------
# twisted pair witnesses


def test_twisted_pair_witness_3_7():
    untw, tw = twisted_pair_witness(3, 7)
    assert untw.valuation == -1 and not untw.global_integral
    assert tw.valuation >= 0 and tw.global_integral
    assert tw.modulus == 21


def test_twisted_pair_witness_5_11():
    untw, tw = twisted_pair_witness(5, 11)
    assert untw.valuation == -1
    assert tw.global_integral
    assert tw.modulus == 55


def test_twisted_pair_needs_order_p_character():
    with pytest.raises(NoOrderPCharacter):
        twisted_pair_witness(5, 7)  # 5 does not divide 7 - 1
