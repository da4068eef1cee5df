"""Bernoulli numbers, L(0, chi), h_p^- and irregular pairs against oracles."""

import json
import os
from fractions import Fraction

import mpmath as mp
import pytest
import sympy

from lzero import (
    CycloElt,
    DirichletChar,
    bernoulli_number,
    char_eval,
    enumerate_characters,
    induce,
    irregular_pairs,
    is_odd,
    is_primitive,
    l_value_at_zero,
    minus_class_number,
    pow_char,
    set_cache_dir,
)
from lzero.cache import B1Cache
from lzero.errors import ImprimitiveInput
from lzero.nt import primes_upto


# ---------------------------------------------------------------------------
# ordinary Bernoulli numbers


@pytest.mark.parametrize("n", list(range(0, 40)) + [60, 61])
def test_bernoulli_matches_sympy(n):
    want = Fraction(*sympy.bernoulli(n).as_numer_denom())
    if n == 1:
        # this sympy release uses the B_1 = +1/2 convention; we use -1/2
        want = -want
    assert bernoulli_number(n) == want


def test_bernoulli_von_staudt_clausen():
    # denominator of B_2n is the product of primes p with (p-1) | 2n
    for n in (2, 10, 24, 50):
        denom = 1
        for p in primes_upto(n + 2):
            if n % (p - 1) == 0:
                denom *= p
        assert bernoulli_number(n).denominator == denom


# ---------------------------------------------------------------------------
# L(0, chi) anchors and structure


def test_l_value_anchors():
    # quadratic character mod 3: L(0) = 1/3
    r = l_value_at_zero(DirichletChar(3, (1,)))
    assert r.l_at_zero.rational_value() == Fraction(1, 3)
    # quadratic character mod 4: L(0) = 1/2
    r = l_value_at_zero(DirichletChar(4, (1,)))
    assert r.l_at_zero.rational_value() == Fraction(1, 2)
    # order-4 character mod 5 sending 2 -> zeta_4: L(0) = (3 + zeta_4)/5
    r = l_value_at_zero(DirichletChar(5, (1,)))
    assert r.l_at_zero == CycloElt(4, [3, 1], 5)
    # quadratic character mod 7: L(0) = 1 (class number of Q(sqrt(-7)))
    r = l_value_at_zero(DirichletChar(7, (3,)))
    assert r.l_at_zero == CycloElt.one()
    # quadratic character mod 11: L(0) = 1
    r = l_value_at_zero(DirichletChar(11, (5,)))
    assert r.l_at_zero == CycloElt.one()
    # quadratic character mod 23: L(0) = 3
    r = l_value_at_zero(DirichletChar(23, (11,)))
    assert r.l_at_zero == CycloElt.rational(3)


def test_l_value_is_minus_b1():
    for chi in enumerate_characters(7, primitive_only=True, parity="odd"):
        r = l_value_at_zero(chi)
        assert r.l_at_zero == -r.b1chi
        assert r.chi == chi


def test_l_value_rejects_trivial_and_imprimitive():
    with pytest.raises(ValueError):
        l_value_at_zero(DirichletChar(1, ()))
    with pytest.raises(ImprimitiveInput):
        l_value_at_zero(induce(DirichletChar(3, (1,)), 9))


def test_even_character_gives_zero():
    for chi in enumerate_characters(8, primitive_only=True, parity="even"):
        assert l_value_at_zero(chi).l_at_zero.is_zero()


def test_b1_definition_directly():
    # B_{1,chi} = (1/f) sum_{a=1}^{f} a chi(a), summed with exact arithmetic
    for f in (5, 7, 8, 9, 12):
        for chi in enumerate_characters(f, primitive_only=True, parity="odd"):
            acc = CycloElt.zero(chi.value_order)
            for a in range(1, f + 1):
                acc = acc + char_eval(chi, a) * Fraction(a, f)
            assert l_value_at_zero(chi).b1chi == acc


def test_l_value_against_hurwitz_zeta():
    # numeric oracle: L(0, chi) = sum_a chi(a) zeta(0, a/f)
    mp.mp.dps = 30
    for f, exps in [(5, (1,)), (7, (1,)), (9, (1,)), (12, (1, 1))]:
        chi = DirichletChar(f, exps)
        if not is_odd(chi):
            continue
        k = chi.value_order
        z = mp.exp(2j * mp.pi / k)
        exact = l_value_at_zero(chi).l_at_zero.embed_into(k)
        got = mp.fsum(
            mp.mpc(c) / exact.den * z**i for i, c in enumerate(exact.nums)
        )
        # chi(a) embedded at the same root of unity
        from lzero.characters import eval_exponent

        want = mp.fsum(
            z ** eval_exponent(chi, a) * mp.zeta(0, mp.mpf(a) / f)
            for a in range(1, f)
            if eval_exponent(chi, a) is not None
        )
        assert abs(got - want) < mp.mpf("1e-20")


def test_galois_equivariance_of_b1():
    # B_{1, chi^j} is the j-th Galois conjugate of B_{1, chi}
    chi = DirichletChar(11, (1,))  # order 10
    b1 = l_value_at_zero(chi).b1chi
    for j in (3, 7, 9):
        twisted = pow_char(chi, j)
        assert l_value_at_zero(twisted).b1chi == b1.galois_conj(j)


# ---------------------------------------------------------------------------
# relative class numbers


@pytest.mark.parametrize(
    "p,h",
    [(3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (19, 1), (23, 3), (29, 8), (31, 9), (37, 37), (41, 121)],
)
def test_minus_class_number_table(p, h):
    assert minus_class_number(p) == h


def test_minus_class_number_rejects_composite():
    with pytest.raises(ValueError):
        minus_class_number(4)


def test_irregular_pairs_up_to_150():
    assert irregular_pairs(150) == [
        (37, 32),
        (59, 44),
        (67, 58),
        (101, 68),
        (103, 24),
        (131, 22),
        (149, 130),
    ]
    assert irregular_pairs(36) == []


def test_irregular_pairs_against_divisibility_oracle():
    # p is in the list iff p divides a numerator of B_k, k even, k <= p-3
    for p in primes_upto(60):
        if p < 5:
            continue
        pairs = [(q, k) for q, k in irregular_pairs(60) if q == p]
        want = [
            (p, k)
            for k in range(2, p - 2, 2)
            if Fraction(*sympy.bernoulli(k).as_numer_denom()).numerator % p == 0
        ]
        assert pairs == want


# ---------------------------------------------------------------------------
# the on-disk B1 cache


def _compute_some(chis):
    return [l_value_at_zero(c).b1chi for c in chis]


def test_cache_roundtrip(tmp_path):
    chis = enumerate_characters(11, primitive_only=True, parity="odd")
    cold = _compute_some(chis)
    try:
        set_cache_dir(str(tmp_path))
        first = _compute_some(chis)
        files = list(tmp_path.iterdir())
        assert files, "cache directory should gain a file"
        size = files[0].stat().st_size
        second = _compute_some(chis)
        assert files[0].stat().st_size == size, "warm rerun must not grow the cache"
        assert first == second == cold
        # re-attach to force a read from disk
        set_cache_dir(None)
        set_cache_dir(str(tmp_path))
        third = _compute_some(chis)
        assert third == cold
        assert files[0].stat().st_size == size
    finally:
        set_cache_dir(None)


def test_cache_line_with_a_malformed_coordinate_is_recomputed(tmp_path):
    chi = DirichletChar(5, (1,))
    want = l_value_at_zero(chi).b1chi
    (tmp_path / "b1chi.jsonl").write_text(
        '{"b1": ["1/0", "0/1"], "chi": [1], "f": 5, "k": 4}\n', encoding="ascii")
    try:
        set_cache_dir(str(tmp_path))
        assert l_value_at_zero(chi).b1chi == want
    finally:
        set_cache_dir(None)


def _lines(path):
    return path.read_text(encoding="ascii").splitlines()


def test_cache_line_with_a_wrong_checksum_is_a_reject(tmp_path):
    chi = DirichletChar(7, (1,))
    want = l_value_at_zero(chi).b1chi
    B1Cache(str(tmp_path)).put(7, (1,), want)
    (line,) = _lines(tmp_path / "b1chi.jsonl")
    rec = json.loads(line)
    assert rec["format"] == 2 and len(rec["crc32"]) == 8
    b1 = '"b1":' + json.dumps(rec["b1"], separators=(",", ":"))
    assert b1 in line
    # a plausible value, no longer the one checksummed
    (tmp_path / "b1chi.jsonl").write_text(line.replace(b1, '"b1":["5/1","0/1"]') + "\n",
                                          encoding="ascii")
    cache = B1Cache(str(tmp_path))
    assert cache.rejects == 1 and cache.get(7, (1,)) is None
    try:
        set_cache_dir(str(tmp_path))
        assert l_value_at_zero(chi).b1chi == want
    finally:
        set_cache_dir(None)
    # recomputed and appended again: the next load holds the true value,
    # and still counts the damaged line
    cache = B1Cache(str(tmp_path))
    assert cache.rejects == 1 and cache.get(7, (1,)) == want
    assert len(_lines(tmp_path / "b1chi.jsonl")) == 2


def test_cache_counts_cut_and_foreign_lines_as_rejects(tmp_path):
    good = B1Cache(str(tmp_path))
    for chi in enumerate_characters(11, primitive_only=True, parity="odd"):
        good.put(chi.modulus, chi.exponents, l_value_at_zero(chi).b1chi)
    path = tmp_path / "b1chi.jsonl"
    lines = _lines(path)
    path.write_text("\n".join([*lines[1:], "not json", "", "[1, 2]", lines[0][:-5]]),
                    encoding="ascii")
    cache = B1Cache(str(tmp_path))
    assert cache.rejects == 3
    assert len(cache._mem) == len(lines) - 1


def test_cache_appends_through_one_handle_per_process(tmp_path):
    chis = enumerate_characters(13, primitive_only=True, parity="odd")
    cache = B1Cache(str(tmp_path))
    cache.put(chis[0].modulus, chis[0].exponents, l_value_at_zero(chis[0]).b1chi)
    handle = cache._out
    cache.put(chis[1].modulus, chis[1].exponents, l_value_at_zero(chis[1]).b1chi)
    assert cache._out is handle
    pid = os.fork()
    if pid == 0:  # a forked worker writes through a handle of its own
        code = 1
        try:
            cache.put(chis[2].modulus, chis[2].exponents, l_value_at_zero(chis[2]).b1chi)
            code = 0 if cache._out is not handle else 1
        finally:
            os._exit(code)
    assert os.waitpid(pid, 0)[1] == 0
    cache.put(chis[3].modulus, chis[3].exponents, l_value_at_zero(chis[3]).b1chi)
    assert cache._out is handle
    cache.close()
    assert handle.closed
    reread = B1Cache(str(tmp_path))
    assert reread.rejects == 0
    assert {reread.get(c.modulus, c.exponents) is not None for c in chis[:4]} == {True}
    assert len(_lines(tmp_path / "b1chi.jsonl")) == 4
