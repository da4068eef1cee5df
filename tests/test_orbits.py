"""Galois orbits as the unit of work, against per-character references.

The classification scan and the root-of-unity bound scan take one Galois
orbit of characters at a time: B_{1,chi} is summed once per orbit, the
classification scan conjugates it and at each p embeds one value per coset
of the decomposition group, and the bound scan checks every member against
the one value, whose denominator is a Galois invariant.  Each test here
rebuilds the same answer one character at a time (integrality_verdict,
deligne_ribet_check, l_value_at_zero) and compares.  The classification
scan judges the orbits of one value order k together, since the towers
(p, k, N) serve them alone; the tests at the end check that grouping, that
each record holds the tower it was judged in, and that a scan embeds only
where a value fell through to the precision ladder.
"""

import json
import multiprocessing
from fractions import Fraction
from math import gcd

import pytest

from lzero import (
    N_START,
    build_tower,
    cyclo_valuation,
    deligne_ribet_check,
    deligne_ribet_scan,
    enumerate_characters,
    galois_orbits,
    integrality_verdict,
    is_odd,
    is_primitive,
    l_value_at_zero,
    nonintegral_locus_scan,
    orbit_l_values,
    pow_char,
    primitive_odd_characters,
    set_cache_dir,
)
from lzero import bernoulli, padic, scans
from lzero.bernoulli import b1_cache
from lzero.cli import main
from lzero.cyclo import CycloElt
from lzero.nt import euler_phi, multiplicative_order, primes_upto, valuation

# the wild cases (p^2 | f) of tests/test_galois_norm.py
WILD = [(3, 27), (3, 63), (5, 25), (5, 75), (5, 100), (7, 49), (3, 81)]


@pytest.fixture
def fresh_cache():
    set_cache_dir(None)
    yield b1_cache()
    set_cache_dir(None)


def test_orbits_partition_the_primitive_odd_characters():
    orbits = galois_orbits(60)
    members = [chi.key() for orbit in orbits for _, chi in orbit]
    assert len(members) == len(set(members))
    assert sorted(members) == sorted(c.key() for c in primitive_odd_characters(60))
    for orbit in orbits:
        j0, rep = orbit[0]
        k = rep.value_order
        assert j0 == 1
        assert [j for j, _ in orbit] == [j for j in range(1, k) if gcd(j, k) == 1]
        for j, chi in orbit:
            assert chi == pow_char(rep, j)
            assert chi.modulus == rep.modulus and chi.value_order == k
            assert is_odd(chi) and is_primitive(chi)


def _per_character_scan(f_max, p_max):
    primes = [p for p in primes_upto(p_max) if p > 2]
    return [integrality_verdict(chi, p) for p in primes for chi in primitive_odd_characters(f_max)]


@pytest.mark.parametrize("jobs", [1, 2])
def test_orbit_scan_equals_per_character_reference(jobs):
    # the golden prop1 parameters
    assert nonintegral_locus_scan(20, 11, jobs=jobs) == _per_character_scan(20, 11)


@pytest.mark.parametrize("p,f", WILD, ids=str)
def test_orbit_verdicts_equal_per_character_reference_in_wild_towers(p, f):
    orbits = [orbit for orbit in galois_orbits(f) if orbit[0][1].modulus == f]
    got = scans._orbit_verdicts(orbits, [p], N_START)
    want = [integrality_verdict(chi, p) for orbit in orbits for _, chi in orbit]
    assert got == want


def test_orbit_verdicts_draw_l_values_one_at_a_time(monkeypatch):
    # an orbit's first value is judged before its second is drawn, so the
    # walk never holds an orbit's values whole (at p = 2459 one orbit holds
    # 1228 values of 1228 coordinates)
    events = []
    l_values, valuation_of = scans.orbit_l_values, scans.cyclo_valuation

    def recording_l_values(orbit):
        for rec in l_values(orbit):
            events.append(("value", rec.chi))
            yield rec

    def recording_valuation(z, p, n_start=N_START):
        events.append(("valuation", p))
        return valuation_of(z, p, n_start)

    monkeypatch.setattr(scans, "orbit_l_values", recording_l_values)
    monkeypatch.setattr(scans, "cyclo_valuation", recording_valuation)
    orbit = next(o for o in galois_orbits(40) if o[0][1].modulus == 37)
    scans._orbit_verdicts([orbit], [3, 5], N_START)
    assert events[:3] == [("value", orbit[0][1]), ("valuation", 3), ("valuation", 5)]
    assert [chi for kind, chi in events if kind == "value"] == [chi for _, chi in orbit]


def _primes_above_p(p, k):
    """phi(k') / ord_{k'}(p): the number of primes above p in Q(zeta_k')."""
    k1 = k // p ** valuation(k, p)
    return euler_phi(k1) // multiplicative_order(p, k1) if k1 > 1 else 1


@pytest.mark.parametrize("f_max,ps", [(40, [3, 5, 7, 11, 13]), (100, [3, 5, 7])])
def test_one_valuation_per_prime_above_p(monkeypatch, f_max, ps):
    # one valuation per coset; of those, the ladder runs for exactly the
    # values the residue field cannot judge: p | den, or a zero residue
    calls, ladders = [], []
    valuation_of, ladder = scans.cyclo_valuation, padic._ladder

    def counting_valuation(z, p, n_start=N_START):
        v, tower = valuation_of(z, p, n_start)
        calls.append((z, p, v))
        return v, tower

    monkeypatch.setattr(scans, "cyclo_valuation", counting_valuation)
    monkeypatch.setattr(padic, "_ladder", lambda *args: ladders.append(args) or ladder(*args))
    undecided = 0
    for orbit in galois_orbits(f_max):
        k = orbit[0][1].value_order
        for p in ps:
            calls.clear()
            ladders.clear()
            scans._orbit_verdicts([orbit], [p], N_START)
            assert len(calls) == _primes_above_p(p, k), (orbit[0][1], p)
            want = [(z, p, N_START) for z, _p, v in calls if z.den % p == 0 or v != 0]
            assert ladders == want, (orbit[0][1], p)
            undecided += len(want)
    assert undecided


def test_decomposition_cosets_are_the_cosets_of_p():
    for p in (3, 5, 7, 11):
        for k in (2, 4, 6, 12, 18, 20, 36, 60, 100):
            js = [j for j in range(1, k) if gcd(j, k) == 1]
            labels = scans._decomposition_cosets(p, k, js)
            k1 = k // p ** valuation(k, p)
            for a, la in zip(js, labels):
                for b, lb in zip(js, labels):
                    # same coset iff b / a mod k' is a power of p
                    ratio = b * pow(a, -1, k1) % k1 if k1 > 1 else 0
                    in_d = any(pow(p, i, k1) == ratio for i in range(k1)) if k1 > 1 else True
                    assert (la == lb) == in_d, (p, k, a, b)
            assert len(set(labels)) == _primes_above_p(p, k)


def test_deligne_ribet_scan_equals_per_character_checks():
    chars = primitive_odd_characters(60)
    assert deligne_ribet_scan(60) == [deligne_ribet_check(chi) for chi in chars]


def test_conjugates_share_the_denominator_and_are_nonzero():
    # what the bound scan relies on to check every member against one value
    for orbit in galois_orbits(60):
        lv = l_value_at_zero(orbit[0][1]).l_at_zero
        for j, chi in orbit:
            conj = lv.galois_conj(j)
            assert conj.den == lv.den, (chi, j)
            assert not conj.is_zero(), (chi, j)
            assert bernoulli._b1_sum(chi).den == lv.den, (chi, j)


def test_deligne_ribet_scan_reads_one_value_per_orbit(monkeypatch, fresh_cache):
    orbits = galois_orbits(60)
    held = orbits[::3]  # orbits whose representative the cache already holds
    for orbit in held:
        l_value_at_zero(orbit[0][1])

    def forbidden(*args):
        raise AssertionError("the bound scan conjugates nothing")

    monkeypatch.setattr(CycloElt, "galois_conj", forbidden)
    monkeypatch.setattr(bernoulli, "orbit_l_values", forbidden)
    monkeypatch.setattr(scans, "orbit_l_values", forbidden)
    sums = []
    b1_sum = bernoulli._b1_sum
    monkeypatch.setattr(bernoulli, "_b1_sum", lambda chi: sums.append(chi.key()) or b1_sum(chi))
    rows = deligne_ribet_scan(60)
    assert len(rows) == sum(map(len, orbits))
    assert sums == [orbit[0][1].key() for orbit in orbits if orbit not in held]
    assert fresh_cache._mem.keys() == {orbit[0][1].key() for orbit in orbits}


def test_deligne_ribet_cli_caches_one_line_per_orbit(monkeypatch, capsys, tmp_path):
    argv = ["deligne-ribet", "--fmax", "60", "--cache-dir", str(tmp_path)]
    try:
        assert main(argv) == 0
        first = capsys.readouterr().out
        lines = (tmp_path / "b1chi.jsonl").read_text().splitlines()
        assert len(lines) == len(galois_orbits(60))
        monkeypatch.setattr(bernoulli, "_b1_sum", lambda chi: pytest.fail(f"summed {chi}"))
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert (tmp_path / "b1chi.jsonl").read_text().splitlines() == lines
    finally:
        set_cache_dir(None)


def test_orbit_l_values_sum_once_per_orbit(monkeypatch, fresh_cache):
    orbits = galois_orbits(45)
    sums = []
    b1_sum = bernoulli._b1_sum

    def counting_sum(chi):
        sums.append(chi.key())
        return b1_sum(chi)

    monkeypatch.setattr(bernoulli, "_b1_sum", counting_sum)
    got = {rec.chi.key(): rec for orbit in orbits for rec in orbit_l_values(orbit)}
    assert sums == [orbit[0][1].key() for orbit in orbits]
    # memory holds the summed first members only, not their conjugates
    assert fresh_cache._mem.keys() == set(sums)
    # per character, into an empty cache: the same values
    set_cache_dir(None)
    monkeypatch.setattr(bernoulli, "_b1_sum", b1_sum)
    for orbit in orbits:
        for _, chi in orbit:
            rec = l_value_at_zero(chi)
            assert (rec.b1chi, rec.l_at_zero) == (got[chi.key()].b1chi, got[chi.key()].l_at_zero)


def test_orbit_l_values_write_each_member_once(monkeypatch, tmp_path):
    # with a directory bound, a walk writes one line per member, conjugates
    # included; a second walk in the same process sums and writes nothing
    orbits = galois_orbits(45)
    path = tmp_path / "b1chi.jsonl"
    try:
        set_cache_dir(str(tmp_path))
        first = [rec.b1chi for orbit in orbits for rec in orbit_l_values(orbit)]
        lines = path.read_text().splitlines()
        members = [chi.key() for orbit in orbits for _, chi in orbit]
        written = [(rec["f"], tuple(rec["chi"])) for rec in map(json.loads, lines)]
        assert written == members
        monkeypatch.setattr(bernoulli, "_b1_sum", lambda chi: pytest.fail(f"summed {chi}"))
        assert [rec.b1chi for orbit in orbits for rec in orbit_l_values(orbit)] == first
        assert path.read_text().splitlines() == lines
    finally:
        set_cache_dir(None)


def test_orbit_l_values_reads_the_cache_first(monkeypatch, fresh_cache):
    orbit = next(o for o in galois_orbits(40) if o[0][1].modulus == 37)
    want = [l_value_at_zero(chi).b1chi for _, chi in orbit]
    set_cache_dir(None)
    # hold one conjugate only: the rest come from the representative's sum
    l_value_at_zero(orbit[3][1])
    sums = []
    b1_sum = bernoulli._b1_sum
    monkeypatch.setattr(bernoulli, "_b1_sum", lambda chi: sums.append(chi) or b1_sum(chi))
    assert [rec.b1chi for rec in orbit_l_values(orbit)] == want
    assert sums == [orbit[0][1]]
    # a full cache sums nothing
    sums.clear()
    assert [rec.b1chi for rec in orbit_l_values(orbit)] == want
    assert sums == []


def test_orbit_l_values_needs_its_representative_first():
    orbit = galois_orbits(5)[-1]
    with pytest.raises(ValueError):
        orbit_l_values(orbit[::-1])


@pytest.mark.parametrize("p", [3, 7, 31, 37, 41, 61])
def test_star_by_orbits_equals_per_character_reference(fresh_cache, monkeypatch, p):
    sums = []
    b1_sum = bernoulli._b1_sum
    monkeypatch.setattr(bernoulli, "_b1_sum", lambda chi: sums.append(chi) or b1_sum(chi))
    rep, towers = scans._odd_product_identity(p, N_START)
    chars = enumerate_characters(p, primitive_only=True, parity="odd")
    # one bucket sum per orbit: minus_class_number sums each orbit's first
    # member, and the star check conjugates it for the rest
    assert len(sums) == len({gcd(chi.exponents[0], p - 1) for chi in chars})
    judged = [cyclo_valuation(l_value_at_zero(chi).l_at_zero, p) for chi in chars]
    assert rep.factors == tuple((chi.exponents, v) for chi, (v, _t) in zip(chars, judged))
    assert towers == [t for _v, t in judged]


def test_records_judged_in_one_tower_share_its_descriptor():
    # a tower is its own descriptor: each record holds the very tower its
    # valuation was taken in, build_tower's one object for (p, k, N)
    records = nonintegral_locus_scan(40, 13)
    for rec in records:
        assert rec.tower is build_tower(rec.p, rec.tower.k, rec.tower.precision)
    assert build_tower(5, 4) is build_tower(5, 4)


@pytest.fixture
def empty_tower_cache():
    # build_tower's and _binomial_rows's lru_caches are process-wide: a
    # tower or a triangle another test built is kept
    build_tower.cache_clear()
    padic._binomial_rows.cache_clear()


def test_a_scan_builds_tables_only_where_the_ladder_ran(monkeypatch, empty_tower_cache):
    # a value the residue field judges is not embedded; a scan embeds only
    # in the towers the ladder stopped on, and builds one triangle of
    # binomial rows per (e, p^N) among them
    embedded, stops = set(), set()
    embed, ladder = padic.embed_padic, padic._ladder

    def recording_embed(z, tower):
        image = embed(z, tower)
        embedded.add(tower)
        return image

    def recording_ladder(z, p, n_start):
        judged = ladder(z, p, n_start)
        stops.add(judged[1][:3])
        return judged

    monkeypatch.setattr(padic, "embed_padic", recording_embed)
    monkeypatch.setattr(padic, "_ladder", recording_ladder)
    records = nonintegral_locus_scan(40, 13)
    used = {r.tower[:3] for r in records}
    assert {t[:3] for t in embedded} == stops
    assert stops < used
    assert padic._binomial_rows.cache_info().misses == len(
        {(t.e_ram, t.modulus) for t in embedded})


@pytest.mark.parametrize("n_start", [N_START, 1])
def test_valuation_equals_the_plain_ladder(n_start):
    # the residue-field rung gives what the ladder alone gives: the same
    # valuation and the same tower, for every primitive odd chi, f <= 60
    primes = [p for p in primes_upto(31) if p > 2]
    seen = set()
    for orbit in galois_orbits(60):
        for rec in orbit_l_values(orbit):
            lv = rec.l_at_zero
            for p in primes:
                v, tower = cyclo_valuation(lv, p, n_start)
                want_v, want_tower, _image = padic._ladder(lv, p, n_start)
                assert (v, tower) == (want_v, want_tower), (rec.chi, p)
                assert tower is want_tower and type(v) is Fraction
                seen.add("p | den" if lv.den % p == 0 else "v > 0" if v else "unit")
    assert seen == {"p | den", "v > 0", "unit"}


class _SerialPool:
    """multiprocessing.Pool's context manager and imap_unordered, run in this
    process, keeping the tasks it was handed."""

    tasks: list = []

    def __init__(self, jobs):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap_unordered(self, fn, tasks):
        _SerialPool.tasks = list(tasks)
        return map(fn, _SerialPool.tasks)


@pytest.mark.parametrize("f_max", [30, 60])
def test_each_value_order_is_one_task(monkeypatch, f_max):
    monkeypatch.setattr(multiprocessing, "Pool", _SerialPool)
    records = nonintegral_locus_scan(f_max, 7, jobs=2)
    tasks = _SerialPool.tasks
    orders = [{orbit[0][1].value_order for orbit in task} for task in tasks]
    assert all(len(ks) == 1 for ks in orders)
    assert len({k for ks in orders for k in ks}) == len(tasks)
    assert sorted(orbit for task in tasks for orbit in task) == sorted(galois_orbits(f_max))
    sizes = [sum(map(len, task)) for task in tasks]
    assert sizes == sorted(sizes, reverse=True)  # the largest group first
    assert records == nonintegral_locus_scan(f_max, 7, jobs=1)
