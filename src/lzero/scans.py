"""Verification scans over L(0, chi): classification, congruences, bounds.

Two kinds of statement are treated very differently here.  Proved facts --
the non-integrality classification, the pole depths, Kummer's congruences,
the root-of-unity integrality bound, and the minus-class-number product
identity -- are rechecked mechanically, and any mismatch raises a hard
error from :mod:`lzero.errors` because it can only mean a bug.  Conjectural
statements (residue congruences between characters, vanishing of L(0, chi)
mod the chosen place) are never asserted: the scans record what happened
and leave the judgement to the reader.

The classification scan, the minus-class-number product check and the
root-of-unity bound scan work one Galois orbit {chi^j : gcd(j, k) = 1} at a
time (k the value order of chi), from one partition of the characters
(characters._galois_orbits), because Galois already determines most of
what a conjugate needs:

* B_{1,chi^j} = sigma_j(B_{1,chi}) with sigma_j: zeta_k -> zeta_k^j, so one
  bucket sum per orbit gives every member's L-value
  (bernoulli.orbit_l_values).  The bound scan needs only the denominator of
  each, a Galois invariant, so it reads the representative's value alone.
* The field cut out by chi^j is that of chi, and so is its number w of roots
  of unity.
* Write k = p^a k'.  The decomposition group of p in (Z/k)^* is
  D = {j : j mod k' in <p mod k'>}, and sigma_j for j in D fixes the chosen
  place, so v(L(0, chi^j)) is constant on each coset of D.  So are the
  denominator of L(0, chi^j) and whether its image vanishes mod p^N, hence
  the precision the ladder stops at and the tower it stops in.  One value
  per coset is judged: phi(k') / ord_{k'}(p) valuations per (p, orbit),
  one per prime above p in Q(zeta_k'), instead of phi(k).  A judged value
  is embedded only if its residue cannot decide it (padic.cyclo_valuation).

The classification scan and the product check share one walk from orbits
to verdicts (_orbit_verdicts); the product check sorts its records back
into the order of the characters.  What stays per character: the
omega^(-1) residue test (sigma_j acts on the residue field as a power of
Frobenius, so the residue of chi^j is not that of chi), and with it the
classification and Question 2 fields of a record.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import lcm
from operator import attrgetter
from typing import NamedTuple

from .bernoulli import (
    b1_cache,
    bernoulli_number,
    l_value_at_zero,
    minus_class_number,
    orbit_l_values,
)
from .characters import (
    DirichletChar,
    _component_characters,
    _galois_orbits,
    char_eval,
    enumerate_characters,
    galois_orbits,
    is_odd,
    is_primitive,
    mul_chars,
    pow_char,
    primitive_odd_characters,
    primitivize,
)
from .cyclo import CycloElt
from .errors import (
    ClassificationViolation,
    CongruenceViolation,
    IntegralityViolation,
    NoOrderPCharacter,
    TheoremViolation,
)
from .nt import euler_phi, factorize, is_prime, primes_upto, valuation
from .padic import (
    N_START,
    PadicTower,
    _ladder,
    _tame_part,
    char_is_omega_power_mod_p,
    cyclo_valuation,
    padic_residue,
    residue_factor,
    residue_image,
    teichmuller,
)


def omega_char(p: int) -> DirichletChar:
    """The Teichmuller character omega of (Z/p)^* as a DirichletChar.

    The canonical generator of (Z/p)^* is the smallest primitive root g,
    and the residue-factor rule picks the divisor of Phi_{p-1} mod p whose
    root is the smallest primitive (p-1)-th root of unity -- the same g.
    So the character with exponent vector (1,) sends g to a root of unity
    congruent to g mod the chosen place: exactly omega.
    """
    if p < 3 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    return DirichletChar(p, (1,))


def omega_inverse_char(p: int) -> DirichletChar:
    """omega^(-1), the character whose L-value carries the simple pole."""
    return pow_char(omega_char(p), p - 2)


class VerdictRecord(NamedTuple):
    """The integrality verdict for one pair (chi, p).

    ``valuation`` is the exact valuation of L(0, chi) at the chosen place
    above p, normalised so that v(p) = 1.  ``omega_inverse`` records only
    the residue test chi-bar = omega^(-1); whether the conductor is a
    p-power enters separately, and ``classification_consistent`` is the
    proved equivalence  v < 0  <=>  (conductor = p^d and omega_inverse).
    ``question2_zero`` is a report-only probe: for omega-inverse-congruent
    characters whose conductor is *not* a p-power it records whether the
    (then integral) L-value vanishes mod the place; it is None otherwise.
    ``tower`` is the PadicTower the valuation was taken in.
    """

    modulus: int
    exponents: tuple[int, ...]
    p: int
    tower: PadicTower
    valuation: Fraction
    global_integral: bool
    omega_inverse: bool
    classification_consistent: bool
    question2_zero: bool | None
    notes: str = ""


def integrality_verdict(chi: DirichletChar, p: int, n_start: int = N_START) -> VerdictRecord:
    """Compute L(0, chi) exactly and judge its integrality at p.

    chi must be primitive and odd (even characters have L(0, chi) = 0 and
    no verdict to render).  Precision escalations are noted on the record.
    """
    if not is_odd(chi):
        raise ValueError("integrality verdicts are for odd characters only")
    if not is_primitive(chi):
        raise ValueError("chi must be primitive; call primitivize first")
    if p < 3 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    lv = l_value_at_zero(chi).l_at_zero
    val, tower = cyclo_valuation(lv, p, n_start)
    return _verdict_record(chi, p, lv, val, tower, n_start)


def _verdict_record(
    chi: DirichletChar, p: int, lv: CycloElt, val: Fraction, tower: PadicTower, n_start: int,
) -> VerdictRecord:
    """The verdict for (chi, p), given L(0, chi) = lv and its valuation val,
    judged in tower; the omega^(-1) test is run here."""
    f = chi.modulus
    is_ppow = f > 1 and f == p ** valuation(f, p)
    om_inv = char_is_omega_power_mod_p(chi, p, -1)
    sign = val.numerator  # the sign of val, read off an int
    consistent = (sign < 0) == (is_ppow and om_inv)
    q2 = None
    if om_inv and not is_ppow and sign >= 0:
        q2 = sign > 0
    notes = ""
    if tower.precision != n_start:
        notes = f"precision escalated to {tower.precision}"
    # fields by position: a named tuple is built about 4x slower from keywords
    return VerdictRecord(f, chi.exponents, p, tower, val, lv.is_algebraic_integer(), om_inv,
                         consistent, q2, notes)


def expected_pole_depth(p: int, r: int) -> Fraction:
    """Valuation of L(0, chi) at a non-integral locus of conductor p^r."""
    return -Fraction(1, euler_phi(p ** (r - 1)))


def _decomposition_cosets(p: int, k: int, js: list[int]) -> list[int]:
    """For each j prime to k, the index of its coset of the decomposition
    group D = {j : j mod k' in <p mod k'>} of p in (Z/k)^*, k = p^a k'.
    Cosets are numbered in order of first appearance in js."""
    k1 = _tame_part(p, k)[0]
    frobenius = [1 % k1]  # <p mod k'>, stepped until it returns to 1
    x = p % k1
    while x != frobenius[0]:
        frobenius.append(x)
        x = x * p % k1
    coset_of: dict[int, int] = {}
    out = []
    for j in js:
        r = j % k1
        if r not in coset_of:
            n = len(coset_of) // len(frobenius)
            for h in frobenius:
                coset_of[r * h % k1] = n
        out.append(coset_of[r])
    return out


def _orbit_verdicts(
    orbits: list[list[tuple[int, DirichletChar]]], primes: list[int], n_start: int
) -> list[VerdictRecord]:
    """integrality_verdict for every member of every orbit at every p, orbit
    by orbit, member by member, p by p.

    An orbit's L-values come from one bucket sum (orbit_l_values) and are
    read one at a time, never listed.  At each p one cyclo_valuation is
    taken per coset of the decomposition group of p, for the coset's first
    member: its valuation and tower stand for the whole coset."""
    records = []
    for orbit in orbits:
        k = orbit[0][1].value_order
        js = [j for j, _ in orbit]
        walks = [(p, _decomposition_cosets(p, k, js), {}) for p in primes]
        for i, rec in enumerate(orbit_l_values(orbit)):
            lv = rec.l_at_zero
            for p, cosets, judged in walks:  # judged: coset -> (v, tower)
                coset = cosets[i]
                if coset not in judged:
                    judged[coset] = cyclo_valuation(lv, p, n_start)
                records.append(_verdict_record(rec.chi, p, lv, *judged[coset], n_start))
    return records


def nonintegral_locus_scan(
    f_max: int, p_max: int, n_start: int = N_START, jobs: int = 1
) -> list[VerdictRecord]:
    """Judge every (chi, p) with conductor <= f_max and odd prime p <= p_max.

    Each Galois orbit of characters is judged with every p (see the module
    docstring): its B_{1,chi} is summed once and conjugated, and at each p
    one member per coset of the decomposition group of p is judged
    (cyclo_valuation), its valuation and tower standing for the whole
    coset.  The omega^(-1) residue test, and the classification and
    Question 2 fields that follow from it, are computed per character.

    The unit of work is the group of orbits of one value order k, whatever
    jobs is, judged by _orbit_verdicts: L(0, chi) lies in Q(zeta_k), so the
    towers (p, k, N) serve that group alone.  Every record holds the tower
    it was judged in.  With jobs > 1 a task is one group, the largest (by
    characters) first, so no two workers sum the same orbit's B_{1,chi} or
    build the same tower.

    Hard-checks on the way out: every record must satisfy the proved
    classification, every negative valuation must equal the proved pole
    depth, and for each p the number of non-integral loci at conductor p^d
    must be 1 for d = 1 and phi(p^(d-1)) for d >= 2.  Records are returned
    in the canonical (p, conductor, exponents) order regardless of jobs.
    """
    primes = [p for p in primes_upto(p_max) if p > 2]
    by_order: dict[int, list] = {}
    for orbit in galois_orbits(f_max):
        by_order.setdefault(orbit[0][1].value_order, []).append(orbit)
    groups = sorted(by_order.values(), key=lambda g: sum(map(len, g)), reverse=True)
    judge = functools.partial(_orbit_verdicts, primes=primes, n_start=n_start)
    if jobs > 1:
        import multiprocessing  # only here: it costs every start-up otherwise

        b1_cache()  # bound before the fork, so the workers share one attach
        with multiprocessing.Pool(jobs) as pool:
            parts = list(pool.imap_unordered(judge, groups))
    else:
        parts = map(judge, groups)
    records = [rec for part in parts for rec in part]
    # stable passes, least significant key first: the (p, modulus, exponents)
    # order with no key tuple per record
    for field in ("exponents", "modulus", "p"):
        records.sort(key=attrgetter(field))

    for rec in records:
        if not rec.classification_consistent:
            raise ClassificationViolation(
                f"chi mod {rec.modulus} {rec.exponents} at p={rec.p}: "
                f"valuation {rec.valuation} contradicts the classification"
            )
        if rec.valuation.numerator < 0:
            r = valuation(rec.modulus, rec.p)
            want = expected_pole_depth(rec.p, r)
            if rec.valuation != want:
                raise ClassificationViolation(
                    f"chi mod {rec.modulus} {rec.exponents} at p={rec.p}: "
                    f"pole depth {rec.valuation}, expected {want}"
                )
    _check_count_law(records, f_max, primes)
    return records


def _check_count_law(records: list[VerdictRecord], f_max: int, primes: list[int]) -> None:
    """Non-integral loci at conductor p^d number 1 (d=1) or phi(p^(d-1))."""
    observed: dict[tuple[int, int], int] = {}
    for rec in records:
        if rec.valuation.numerator < 0:
            d = valuation(rec.modulus, rec.p)
            observed[rec.p, d] = observed.get((rec.p, d), 0) + 1
    for p in primes:
        d = 1
        while p**d <= f_max:
            want = 1 if d == 1 else euler_phi(p ** (d - 1))
            got = observed.pop((p, d), 0)
            if got != want:
                raise ClassificationViolation(
                    f"count law fails at p={p}, d={d}: {got} loci, expected {want}"
                )
            d += 1
    if observed:
        raise ClassificationViolation(f"unexpected non-integral loci: {sorted(observed)}")


def root_of_unity_order(chi: DirichletChar) -> int:
    """Number of roots of unity in the field cut out by a primitive chi.

    The field K is the fixed field of ker(chi) in Q(zeta_f); its characters
    are the powers of chi, a cyclic group of order k.  So zeta_n (n | f) lies
    in K exactly when the characters mod n form a subgroup of <chi>: when
    (Z/n)^* is cyclic, phi(n) | k and chi^(k/phi(n)), which generates the
    subgroup of order phi(n), has conductor dividing n.  Each prime q | f
    contributes the largest power q^e | f that passes (only 4 for q = 2,
    since (Z/2^e)^* is not cyclic for e >= 3), and -1 is always present,
    whence the lcm with 2.

    The test is read off chi's components (characters._component_characters)
    and builds no character.  Write m = k/phi(q^x) and k_r for the order of
    chi's component at r.  chi^m has conductor dividing q^x exactly when k_r
    divides m for every r != q and chi^m's q-component has conductor
    dividing q^x.  For odd q the latter always holds: that component's
    order s divides the order phi(q^x) of chi^m, so v_q(s) < x, and a
    character of (Z/q^a)^* of order s > 1 has conductor q^(1 + v_q(s)).
    For 2^a, a >= 3, the exponent of chi^m on 5 must vanish.
    """
    parts = _component_characters(chi)
    cond, k = 1, 1
    for _q, _a, _e, (c, _s, kq) in parts:
        cond *= c
        k = lcm(k, kq)
    if cond != chi.modulus:
        raise ValueError("chi must be primitive")
    best = 1
    for q, a, e, _entry in parts:
        others = 1  # the lcm of the other components' orders
        for r, _a, _e, (_c, _s, kr) in parts:
            if r != q:
                others = lcm(others, kr)
        for x in ([2] if a >= 2 else []) if q == 2 else range(a, 0, -1):
            m, rem = divmod(k, (q - 1) * q ** (x - 1))
            if rem or m % others or (q == 2 and a > 2 and e[1] * m % 2 ** (a - 2)):
                continue
            best *= q**x
            break
    return lcm(2, best)


class BoundRecord(NamedTuple):
    """One root-of-unity integrality bound check: w * L(0, chi) integral."""

    modulus: int
    exponents: tuple[int, ...]
    w: int
    integral: bool


def deligne_ribet_check(chi: DirichletChar) -> BoundRecord:
    """Verify the Deligne--Ribet bound w(chi) * L(0, chi) is integral.

    This is a theorem, so failure raises IntegralityViolation.  The check
    is global: the power basis is an integral basis of the cyclotomic
    integers, and L(0, chi) is stored in lowest terms, so w * L(0, chi) is
    integral exactly when its denominator divides w.
    """
    return _bound_record(chi, root_of_unity_order(chi), l_value_at_zero(chi).l_at_zero)


def _bound_record(chi: DirichletChar, w: int, lv: CycloElt) -> BoundRecord:
    ok = w % lv.den == 0
    if not ok:
        raise IntegralityViolation(
            f"w * L(0, chi) not integral for chi mod {chi.modulus} {chi.exponents} (w={w})"
        )
    return BoundRecord(chi.modulus, chi.exponents, w, ok)


def deligne_ribet_scan(f_max: int) -> list[BoundRecord]:
    """Run the root-of-unity bound check over all odd conductors <= f_max.

    One Galois orbit at a time, with one L-value per orbit: its members cut
    out one field, so share w, and their L-values are the conjugates
    sigma_j(L(0, chi)) of the representative's.  The check reads only the
    denominator of L(0, chi^j) (whether it divides w), and the value was
    already checked nonzero when it was summed.  Both are Galois invariants.
    The power basis is an integral basis, so the denominator of z is the
    least c > 0 with c * z in Z[zeta_k]; sigma_j is an automorphism of
    Z[zeta_k], so c * z lies in it exactly when c * sigma_j(z) does, and z
    and sigma_j(z) share their denominator; and sigma_j(z) = 0 only if
    z = 0.  So the representative's check stands for every member, and only
    the representative's value is summed or read from the cache.  Rows come
    in the order of primitive_odd_characters.
    """
    rows = []
    for orbit in galois_orbits(f_max):
        rep = orbit[0][1]
        w = root_of_unity_order(rep)
        integral = _bound_record(rep, w, l_value_at_zero(rep).l_at_zero).integral
        rows.extend([BoundRecord(chi.modulus, chi.exponents, w, integral) for _j, chi in orbit])
    rows.sort()  # by (modulus, exponents), which no two rows share
    return rows


class CongruenceRow(NamedTuple):
    """One Kummer congruence instance B_{1, omega^n} = B_{n+1}/(n+1) mod p."""

    p: int
    n: int
    lhs: int
    rhs: int
    equal: bool


def kummer_check(p: int) -> list[CongruenceRow]:
    """Check the Kummer congruences at p for every admissible odd n.

    The left side is computed from first principles: Teichmuller lifts mod
    p^2 give p * B_{1, omega^n} mod p^2, which is then divided by p.  The
    right side is the exact rational B_{n+1}/(n+1) reduced mod p.  n with
    n + 1 divisible by p - 1 are excluded (there B_{n+1} has p in its
    denominator and the congruence does not apply).
    """
    if p < 3 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    p2 = p * p
    lifts = [0] + [teichmuller(a, p, 2) for a in range(1, p)]
    rows = []
    for n in range(1, p - 1, 2):
        if (n + 1) % (p - 1) == 0:
            continue
        s = sum(a * pow(lifts[a], n, p2) for a in range(1, p)) % p2
        if s % p:
            raise CongruenceViolation("p * B_{1, omega^n} must vanish mod p for admissible n")
        lhs = (s // p) % p
        rhs_q = bernoulli_number(n + 1) / (n + 1)
        if rhs_q.denominator % p == 0:
            raise TheoremViolation("B_{n+1}/(n+1) must be p-integral")
        rhs = rhs_q.numerator * pow(rhs_q.denominator, -1, p) % p
        equal = lhs == rhs
        rows.append(CongruenceRow(p, n, lhs, rhs, equal))
        if not equal:
            raise CongruenceViolation(f"Kummer congruence fails at p={p}, n={n}: {lhs} != {rhs}")
    return rows


def kummer_scan(p_max: int) -> list[CongruenceRow]:
    """Kummer congruences for every odd prime p <= p_max."""
    rows = []
    for p in primes_upto(p_max):
        if p > 2:
            rows.extend(kummer_check(p))
    return rows


class PoleDepthRow(NamedTuple):
    """Expected vs computed valuation at one non-integral locus mod p^r."""

    modulus: int
    exponents: tuple[int, ...]
    p: int
    expected: Fraction
    computed: Fraction
    equal: bool


def pole_depth_check(p: int, r_max: int, n_start: int = N_START) -> list[PoleDepthRow]:
    """Pin down the pole depths at conductors p, p^2, ..., p^r_max.

    At conductor p there is a single locus (omega^(-1) itself) with a
    simple pole, v = -1.  At conductor p^r, r >= 2, the loci are the
    phi(p^(r-1)) wild twists of omega^(-1) of exact conductor p^r, each
    with v = -1/phi(p^(r-1)).  Both the counts and the depths are proved,
    so any mismatch raises ClassificationViolation.
    """
    return _pole_depths(p, r_max, n_start)[0]


def _pole_depths(p: int, r_max: int, n_start: int) -> tuple[list[PoleDepthRow], list[PadicTower]]:
    """pole_depth_check's rows and the towers their valuations were taken in."""
    if p < 3 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    rows = []
    towers = []
    for r in range(1, r_max + 1):
        members = [
            chi
            for chi in enumerate_characters(p**r, primitive_only=True, parity="odd")
            if char_is_omega_power_mod_p(chi, p, -1)
        ]
        want_count = 1 if r == 1 else euler_phi(p ** (r - 1))
        if len(members) != want_count:
            raise ClassificationViolation(
                f"{len(members)} omega-inverse characters of conductor {p**r}, "
                f"expected {want_count}"
            )
        want_v = expected_pole_depth(p, r)
        for chi in members:
            got, tower = cyclo_valuation(l_value_at_zero(chi).l_at_zero, p, n_start)
            equal = got == want_v
            rows.append(PoleDepthRow(chi.modulus, chi.exponents, p, want_v, got, equal))
            towers.append(tower)
            if not equal:
                raise ClassificationViolation(
                    f"chi mod {chi.modulus} {chi.exponents}: pole depth {got}, "
                    f"expected {want_v}"
                )
    return rows, towers


class ProductIdentityReport(NamedTuple):
    """The minus-class-number product over odd characters mod p."""

    p: int
    h_minus: int
    factors: tuple[tuple[tuple[int, ...], Fraction], ...]
    unique_pole: bool
    product_identity: bool


def odd_product_identity_check(p: int, n_start: int = N_START) -> ProductIdentityReport:
    """Check h_minus(p) = p * 2^(-(p-3)/2) * prod L(0, chi) and its pole.

    Exactly one factor, the omega^(-1) one, may have v = -1; every other
    factor must be integral at the place.  The valuations must also book
    against the integer product: their sum is v_p(h_minus) - 1.
    """
    return _odd_product_identity(p, n_start)[0]


def _odd_product_identity(p: int, n_start: int) -> tuple[ProductIdentityReport, list[PadicTower]]:
    """odd_product_identity_check's report and its factors' towers.

    The odd characters mod p are judged by prop1's walk, _orbit_verdicts,
    one Galois orbit at a time (_galois_orbits): one bucket sum per orbit,
    its L-values read one at a time, and one valuation per coset of the
    decomposition group of p.  The records are sorted by exponents, the
    order of enumerate_characters, so the factors and the checks keep it.
    """
    h = minus_class_number(p)
    chars = enumerate_characters(p, primitive_only=True, parity="odd")
    records = sorted(_orbit_verdicts(_galois_orbits(chars), [p], n_start),
                     key=attrgetter("exponents"))
    poles = [rec for rec in records if rec.valuation < 0]
    for rec in poles:
        if rec.valuation != -1:
            raise ClassificationViolation(
                f"pole of order {-rec.valuation} at chi mod {p} {rec.exponents}; only "
                f"simple poles can occur"
            )
    if not (len(poles) == 1 and poles[0].omega_inverse):
        raise ClassificationViolation(
            f"expected the unique simple pole at omega^(-1) mod {p}, found "
            f"{[rec.exponents for rec in poles]}"
        )
    if sum(rec.valuation for rec in records) + 1 != valuation(h, p):
        raise ClassificationViolation(
            f"factor valuations do not book against h_minus({p}) = {h}"
        )
    return ProductIdentityReport(
        p=p,
        h_minus=h,
        factors=tuple((rec.exponents, rec.valuation) for rec in records),
        unique_pole=True,
        product_identity=True,
    ), [rec.tower for rec in records]


def _truncated_residue(
    chi: DirichletChar, common_modulus: int, p: int, n_start: int
) -> tuple[int, ...]:
    """Residue of the Bernoulli sum of chi taken at a larger modulus.

    Multiplying L(0, chi) by (1 - chi(l)) for the primes l of the modulus
    away from the conductor is exactly inducing the character: the result
    is -1/N * sum a chi(a) over a coprime to N.  A value prime to p in its
    denominator is reduced in the residue field (residue_image); any other
    is embedded once, by the precision ladder, and reduced from that image.
    A zero value has the zero residue, of degree deg g = ord_{k'}(p).
    """
    lv = l_value_at_zero(chi).l_at_zero
    for ell in sorted(factorize(common_modulus)):
        if chi.modulus % ell != 0:
            lv = lv * (CycloElt.one() - char_eval(chi, ell))
    if lv.is_zero():
        return (0,) * (len(residue_factor(p, _tame_part(p, chi.value_order)[0])) - 1)
    if lv.den % p:
        return residue_image(lv, p)
    return padic_residue(_ladder(lv, p, n_start)[2])


def straightened_character(chi: DirichletChar, p: int) -> DirichletChar:
    """The prime-to-p-order character congruent to chi mod the place.

    Raising chi to the power m with m = 0 mod p^A and m = 1 mod k' (where
    the value order is k = p^A k') kills the p-power-order part of every
    value, which is congruent to 1, and fixes the rest.  The result is a
    canonical class representative: two characters are congruent mod the
    place iff they straighten to the same character.
    """
    k = chi.value_order
    k1, beta = _tame_part(p, k)
    return primitivize(pow_char(chi, k // k1 * beta % k))


class CongruencePair(NamedTuple):
    """Residues of two congruent characters' L-values, compared.

    The residues are taken after moving both characters to their common
    modulus N = lcm(f1, f2), i.e. of L(0, chi) * prod (1 - chi(l)) over the
    primes l | N not dividing the conductor of chi.  That is the Bernoulli
    sum at modulus N, the quantity congruent characters should share:
    comparing the primitive L-values directly would see spurious Euler
    factors at the primes where only one of the two ramifies.
    """

    p: int
    class_modulus: int
    class_exponents: tuple[int, ...]
    modulus1: int
    exponents1: tuple[int, ...]
    modulus2: int
    exponents2: tuple[int, ...]
    residue1: tuple[int, ...]
    residue2: tuple[int, ...]
    equal: bool


class CongruenceReport(NamedTuple):
    """Evidence (never an assertion) for congruences between L-values."""

    p: int
    f_max: int
    n_classes: int
    n_excluded: int
    n_singletons: int
    pairs: tuple[CongruencePair, ...]


def residue_congruence_scan(f_max: int, p: int, n_start: int = N_START) -> CongruenceReport:
    """Compare L(0, chi) mod the place across congruent characters.

    Primitive odd characters of conductor <= f_max are grouped by their
    straightened class; classes congruent to omega^(-1) are excluded (they
    contain the poles).  Members of one class share the prime-to-p value
    order k', hence the same residue field model, so their residues are
    directly comparable tuples.  This backs a conjecture: unequal residues
    are reported as data, never raised.
    """
    if p < 3 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    om_inv_key = omega_inverse_char(p).key()
    classes: dict[tuple, list[DirichletChar]] = {}
    n_excluded = 0
    for chi in primitive_odd_characters(f_max):
        psi = straightened_character(chi, p)
        if psi.key() == om_inv_key:
            n_excluded += 1
            continue
        classes.setdefault(psi.key(), []).append(chi)
    pairs = []
    n_singletons = 0
    for key in sorted(classes):
        members = sorted(classes[key], key=lambda c: c.key())
        if len(members) == 1:
            n_singletons += 1
            continue
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                common = lcm(members[i].modulus, members[j].modulus)
                r1 = _truncated_residue(members[i], common, p, n_start)
                r2 = _truncated_residue(members[j], common, p, n_start)
                pairs.append(
                    CongruencePair(
                        p=p,
                        class_modulus=key[0],
                        class_exponents=key[1],
                        modulus1=members[i].modulus,
                        exponents1=members[i].exponents,
                        modulus2=members[j].modulus,
                        exponents2=members[j].exponents,
                        residue1=r1,
                        residue2=r2,
                        equal=r1 == r2,
                    )
                )
    return CongruenceReport(
        p=p,
        f_max=f_max,
        n_classes=len(classes),
        n_excluded=n_excluded,
        n_singletons=n_singletons,
        pairs=tuple(pairs),
    )


def twisted_pair_witness(p: int, q: int, n_start: int = N_START) -> tuple[VerdictRecord, VerdictRecord]:
    """The pole at omega^(-1) disappears after twisting by an order-p character.

    For a prime q = 1 mod p, the order-p character chi2 mod q twists
    omega^(-1) into a character of conductor pq -- no longer a prime power,
    so its L-value must be integral at the place even though the residue is
    still omega^(-1).  Returns the verdict pair (untwisted, twisted); a
    wrong valuation on either side raises ClassificationViolation.
    """
    if p < 3 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    if not is_prime(q) or q == p:
        raise ValueError("q must be a prime different from p")
    if (q - 1) % p != 0:
        raise NoOrderPCharacter(f"(Z/{q})^* has no character of order {p}")
    untwisted = integrality_verdict(omega_inverse_char(p), p, n_start)
    chi2 = DirichletChar(q, ((q - 1) // p,))
    if chi2.value_order != p or is_odd(chi2):
        raise TheoremViolation(f"chi2 mod {q} must be even of order {p}")
    chi = primitivize(mul_chars(omega_inverse_char(p), chi2))
    if chi.modulus != p * q:
        raise TheoremViolation("the twist must have conductor pq")
    twisted = integrality_verdict(chi, p, n_start)
    if untwisted.valuation != -1:
        raise ClassificationViolation(
            f"v(L(0, omega^-1)) = {untwisted.valuation} at p={p}, expected -1"
        )
    if twisted.valuation < 0:
        raise ClassificationViolation(
            f"twisted L-value has negative valuation {twisted.valuation} at p={p}, q={q}"
        )
    return untwisted, twisted
