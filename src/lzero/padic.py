"""A reproducible model of Q(zeta_k) inside Qbar_p, with exact valuations.

For k = p^a * k' (p odd, gcd(k', p) = 1) the completion at the chosen place
is the compositum of

* an unramified part W = Z_p[x]/(g(x)), g a fixed irreducible factor of
  Phi_{k'} mod p Hensel-lifted to the working precision p^N, and
* a totally ramified part generated by pi = zeta_{p^a} - 1, a root of the
  Eisenstein polynomial E(pi) = Phi_{p^a}(1 + pi).

Elements are matrices c[j][i] of integers mod p^N (coefficient of pi^j x^i),
optionally divided by an explicit power p^shift.  Valuations are exact
Fractions normalized by v(p) = 1, so v(pi) = 1/phi(p^a); they are computed
as min_j (v(c_j) + j/e), which has no cancellation because the candidate
values are pairwise distinct mod 1.

Which factor of Phi_{k'} mod p gets used pins down the place (equivalently,
the embedding of the prime-to-p roots of unity).  The rule: write each monic
irreducible factor as x^d - (b_{d-1} x^{d-1} + ... + b_0) with 0 <= b_i < p
and take the factor with the lexicographically least (b_0, ..., b_{d-1}).
For split k' this picks the smallest root; e.g. for p = 5, k' = 4 the roots
of x^2 + 1 are {2, 3} and the rule sends zeta_4 to 2.  Any fixed rule would
do, but verdicts for individual characters depend on this one.  The first
key is read off norms: b_0 = (-1)^(d+1) N(zeta), d = ord_{k'}(p), and
the norm of a root of Phi_{k'} is the monomial zeta^e, e = 1 + p + ... +
p^(d-1) mod k'.  So the factors with the least b_0 are one gcd of
Phi_{k'} with the binomial x^e - v mod p, and only when several tie are
they split, by a deterministic Berlekamp split by Gauss periods
T_j = sum_{i<d} x^(j p^i mod k'): each T_j takes one value in F_p on
every irreducible factor, and the roots of its minimal polynomial mod a
piece split that piece by gcds.  The factor chosen does not depend on the
method.  The lift is Newton's method for the monic divisor of x^(k') - 1
that reduces to the chosen factor: each step is one remainder of
x^(k') - 1 at the new precision and a correction formed at half of it
(_hensel_lift).

The image of zeta_k is normalised by CRT: zeta_k^(k') = 1 + pi and
zeta_k^(p^a) = x.  This makes the place restrict to the place of the tame
subfield, so residues are comparable across towers sharing the same k'.
So zeta_k = y^alpha w^beta with alpha k' = 1 mod p^a, beta p^a = 1 mod k',
y = 1 + pi and w = x: Z[zeta_k] = Z[y]/Phi_{p^a}(y) (x) Z[w]/Phi_{k'}(w),
and zeta_k^m = y^u w^t, u = alpha m mod p^a, t = beta m mod k'.
embed_padic keeps no table: it adds each numerator into its bucket (u, t),
folds the buckets exactly over Z (in y by Phi_{p^a}, leaving the e rows
u < e; in w by Phi_{k'}), and reads pi-row j of the image as
sum_u C(u, j) y_u: (1 + pi)^u has degree u < e, so no reduction by E.
Each row is then reduced by the lifted g mod p^N.  The binomials mod p^N
are one triangle per (e, p^N) (_binomial_rows), shared by every k', so a
tower is only its fields.  Every product and remainder here is one of
_kernels: a product keeps no table, it is reduced in place by its monic
moduli (mulmod, and tower_mul by the lifted g and then E).

Valuations are judged in the residue field first.  zeta_k^m reduces to
x^(beta m mod k') in O/P = F_p[x]/(g mod p) at every precision, so a value
whose denominator is prime to p is p-integral, and its residue
(residue_image) is read off its numerators: embed_padic's row 0 mod p,
with the y-buckets summed because y = 1 mod pi.  A nonzero residue means
valuation 0, in the tower at the starting precision; cyclo_valuation
embeds only a value with p | den or a zero residue, and runs the precision
ladder on it (_ladder).
"""
from __future__ import annotations

import functools
from fractions import Fraction
from itertools import accumulate
from math import comb, gcd, lcm
from operator import mul, sub
from typing import NamedTuple

from lzero._kernels import mulmod, reduce_mod, tower_mul
from lzero.characters import DirichletChar, unit_group_basis, _char_data
from lzero.cyclo import CycloElt, _reduce, cyclotomic_poly
from lzero.errors import PrecisionExhausted, TheoremViolation
from lzero.nt import (
    euler_phi, factorize, is_prime, multiplicative_order, smallest_primitive_root, valuation,
)

N_START = 16
N_CAP = 512


class _AbovePrecision:
    """Valuation outcome for an element that vanishes mod p^N: all we know
    is v >= N - shift, so the question is undecidable at this precision."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "AbovePrecision"


ABOVE_PRECISION = _AbovePrecision()


# ---------------------------------------------------------------------------
# dense polynomials over Z/m, m = p or a power of p for Hensel lifting:
# lists, ascending degree, multiplied and reduced by a monic polynomial only
# in _kernels (mulmod, reduce_mod), whose results are not trimmed


def _pm_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _pm_gcd(a, b, p):
    """The monic gcd of a and b mod p ([] if both vanish): each divisor is
    made monic, so reduce_mod divides by it."""
    a, b = _pm_trim([x % p for x in a]), _pm_trim([x % p for x in b])
    while b:
        inv = pow(b[-1], -1, p)
        b = [x * inv % p for x in b]
        a, b = b, _pm_trim(reduce_mod(a, b, p))
    if a:
        inv = pow(a[-1], -1, p)
        a = [x * inv % p for x in a]
    return a


def _gauss_period(j: int, p: int, k1: int, d: int) -> list[int]:
    """T_j = sum_{i<d} x^(j p^i mod k1) mod p, d = ord_{k1}(p).  p^d = 1 mod
    k1, so T_j^p = T_j mod x^k1 - 1: T_j is in the Berlekamp algebra of
    Phi_{k1} mod p (von zur Gathen & Gerhard, Modern Computer Algebra,
    ch. 14) and takes one value in F_p on each irreducible factor."""
    t = [0] * k1
    for i in range(d):
        t[j * pow(p, i, k1) % k1] += 1
    return _pm_trim([c % p for c in t])


def _min_poly(t: list[int], h: list[int], p: int) -> list[int]:
    """The monic minimal polynomial of t in F_p[x]/(h), ascending: the powers
    1, t, t^2, ... mod h are eliminated one at a time, each row followed by
    its combination of powers, until one eliminates to 0."""
    n = len(h) - 1
    rows = {}  # pivot -> row, scaled to 1 at the pivot
    power = [1]
    while True:
        i = len(rows)
        vec = power + [0] * (n - len(power) + i) + [1] + [0] * (n - i)
        for pivot, row in rows.items():  # in insertion order: echelon form
            if c := vec[pivot]:
                vec = [(a - c * b) % p for a, b in zip(vec, row)]
        pivot = next((m for m in range(n) if vec[m]), None)
        if pivot is None:
            return _pm_trim(vec[n:])
        inv = pow(vec[pivot], -1, p)
        rows[pivot] = [c * inv % p for c in vec]
        power = mulmod(power, t, h, p)


def _split_by_period(h: list[int], period: list[int], p: int) -> list[list[int]]:
    """h | Phi_{k1} mod p as the gcd(h, t - c), t = period mod h, over the
    roots c in F_p of t's minimal polynomial mu, found by Horner's rule in
    increasing order but for the last, which is -mu_{r-1} minus the sum of
    the others (Vieta, r = deg mu)."""
    t = reduce_mod(list(period), h, p)
    mu = _min_poly(t, h, p)
    if len(mu) == 2:  # t is constant mod h
        return [h]
    roots = []
    for c in range(p):
        acc = 0
        for a in reversed(mu):
            acc = (acc * c + a) % p
        if not acc:
            roots.append(c)
            if len(roots) == len(mu) - 2:
                # the last root is the largest: -mu_{r-1} minus the others
                last = (-mu[-2] - sum(roots)) % p
                if last > c:
                    roots.append(last)
                break
    pieces = [_pm_gcd(h, [t[0] - c, *t[1:]], p) for c in roots]
    if sum(len(g) - 1 for g in pieces) != len(h) - 1:
        raise TheoremViolation(f"a Gauss period mod {p} is not in the Berlekamp algebra")
    return pieces


@functools.lru_cache(maxsize=None)
def residue_factor(p: int, k1: int) -> tuple[int, ...]:
    """The chosen monic irreducible factor of Phi_{k1} mod p (gcd(k1,p)=1).

    Selection: minimize (b_0, ..., b_{d-1}) where the factor is written as
    x^d - sum b_i x^i with least nonnegative b_i.

    The first key is read off norms.  The factor through a root zeta has
    b_0 = (-1)^(d+1) N(zeta), d = ord_{k1}(p), and N(zeta) =
    zeta^((p^d - 1)/(p - 1)) = zeta^e, e = 1 + p + ... + p^(d-1) mod k1,
    because zeta^k1 = 1.  The norms are exactly the elements of order
    o = k1 / gcd(k1, e) of F_p^*, so the least b_0 is the least w whose
    v = (-1)^(d+1) w has order o, and h = gcd(Phi_{k1}, x^e - v) mod p is
    the product of the factors with that b_0 (h = Phi_{k1} if e = 0, where
    every norm is 1).  Only an h of degree above d is split: the Gauss
    periods T_1, T_2, ... span the Berlekamp algebra, so splitting every
    piece by each in turn reaches the factors, all of degree d, before j
    reaches k1.

    >>> residue_factor(5, 4)
    (3, 1)
    """
    d = multiplicative_order(p, k1) if k1 > 1 else 1
    phi = _pm_trim([c % p for c in cyclotomic_poly(k1)])
    if len(phi) - 1 == d:
        return tuple(phi)
    e = sum(pow(p, i, k1) for i in range(d)) % k1
    o = k1 // gcd(k1, e)
    if (p - 1) % o:
        raise TheoremViolation(f"F_{p}^* has no element of order {o} to be a norm mod Phi_{k1}")
    # y has order o, and its powers y^i, i prime to o, are the norms
    y = pow(smallest_primitive_root(p), (p - 1) // o, p)
    sign = 1 if d % 2 else -1  # b_0 = sign N
    v = sign * min(sign * pow(y, i, p) % p for i in range(1, o + 1) if gcd(i, o) == 1)
    pieces = [phi if e == 0 else _pm_gcd(phi, [-v, *[0] * (e - 1), 1], p)]
    j = 0
    while any(len(h) - 1 != d for h in pieces):
        j += 1
        if j == k1:
            raise TheoremViolation(f"Phi_{k1} mod {p} has a factor of degree other than {d}")
        # every piece divides Phi_k1 mod p, so T_j mod Phi_k1 has the same
        # residue mod each piece and is reduced once for all of them
        period = _pm_trim([c % p for c in _reduce(k1, _gauss_period(j, p, k1, d))])
        pieces = [g for h in pieces
                  for g in ([h] if len(h) - 1 == d else _split_by_period(h, period, p))]

    def rule(g: list[int]) -> tuple[int, ...]:
        return tuple((-c) % p for c in g[:-1])

    return tuple(min(pieces, key=rule))


def _hensel_lift(k1: int, g_bar: tuple[int, ...], p: int, N: int) -> list[int]:
    """Lift the factor g_bar of Phi_{k1} mod p to a monic divisor of Phi_{k1}
    mod p^N.

    G is lifted alone, as the monic divisor of X = x^k1 - 1 that reduces to
    g_bar: one Newton step takes G mod p^n to G mod m = p^(2n), through
    p^ceil(N/2^j), ..., p^N, so the last step lands on p^N exactly.  That is
    ceil(log2 N) steps.  With theta = x mod G,

        r = theta^k1 - 1 mod (G, m),    G <- G + r G' theta / k1 mod (G, m).

    Why: write X = G H + e with e = 0 mod p^n; the step needs
    delta = e / H mod G, and e = r mod G.  X' = G'H + GH' + e', so
    H = X'/G' mod (G, p^n), and X'(theta) = k1 theta^(k1 - 1) = k1 / theta
    because theta^k1 = 1 mod (G, p^n).  Each error term is O(p^n) O(p^n),
    so it vanishes mod p^(2n).  p does not divide k1, so X is squarefree
    mod p: its monic divisor lifting g_bar is unique, it does not depend on
    the route taken to p^N, and it is the one that divides Phi_{k1}.

    Each step takes r as one remainder of x^k1 - 1 by G mod m and checks
    r = 0 mod p^n.  So r = p^n s, and the correction p^n (s w mod (G, p^n)),
    w = x G' / k1 mod (G, p^n), is formed at half precision.  For deg G = 1,
    G = x - a, the step is the scalar a <- a - a (a^k1 - 1) / k1 (pow).  The
    end checks Phi_{k1} = 0 mod (G, p^N), which rejects a divisor of X that
    does not divide Phi_{k1}.

    >>> _hensel_lift(4, (3, 1), 5, 2)
    [18, 1]
    """
    F = cyclotomic_poly(k1)
    G = [c % p for c in g_bar]
    pN = p**N
    if G == [c % p for c in F]:  # Phi_{k1} is irreducible mod p
        return [c % pN for c in F]
    steps = [N]
    while steps[-1] > 1:
        steps.append((steps[-1] + 1) // 2)
    steps.reverse()
    inv_k1 = pow(k1, -1, pN)
    for n, nxt in zip(steps, steps[1:]):
        m, prev = p**nxt, p**n
        if len(G) == 2:
            a = -G[0]
            r = pow(a, k1, m) - 1
            if r % prev:
                raise TheoremViolation("Newton step: x^k' - 1 must vanish mod (G, p^n)")
            G[0] = (G[0] + a * r * inv_k1) % m
            continue
        r = reduce_mod([-1, *[0] * (k1 - 1), 1], G, m)
        if any(c % prev for c in r):
            raise TheoremViolation("Newton step: x^k' - 1 must vanish mod (G, p^n)")
        w = reduce_mod([i * c * inv_k1 for i, c in enumerate(G)], G, prev)
        delta = mulmod([c // prev for c in r], w, G, prev)
        for i, c in enumerate(delta):
            G[i] = (G[i] + prev * c) % m
    if any(reduce_mod(list(F), G, pN)):
        raise TheoremViolation("Hensel lift: the lift must divide Phi_k' mod p^N")
    return G


def _eisenstein_poly(p: int, a: int) -> tuple[int, ...]:
    """E(x) = Phi_{p^a}(1 + x), of degree phi(p^a); Eisenstein at p for a >= 1.

    Phi_{p^a}(y) = sum_{i<p} y^(i p^(a-1)), so the coefficient of x^m is
    sum_{i<p} C(i p^(a-1), m).  For a = 0 it is Phi_1(1 + x) = x.

    >>> _eisenstein_poly(3, 1)
    (3, 3, 1)
    """
    if a == 0:
        return (0, 1)
    q = p ** (a - 1)
    return tuple(sum(comb(i * q, m) for i in range(p)) for m in range((p - 1) * q + 1))


@functools.lru_cache(maxsize=None)
def _binomial_rows(e: int, m: int) -> tuple[tuple[int, ...], ...]:
    """Row j holds C(u, j) mod m for j <= u < e: the pi^j-coefficients of
    (1 + pi)^u, u < e.  Row j is the prefix sums of row j - 1 (C(u, j) =
    sum_{v<u} C(v, j - 1)).

    >>> _binomial_rows(4, 3)
    ((1, 1, 1, 1), (1, 2, 0), (1, 0), (1,))
    """
    rows = [(1,) * e]
    for _ in range(e - 1):
        rows.append(tuple(c % m for c in accumulate(rows[-1][:-1])))
    return tuple(rows)


# ---------------------------------------------------------------------------


class PadicTower(NamedTuple):
    """The fixed local model for (p, k) at working precision p^N: the place
    a verdict is judged at, and what a report prints for it.

    A plain named tuple with no instance __dict__ and no table: no cache is
    keyed on it (embed_padic reads only the binomial rows of its (e, p^N)),
    so a pickled tower carries these eight fields alone.
    """

    p: int
    k: int
    precision: int
    k_tame: int            # prime-to-p part k'
    wild_exp: int          # a with k = p^a k'
    f_res: int             # residue degree = deg of the chosen factor
    e_ram: int             # ramification index = phi(p^a)
    factor: tuple[int, ...]  # monic divisor of Phi_{k'} mod p^N

    @property
    def modulus(self) -> int:
        return self.p**self.precision


@functools.lru_cache(maxsize=None)
def build_tower(p: int, k: int, precision: int = N_START) -> PadicTower:
    """Construct (and cache) the local model for (p, k) at precision p^N."""
    if k < 1 or precision < 1:
        raise ValueError("k and precision must be positive")
    k1, _beta = _tame_part(p, k)
    a = valuation(k // k1, p)
    g_N = _hensel_lift(k1, residue_factor(p, k1), p, precision)
    return PadicTower(p, k, precision, k1, a, len(g_N) - 1, euler_phi(p**a), tuple(g_N))


class PadicElt(NamedTuple):
    """An element C / p^shift with C an e x f coefficient matrix mod p^N."""

    tower: PadicTower
    shift: int
    mat: tuple[tuple[int, ...], ...]

    def _check(self, other: PadicElt):
        if self.tower is not other.tower and self.tower != other.tower:
            raise ValueError("elements live in different towers")

    def __mul__(self, other: PadicElt):
        self._check(other)
        t = self.tower
        eis = _eisenstein_poly(t.p, t.wild_exp)
        mat = tower_mul(self.mat, other.mat, t.factor, eis, t.modulus)
        return PadicElt(t, self.shift + other.shift, tuple(tuple(r) for r in mat))


def embed_padic(z: CycloElt, tower: PadicTower) -> PadicElt:
    """The image of z under the fixed embedding; z.order must divide k.

    z is first rewritten in Q(zeta_k) (CycloElt.embed_into), z = (sum_m n_m
    zeta_k^m) / den, and each n_m is added into bucket (u, t) of
    zeta_k^m = y^u w^t (module docstring).  Each row u >= e is folded over Z
    by Phi_{p^a}(y) = sum_{i<p} y^(i p^(a-1)) into the rows u - e + i p^(a-1),
    i < p - 1, all below e, and each of the e rows left by Phi_{k'}
    (cyclo._reduce).  The pi-row j of the image is sum_u C(u, j) y_u
    (_binomial_rows), reduced by the lifted g mod p^N and scaled by the
    inverse of den's p-free part; den's p-part becomes the shift.
    """
    z = z.embed_into(tower.k)
    p, pN, N, e = tower.p, tower.modulus, tower.precision, tower.e_ram
    s = valuation(z.den, p) if z.den % p == 0 else 0
    if s >= N:
        raise PrecisionExhausted(
            f"denominator p-exponent {s} consumes the precision budget N={N}"
        )
    inv_unit = pow(z.den // p**s, -1, pN)
    k1, beta = _tame_part(p, tower.k)
    pa = tower.k // k1
    alpha = pow(k1, -1, pa)
    rows = [[0] * k1 for _ in range(pa)]
    for m, n in enumerate(z.nums):
        if n:
            rows[alpha * m % pa][beta * m % k1] += n
    for u in range(pa - 1, e - 1, -1):  # y^u = -sum_{i<p-1} y^(u - e + i p^(a-1))
        src = rows.pop()
        for i in range(u - e, e, pa // p):
            rows[i] = list(map(sub, rows[i], src))
    cols = list(zip(*(_reduce(k1, row) for row in rows)))
    mat = []
    for j, binomials in enumerate(_binomial_rows(e, pN)):
        row = [sum(map(mul, binomials, col[j:])) for col in cols]
        mat.append(tuple(c * inv_unit % pN for c in reduce_mod(row, tower.factor, pN)))
    return PadicElt(tower, s, tuple(mat))


def padic_valuation(elt: PadicElt):
    """Exact valuation (v(p) = 1) or ABOVE_PRECISION if elt = 0 mod p^N."""
    t = elt.tower
    p, e, pN = t.p, t.e_ram, t.modulus
    best = None  # min_j e v(c_j) + j, an integer
    for j, row in enumerate(elt.mat):
        vmin = None
        for c in row:
            c %= pN
            if c:
                v = valuation(c, p)
                if vmin is None or v < vmin:
                    vmin = v
                    if vmin == 0:
                        break
        if vmin is None:
            continue
        cand = vmin * e + j
        if best is None or cand < best:
            best = cand
    if best is None:
        return ABOVE_PRECISION
    return Fraction(best - elt.shift * e, e)


def padic_residue(elt: PadicElt) -> tuple[int, ...]:
    """Image in the residue field F_{p^f} as coefficients on 1..x^(f-1).

    Requires v(elt) >= 0; elements of positive valuation map to 0.
    """
    v = padic_valuation(elt)
    if v is ABOVE_PRECISION:
        raise PrecisionExhausted("cannot reduce: element vanishes mod p^N")
    if v < 0:
        raise ValueError("cannot reduce an element of negative valuation")
    p = elt.tower.p
    ps = p**elt.shift
    row0 = elt.mat[0]
    for row in elt.mat:
        if any(c % ps for c in row):
            raise TheoremViolation("integral element must clear its shift")
    return tuple(c // ps % p for c in row0)


def teichmuller(a: int, p: int, precision: int) -> int:
    """The Teichmueller representative of a mod p^precision.

    >>> teichmuller(2, 5, 2)
    7
    """
    pN = p**precision
    x = a % pN
    while True:
        y = pow(x, p, pN)
        if y == x:
            return x
        x = y


def residue_image(z: CycloElt, p: int) -> tuple[int, ...]:
    """The image of z in the residue field O/P = F_p[x]/(g), g the chosen
    factor of Phi_{k'} mod p, as coefficients on 1..x^(f-1).  z must be
    p-integral with p prime to its denominator.

    zeta_k^m reduces to x^(beta m mod k') (_tame_part: the p-power part goes
    to 1), so with z = (sum_m n_m zeta_k^m) / den, k = z.order, each n_m is
    added into bucket beta m mod k', the buckets are reduced once mod (g, p)
    and the result is scaled by den^(-1) mod p.  This is the row 0 of
    embed_padic's image, mod p (padic_residue).

    >>> residue_image(CycloElt.rational(10), 7)
    (3,)
    """
    if z.den % p == 0:
        raise ValueError(f"the denominator {z.den} is divisible by p={p}")
    k1, beta = _tame_part(p, z.order)
    buckets = [0] * k1
    for m, n in enumerate(z.nums):
        buckets[beta * m % k1] += n
    inv_den = pow(z.den, -1, p)
    return tuple(c * inv_den % p for c in reduce_mod(buckets, residue_factor(p, k1), p))


def cyclo_valuation(z: CycloElt, p: int, n_start: int = N_START):
    """Valuation of a nonzero cyclotomic number at the chosen place.

    Returns (valuation, tower): the tower is build_tower(p, z.order, N) at
    the precision N the valuation was decided at.  A value whose denominator
    is prime to p is p-integral, and it is a unit exactly when its residue
    (residue_image) is nonzero: then the valuation is 0 and the tower is the
    one at n_start, and it is not embedded.  Any other value runs the
    precision ladder (_ladder): N = n_start, 2 n_start, ... up to N_CAP,
    raising PrecisionExhausted if it ends without a decision.
    """
    if z.is_zero():
        raise ZeroDivisionError("the valuation of 0 is +infinity")
    if z.den % p and any(residue_image(z, p)):
        return Fraction(0), build_tower(p, z.order, n_start)
    return _ladder(z, p, n_start)[:2]


def _ladder(z: CycloElt, p: int, n_start: int):
    """(valuation, tower, image of z in that tower) for a nonzero z, from
    the precision ladder of cyclo_valuation: z is embedded at each rung
    N = n_start, 2 n_start, ... <= N_CAP until its valuation is decided."""
    n = n_start
    while n <= N_CAP:
        tower = build_tower(p, z.order, n)
        try:
            image = embed_padic(z, tower)
        except PrecisionExhausted:
            n *= 2
            continue
        v = padic_valuation(image)
        if v is not ABOVE_PRECISION:
            return v, tower, image
        n *= 2
    raise PrecisionExhausted(
        f"valuation undecided at the precision cap N={N_CAP} (p={p}, k={z.order})"
    )


@functools.lru_cache(maxsize=None)
def _power_residues(p: int, k1: int) -> tuple[tuple[int, ...], ...]:
    """x^e mod the chosen factor of Phi_{k1} mod p, for e = 0, ..., k1 - 1."""
    g = residue_factor(p, k1)
    rows = [(1,) + (0,) * (len(g) - 2)]
    for _ in range(k1 - 1):
        rows.append(tuple(reduce_mod([0, *rows[-1]], g, p)))
    return tuple(rows)


@functools.lru_cache(maxsize=None)
def _tame_part(p: int, k: int) -> tuple[int, int]:
    """The tame split (k', beta) of k = p^a k', beta p^a = 1 mod k', for an
    odd prime p: zeta_k^m reduces to x^(beta m mod k')."""
    if p == 2 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    a_wild = factorize(k).get(p, 0)
    k1 = k // p**a_wild
    return k1, pow(p**a_wild, -1, k1) if k1 > 1 else 1


def char_is_omega_power_mod_p(chi: DirichletChar, p: int, t: int) -> bool:
    """Does chi reduce to omega^t mod the chosen place above p?

    Tested on the generators of (Z/lcm(f, p))^*, which suffices by
    multiplicativity: the residue of chi(g) (p-power-order parts reduce
    to 1) must equal g^t mod p.

    Each such g is CRT-lifted from its own component, so mod f it is the
    generator g_i of (Z/f)^* of the same component, or 1 for p's own
    generator when p does not divide f.  So chi(g) = zeta_k^(w_i), the
    weights w_i of _char_data, or 1, with no discrete logarithm; any other
    g raises TheoremViolation.

    If p does not divide f and p - 1 does not divide t, the answer is no
    without a table: (Z/fp)^* = (Z/f)^* x (Z/p)^*, so some g is 1 mod f
    and a primitive root mod p.  Then chi(g) = chi(1) = 1 has residue 1,
    while g^t != 1 mod p.
    """
    f = chi.modulus
    k, weights = _char_data(f, chi.exponents)
    # residue of zeta_k^m: the p-power part drops to 1 and the tame part is
    # x^(beta m), as in residue_image.
    k1, beta = _tame_part(p, k)
    if f % p and t % (p - 1):
        return False
    residues = _power_residues(p, k1)
    zeros = (0,) * (len(residues[0]) - 1)
    weight_of = {g: w for (g, _o), w in zip(unit_group_basis(f).generators, weights)}
    weight_of[1 % f] = 0
    m_mod = lcm(f, p)
    for g, _o in unit_group_basis(m_mod).generators:
        m = weight_of.get(g % f)
        if m is None:
            raise TheoremViolation(
                f"the generator {g} mod {m_mod} is neither 1 nor a generator mod {f}")
        # g is a unit mod p, so g^t mod p is a nonzero constant
        if residues[m * beta % k1] != (pow(g, t, p), *zeros):
            return False
    return True
