"""The one polynomial layer: every product and every remainder by a monic
polynomial of coefficient lists (ascending, Python ints).

It holds one convolution (convolve) and one reduction per ring: over Z by
staged monic moduli (reduce_by_stages) and over Z/m by one monic modulus
(reduce_mod), both from the top coefficient down, in place.  The products
compose them: poly_mul_reduce for a cyclotomic number, mulmod for the
Hensel lift and the factor split, tower_mul for a local ring of a p-adic
tower.  No product keeps a table.  (Von zur Gathen & Gerhard, Modern
Computer Algebra, ch. 2.)
"""


def convolve(a, b):
    """The product of two coefficient lists, skipping their zero terms."""
    nonzero = [(j, y) for j, y in enumerate(b) if y]
    c = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in nonzero:
                c[i + j] += x * y
    return c


def reduce_by_stages(rem, stages):
    """rem mod the last of the monic stages, in place: long division by each
    stage in turn, from the top coefficient down.  A stage (top, low) is
    x^top + sum c x^i over its nonzero lower terms (i, c) in low.  Returns rem
    cut to the last stage's degree (or shorter, if it already was)."""
    for top, low in stages:
        for s in range(len(rem) - 1 - top, -1, -1):  # x^(s+top) = x^s (x^top - stage)
            c = rem[s + top]
            if c:
                for i, a in low:
                    rem[s + i] -= c * a
        del rem[top:]
    return rem


def reduce_mod(rem, monic, m):
    """rem mod (monic, m): its coefficients from the top down reduced by the
    monic polynomial, in place, then the lowest deg(monic) of them (fewer, if
    rem is shorter) taken mod m, untrimmed.  rem is overwritten."""
    n = len(monic) - 1
    low = monic[:-1]
    for top in range(len(rem) - 1, n - 1, -1):
        if c := rem[top] % m:
            for i, g in enumerate(low, top - n):
                rem[i] -= c * g
    return [c % m for c in rem[:n]]


def mulmod(a, b, monic, m):
    """a b mod (monic, m), as reduce_mod returns it."""
    return reduce_mod(convolve(a, b), monic, m)


def poly_mul_reduce(a, b, stages):
    """Product of two length-d coefficient lists, reduced back to length d by
    the monic stages (reduce_by_stages), the last of which has degree d."""
    return reduce_by_stages(convolve(a, b), stages)


def tower_mul(amat, bmat, G, E, modulus):
    """Product of two elements of (Z/modulus)[x, pi]/(G(x), E(pi)).

    amat and bmat are e x f matrices (lists of lists of ints): row j holds
    the x-coefficients of pi^j.  G (degree f) and E (degree e, with constant,
    x-free coefficients) are monic, ascending.  Each operand is laid out as
    one list, row j at offset j (2f - 1), so a single convolution leaves
    each pi-row of the product in its own slot of 2f - 1.  The rows are
    reduced by E from the top row down, in place, and then each by G
    (reduce_mod).
    """
    e = len(amat)
    width = 2 * len(amat[0]) - 1
    prod = convolve(_spread(amat, width), _spread(bmat, width))
    rows = [prod[s : s + width] for s in range(0, (2 * e - 1) * width, width)]
    e_low = E[:-1]
    for top in range(2 * e - 2, e - 1, -1):
        src = rows.pop()  # pi^top = pi^(top - e) (pi^e - E)
        for j, c in enumerate(e_low, top - e):
            if c:
                tgt = rows[j]
                for i, x in enumerate(src):
                    tgt[i] -= c * x
    return [reduce_mod(row, G, modulus) for row in rows]


def _spread(mat, width):
    """The rows of mat laid end to end, each padded with zeros to width."""
    out = []
    for row in mat:
        out += row
        out += [0] * (width - len(row))
    return out
