"""The hot loops behind every cyclotomic product (poly_mul_reduce) and every
local-ring product in a p-adic tower (tower_mul)."""


def poly_mul_reduce(a, b, red_rows):
    """Product of two length-d coefficient lists, reduced back to length d.

    red_rows[m] is the expansion of x^(d+m) on the basis 1, x, ..., x^(d-1)
    of the quotient by a fixed monic polynomial of degree d.
    """
    d = len(a)
    n = 2 * d - 1
    c = [0] * n
    for i in range(d):
        ai = a[i]
        if not ai:
            continue
        for j in range(d):
            bj = b[j]
            if bj:
                c[i + j] += ai * bj
    out = c[:d]
    for m in range(d, n):
        cm = c[m]
        if cm:
            row = red_rows[m - d]
            for i in range(d):
                ri = row[i]
                if ri:
                    out[i] += cm * ri
    return out


def tower_mul(amat, bmat, grows, erows, modulus):
    """Product of two elements of (Z/modulus)[x, pi]/(g(x), E(pi)).

    amat and bmat are e x f matrices (lists of lists of ints): row j holds
    the x-coefficients of pi^j.  grows[m] expands x^(f+m) mod g; erows[m]
    expands pi^(e+m) mod E with constant (x-free) entries.
    """
    e = len(amat)
    f = len(amat[0])
    scratch = [[0] * (2 * f - 1) for _ in range(2 * e - 1)]
    for j1 in range(e):
        arow = amat[j1]
        for j2 in range(e):
            brow = bmat[j2]
            row = scratch[j1 + j2]
            for i1 in range(f):
                ai = arow[i1]
                if not ai:
                    continue
                for i2 in range(f):
                    bi = brow[i2]
                    if bi:
                        row[i1 + i2] += ai * bi
    reduced = []
    for row in scratch:
        out = row[:f]
        for m in range(f, 2 * f - 1):
            cm = row[m]
            if cm:
                g = grows[m - f]
                for i in range(f):
                    gi = g[i]
                    if gi:
                        out[i] += cm * gi
        reduced.append(out)
    out = reduced[:e]
    for m in range(e, 2 * e - 1):
        row = reduced[m]
        er = erows[m - e]
        for j in range(e):
            cj = er[j]
            if not cj:
                continue
            tgt = out[j]
            for i in range(f):
                ri = row[i]
                if ri:
                    tgt[i] += cj * ri
    return [[x % modulus for x in row] for row in out]
