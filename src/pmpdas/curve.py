"""BLS12-381 group arithmetic, compressed serialization, and the pairing.

G1 lives on y^2 = x^3 + 4 over Fp, G2 on y^2 = x^3 + 4(1+u) over Fp2.
A point is its affine coordinates (x, y) as a plain tuple, or None for
the identity; Jacobian tuples live only inside the ladder, the MSM walks
and the Miller loop, and each walk's results share one inversion on the
way out. One immutable point base holds the point API and the
compressed-encoding frame; :class:`G1Point` and :class:`G2Point` supply
only their doubling, their one mixed Jacobian + affine addition, their
batch-affine formulas, their x-coordinate codec and their subgroup test.
Both groups share one double-and-add ladder and one signed-window MSM
walk over affine tables.

Serialization follows the common 48/96-byte compressed convention:
big-endian x with flag bits in the three high bits of the first byte
(compressed, infinity, lexicographically-largest y).
"""

from __future__ import annotations

from .fields import (
    P, R, BLS_X, BLS_X_BITS,
    FP2_ZERO, FP2_ONE, FP12_ONE,
    fp2_add, fp2_sub, fp2_neg, fp2_mul, fp2_sqr, fp2_scalar_mul,
    fp2_is_zero, fp2_sqrt, fp2_lexicographically_largest,
    fp12_sqr, fp12_conj, fp12_mul_by_line, final_exponentiation,
)


class CurveError(ValueError):
    """Malformed or off-curve point encoding."""


# Jacobian infinity markers.
_INF1 = (0, 1, 0)
_INF2 = (FP2_ZERO, FP2_ONE, FP2_ZERO)

_B1 = 4
_B2 = (4, 4)  # 4 * (1 + u)

# The cube root of unity for which phi(x, y) = (beta*x, y) acts on G1 as
# multiplication by -x^2; x^2 has 128 bits, 17 of them set.
_BETA = pow(2, (P - 1) // 3, P)
_X_SQUARED = BLS_X * BLS_X


# ---------------------------------------------------------------------------
# G1 Jacobian arithmetic over ints

def _g1_double(pt):
    x, y, z = pt
    if z == 0:
        return pt
    a = x * x % P
    b = y * y % P
    c = b * b % P
    d = 2 * ((x + b) * (x + b) - a - c) % P
    e = 3 * a % P
    f = e * e % P
    x3 = (f - 2 * d) % P
    y3 = (e * (d - x3) - 8 * c) % P
    z3 = 2 * y * z % P
    return (x3, y3, z3)


# ---------------------------------------------------------------------------
# G2 Jacobian arithmetic over Fp2

def _g2_double(pt):
    x, y, z = pt
    if fp2_is_zero(z):
        return pt
    a = fp2_sqr(x)
    b = fp2_sqr(y)
    c = fp2_sqr(b)
    d = fp2_scalar_mul(fp2_sub(fp2_sub(fp2_sqr(fp2_add(x, b)), a), c), 2)
    e = fp2_scalar_mul(a, 3)
    f = fp2_sqr(e)
    x3 = fp2_sub(f, fp2_scalar_mul(d, 2))
    y3 = fp2_sub(fp2_mul(e, fp2_sub(d, x3)), fp2_scalar_mul(c, 8))
    z3 = fp2_scalar_mul(fp2_mul(y, z), 2)
    return (x3, y3, z3)


# ---------------------------------------------------------------------------
# Multi-scalar multiplication
#
# Every MSM here is one signed-window walk. Each term is a table of the
# multiples 1..2^(w-1) of its base and the base's scalar written in signed
# w-bit digits, so a negative digit reads the same table negated
# (Brickell, Gordon, McCurley and Wilson, EUROCRYPT 1992; Moeller, SAC
# 2001). The walk first sums each window's digits over all terms,
# S_i = sum_j d_ij * T_j, and then forms sum_i 2^(w*i) * S_i in one Horner
# pass of w doublings and one addition per window. Tables and window sums
# are affine in both groups: a term's additions into the windows are
# independent of each other, so they share one inversion (Montgomery,
# Math. Comp. 1987) and each costs about 6 multiplications, against 11
# for a mixed Jacobian + affine addition. On G2 the shared inversion is of
# Fp2 denominators, 1/(a + b*u) = (a - b*u)/(a^2 + b^2), so only their
# norms in Fp go through the one inversion. A group supplies only its
# batch normalisation, its affine sums, its affine negation and its mixed
# addition, which adds a sum to the Horner pass's Jacobian accumulator.
# The mixed addition is each group's one addition of single points: the
# ladder of `*` and of the subgroup checks, and `+`, add their affine
# right side with it too. The Horner passes of one walk end in Jacobian
# tuples, and `_Point._from_jacobian` normalises them all with one
# inversion.
#
# The fixed-base walk (the SRS powers) uses 8-bit windows over tables
# built once, and splits each scalar k as t + q*x^2 with t, q < 2^128
# (Gallant, Lambert and Vanstone, CRYPTO 2001): on the points of order r,
# x^2 * P is -phi(P) = (beta*x, -y), so each point's table carries the
# phi images of its multiples, which share their y-coordinates, and -q
# walks them. Each output's Horner pass then takes about 136 doublings
# instead of 256. The variable-base walk builds 4-bit tables per call and
# does not split: a round check has only a few Horner passes, and the
# additions dominate. One builder, `_affine_multiples`, makes every
# table of both groups, and one adder, `_add_to_window_sums`, adds every
# term into the window sums. Both walks take several rows of scalars over
# one list of tables (the openings of one polynomial, the G2 bases of a
# round check): each
# table's digits for every row go into one vector of window sums, row
# after row, so one addition of a term (one inversion) serves every row,
# and each row then takes its own Horner pass.
#
# Many multiples of one point (the SRS powers in the trusted setup) take a
# fixed-base comb instead (Lim and Lee, CRYPTO 1994), with the 4-bit
# digits: the point's shifted bases 2^(4*i) * P, up to 64 of them, each
# get a table of their multiples 1..8, and output j is
# sum_i d_ji * 2^(4*i) * P. The roles of the MSM walk swap: the output
# index takes the place of the window index, so a window's table adds
# into every output's sum at once with one shared inversion, and each
# output costs one addition per non-zero digit and no doubling. The
# tables cost about 256 doublings and 512 multiples, so a lone k * P
# keeps the ladder.

_FB_WINDOW = 8
_WINDOW = 4
# the variable-base MSM walks a scalar k > r/2 as k - r (see `_msm`)
_HALF_R = R // 2


def _g1_add_affine(pt, q):
    """pt + q for a Jacobian pt and an affine q = (x, y) (madd-2007-bl)."""
    x1, y1, z1 = pt
    x2, y2 = q
    if z1 == 0:
        return (x2, y2, 1)
    z1z1 = z1 * z1 % P
    h = (x2 * z1z1 - x1) % P
    r = 2 * (y2 * z1 * z1z1 - y1) % P
    if h == 0:
        if r == 0:
            return _g1_double((x2, y2, 1))
        return _INF1
    hh = h * h % P
    i = 4 * hh
    j = h * i % P
    v = x1 * i % P
    x3 = (r * r - j - 2 * v) % P
    y3 = (r * (v - x3) - 2 * y1 * j) % P
    z3 = 2 * z1 * h % P
    return (x3, y3, z3)


def _g2_add_affine(pt, q):
    """pt + q for a Jacobian G2 pt and an affine q = (x, y), over Fp2
    (madd-2007-bl, as `_g1_add_affine`)."""
    x1, y1, z1 = pt
    x2, y2 = q
    if fp2_is_zero(z1):
        return (x2, y2, FP2_ONE)
    z1z1 = fp2_sqr(z1)
    h = fp2_sub(fp2_mul(x2, z1z1), x1)
    r = fp2_scalar_mul(fp2_sub(fp2_mul(fp2_mul(y2, z1), z1z1), y1), 2)
    if fp2_is_zero(h):
        if fp2_is_zero(r):
            return _g2_double((x2, y2, FP2_ONE))
        return _INF2
    i = fp2_scalar_mul(fp2_sqr(h), 4)
    j = fp2_mul(h, i)
    v = fp2_mul(x1, i)
    x3 = fp2_sub(fp2_sub(fp2_sqr(r), j), fp2_scalar_mul(v, 2))
    y3 = fp2_sub(fp2_mul(r, fp2_sub(v, x3)),
                 fp2_scalar_mul(fp2_mul(y1, j), 2))
    z3 = fp2_scalar_mul(fp2_mul(z1, h), 2)
    return (x3, y3, z3)


def _batch_inverse(values):
    """Inverses mod P of the values with one inversion (Montgomery's
    trick)."""
    prefix = []
    acc = 1
    for v in values:
        prefix.append(acc)
        acc = acc * v % P
    if acc == 0:
        raise CurveError("MSM point is the identity or outside the "
                         "prime-order subgroup")
    inv = pow(acc, -1, P)
    out = [0] * len(values)
    for i in range(len(values) - 1, -1, -1):
        out[i] = inv * prefix[i] % P
        inv = inv * values[i] % P
    return out


def _g1_affine_sums(pairs):
    """p + q for each pair of affine points with p != -q, with one shared
    inversion; p == q is a doubling."""
    dens = [x2 - x1 if x1 != x2 else 2 * y1
            for (x1, y1), (x2, _) in pairs]
    out = []
    for ((x1, y1), (x2, y2)), inv in zip(pairs, _batch_inverse(dens)):
        # the chord's slope, or the tangent's when the points are equal
        lam = (y2 - y1 if x1 != x2 else 3 * x1 * x1) * inv % P
        x3 = (lam * lam - x1 - x2) % P
        out.append((x3, (lam * (x1 - x3) - y1) % P))
    return out


def _g1_normalize(points):
    """The affine forms of non-identity Jacobian G1 points, with one
    shared inversion."""
    out = []
    for (x, y, _), zi in zip(points, _batch_inverse([z for *_, z in points])):
        zi2 = zi * zi % P
        out.append((x * zi2 % P, y * zi2 * zi % P))
    return out


def _fp2_batch_inverse(values):
    """Inverses in Fp2 of the values with one inversion: 1/(a + b*u) is
    (a - b*u)/(a^2 + b^2), so only the norms a^2 + b^2 in Fp are
    inverted, through `_batch_inverse`."""
    norms = _batch_inverse([a * a + b * b for a, b in values])
    return [(a * n % P, -b * n % P) for (a, b), n in zip(values, norms)]


def _g2_affine_sums(pairs):
    """p + q for each pair of affine G2 points with p != -q, with one
    shared inversion; p == q is a doubling."""
    dens = [fp2_sub(x2, x1) if x1 != x2 else fp2_add(y1, y1)
            for (x1, y1), (x2, _) in pairs]
    out = []
    for ((x1, y1), (x2, y2)), inv in zip(pairs, _fp2_batch_inverse(dens)):
        # the chord's slope, or the tangent's when the points are equal
        num = fp2_sub(y2, y1) if x1 != x2 else fp2_scalar_mul(fp2_sqr(x1), 3)
        lam = fp2_mul(num, inv)
        x3 = fp2_sub(fp2_sub(fp2_sqr(lam), x1), x2)
        out.append((x3, fp2_sub(fp2_mul(lam, fp2_sub(x1, x3)), y1)))
    return out


def _g2_normalize(points):
    """The affine forms of non-identity Jacobian G2 points, with one
    shared inversion."""
    out = []
    for (x, y, _), zi in zip(points,
                             _fp2_batch_inverse([z for *_, z in points])):
        zi2 = fp2_sqr(zi)
        out.append((fp2_mul(x, zi2), fp2_mul(fp2_mul(y, zi2), zi)))
    return out


def _affine_multiples(group, points, m):
    """Affine multiples (1*q, .., m*q) of each non-identity affine point q
    of the group, for m >= 1.

    They are built in ceil(log2 m) doubling levels: level h adds h*q to
    1*q .. h*q of every point, the last of them a doubling, with one
    inversion shared by the whole level.
    """
    tables = [[q] for q in points]
    h = 1
    while h < m:
        n = min(h, m - h)
        level = group._affine_sums([(q, tbl[h - 1]) for tbl in tables
                                    for q in tbl[:n]])
        for i, tbl in enumerate(tables):
            tbl += level[i * n:(i + 1) * n]
        h += n
    return [tuple(tbl) for tbl in tables]


def _add_to_window_sums(group, sums, tbl, digits):
    """sums[i] += digits[i] * base for every window i, where tbl[j] is the
    affine (j+1) * base and a window sum is affine, or None for the
    identity; the additions share one inversion."""
    neg = group._affine_neg
    windows, pairs = [], []
    for i, d in enumerate(digits):
        if not d:
            continue
        entry = tbl[d - 1] if d > 0 else neg(tbl[-d - 1])
        s = sums[i]
        if s is None:
            sums[i] = entry
        elif s[0] == entry[0] and s[1] != entry[1]:
            # the sum is the entry's negation
            sums[i] = None
        else:
            windows.append(i)
            pairs.append((s, entry))
    for i, s in zip(windows, group._affine_sums(pairs)):
        sums[i] = s


def _signed_digits(k, window):
    """Digits d_i in [-2^(w-1), 2^(w-1)] with k = sum d_i * 2^(w*i), least
    significant first, for w = `window`."""
    half = 1 << (window - 1)
    mask = (1 << window) - 1
    digits = []
    while k:
        d = k & mask
        k >>= window
        if d > half:
            d -= 1 << window
            k += 1
        digits.append(d)
    return digits


def _signed_window_msm(group, terms, window, rows):
    """Row b's sum of ks[b] * base over the (table, ks) terms, for each of
    the `rows` rows, where table[j] is (j+1) * base in the group's table
    form and ks holds one scalar per row, negative or not: |k| is walked
    in signed w-bit digits (`_signed_digits`, w = `window`), negated for
    a negative k.

    All rows share one vector of window sums, row b holding windows
    b*W .. b*W+W-1 for the W digits of the longest scalar, so one
    `_add_to_window_sums` call adds a term into every row; then each row
    takes its own Horner pass. A term's digits are made as the walk
    reaches it.
    """
    terms = list(terms)
    # a k of L bits has at most ceil(L/w) + 1 signed digits; windows above
    # a row's top digit only double the identity
    bits = max((abs(k).bit_length() for _, ks in terms for k in ks),
               default=0)
    width = -(-bits // window) + 1
    sums = [None] * (rows * width)
    for tbl, ks in terms:
        _add_to_window_sums(group, sums, tbl, _row_digits(ks, window, width))
    add, double = group._add_affine, group._double
    out = []
    for b in range(rows):
        acc = group._INF
        for s in reversed(sums[b * width:(b + 1) * width]):
            for _ in range(window):
                acc = double(acc)
            if s is not None:
                acc = add(acc, s)
        out.append(acc)
    return group._from_jacobian(out)


def _row_digits(scalars, window, width):
    """The `_signed_digits` of each scalar for w = `window`, negated for a
    negative scalar k (the digits of -k), each row zero-padded to `width`,
    in one list."""
    digits = []
    for k in scalars:
        if k < 0:
            row = [-d for d in _signed_digits(-k, window)]
        else:
            row = _signed_digits(k, window)
        digits += row + [0] * (width - len(row))
    return digits


def _msm(group, points, rows):
    """For each row of scalars, the sum of scalar*point over points of one
    group, as a `group` point; scalars are reduced mod r, and a row pairs
    with the points as zip does, a missing scalar counting as zero.

    Each point with a scalar that is nonzero mod r on some row gets one
    table, which serves every row. The points must lie in the prime-order
    subgroup, so that no multiple in a table is the identity; then a
    scalar k > r/2 is k - r, and its digits are the negated digits of
    r - k, so a short negative scalar, such as a round check's -w, walks
    as few digits as w.
    """
    kept, scalars = [], []
    for j, p in enumerate(points):
        ks = [row[j] % R if j < len(row) else 0 for row in rows]
        if any(ks) and not p.is_identity():
            kept.append(p.raw)
            scalars.append([k - R if k > _HALF_R else k for k in ks])
    tables = _affine_multiples(group, kept, 1 << (_WINDOW - 1))
    return _signed_window_msm(group, zip(tables, scalars), _WINDOW,
                              len(rows))


def fixed_base_muls(point, scalars) -> list:
    """[k * point for k in scalars] for a point of the prime-order
    subgroup, by one fixed-base comb over w-bit signed digits.

    Each shifted base 2^(w*i) * point is w doublings of the one before; the
    tables of all of them are built in one call, and window i then adds
    digit i of every scalar into that scalar's sum with one
    `_add_to_window_sums` call.
    """
    group = type(point)
    digits = [_signed_digits(k % R, _WINDOW) for k in scalars]
    sums = [None] * len(digits)
    windows = 0 if point.is_identity() else max(map(len, digits), default=0)
    bases = []
    if windows:
        raw = (*point.raw, group._ONE)
        for _ in range(windows):
            bases.append(raw)
            for _ in range(_WINDOW):
                raw = group._double(raw)
    tables = _affine_multiples(group, group._normalize(bases),
                               1 << (_WINDOW - 1))
    for i, tbl in enumerate(tables):
        _add_to_window_sums(group, sums, tbl,
                            [d[i] if i < len(d) else 0 for d in digits])
    return [group(s) for s in sums]


def g1_fixed_base_tables(points) -> tuple:
    """The table of each point P of the prime-order subgroup for
    `g1_fixed_base_msms`: the affine multiples j*P and their phi images
    -j*x^2*P = (beta*x, y), for j = 1 .. 2^(w-1); empty for the
    identity, whose terms the MSM skips. All tables are built in one
    `_affine_multiples` call, so each level shares one inversion."""
    kept = [pt.raw for pt in points if not pt.is_identity()]
    built = iter(_affine_multiples(G1Point, kept, 1 << (_FB_WINDOW - 1)))
    tables = []
    for pt in points:
        if pt.is_identity():
            tables.append(())
        else:
            tbl = next(built)
            tables.append((tbl, tuple((_BETA * x % P, y) for x, y in tbl)))
    return tuple(tables)


def g1_fixed_base_msms(tables, rows) -> list:
    """For each row of scalars, the sum of scalar*point over the points
    whose `g1_fixed_base_tables` are given, as a G1Point; scalars are
    reduced mod r, and a row pairs with the tables as zip does, a missing
    scalar counting as zero.

    Every point must lie in the prime-order subgroup, where x^2 * P is
    -phi(P): a scalar k is split as t + q*x^2 with 0 <= t < x^2, so
    t, q < 2^128, and t walks the point's multiples, -q their phi images.
    One walk serves all rows (`_signed_window_msm`): each half of each
    point adds into every row with one shared inversion.
    """
    terms = []
    for j, tbl in enumerate(tables):
        ks = [row[j] % R if j < len(row) else 0 for row in rows]
        if tbl and any(ks):
            qs, ts = zip(*(divmod(k, _X_SQUARED) for k in ks))
            for half, scalars in zip(tbl, (ts, [-q for q in qs])):
                if any(scalars):
                    terms.append((half, scalars))
    return _signed_window_msm(G1Point, terms, _FB_WINDOW, len(rows))


# ---------------------------------------------------------------------------
# Pairing (optimal ate, computed on the twist)
#
# The Miller loop walks T in homogeneous projective coordinates (x = X/Z,
# y = Y/Z), so no step inverts, and multiplies f by each line directly in
# its sparse form c0 + c1*v + c2*v*w with c_i in Fp2 (Costello, Lange and
# Naehrig, PKC 2010). Each line is the affine line through T scaled by an
# Fp2 factor; the final exponentiation maps every such factor to one, so
# the pairing value is the same as with affine lines.
#
# The walk of T depends on the G2 point alone, and the G1 point P enters a
# line only as c1 = a*xp and c2 = b*(-yp). So a G2 point computes its lines
# (c0, a, b) once, on its first pairing, and keeps them (Costello and
# Stebila, "Fixed argument pairings", LATINCRYPT 2010); each pairing then
# only scales them by P.

_B2_3 = fp2_scalar_mul(_B2, 3)
_INV2 = pow(2, -1, P)

# One entry per line of the loop, in order: True for a doubling line,
# which follows a squaring of f, False for an addition line.
_LINE_SCHEDULE = tuple(
    square for bit in BLS_X_BITS
    for square in ((True, False) if bit == "1" else (True,)))


def _double_step(t):
    """T <- 2T; returns the new T and the tangent line at T, scaled by
    2*Y*Z: c0 = 3*b'*Z^2 - Y^2, a = 3*X^2 and b = 2*Y*Z."""
    x, y, z = t
    b = fp2_sqr(y)
    c = fp2_sqr(z)
    e = fp2_mul(_B2_3, c)
    f = fp2_scalar_mul(e, 3)
    h = fp2_sub(fp2_sqr(fp2_add(y, z)), fp2_add(b, c))
    g = fp2_scalar_mul(fp2_add(b, f), _INV2)
    x3 = fp2_scalar_mul(fp2_mul(fp2_mul(x, y), fp2_sub(b, f)), _INV2)
    y3 = fp2_sub(fp2_sqr(g), fp2_scalar_mul(fp2_sqr(e), 3))
    z3 = fp2_mul(b, h)
    return (x3, y3, z3), (fp2_sub(e, b), fp2_scalar_mul(fp2_sqr(x), 3), h)


def _add_step(t, q):
    """T <- T + Q for affine Q; returns the new T and the line through T
    and Q, scaled by X - x_Q*Z."""
    x, y, z = t
    xq, yq = q
    theta = fp2_sub(y, fp2_mul(yq, z))
    lam = fp2_sub(x, fp2_mul(xq, z))
    c = fp2_sqr(theta)
    d = fp2_sqr(lam)
    e = fp2_mul(lam, d)
    f = fp2_mul(z, c)
    g = fp2_mul(x, d)
    h = fp2_sub(fp2_add(e, f), fp2_scalar_mul(g, 2))
    x3 = fp2_mul(lam, h)
    y3 = fp2_sub(fp2_mul(theta, fp2_sub(g, h)), fp2_mul(y, e))
    z3 = fp2_mul(z, e)
    return (x3, y3, z3), (fp2_sub(fp2_mul(yq, lam), fp2_mul(theta, xq)),
                          theta, lam)


def _g2_lines(q):
    """The Miller-loop lines (c0, a, b) of a non-identity affine G2 point
    q, one per `_LINE_SCHEDULE` entry."""
    t = (q[0], q[1], FP2_ONE)
    lines = []
    for doubling in _LINE_SCHEDULE:
        t, line = _double_step(t) if doubling else _add_step(t, q)
        lines.append(line)
    return tuple(lines)


def _miller_loop(pairs):
    """Product of the Miller loops of the (G1Point, G2Point) pairs before
    the final exponentiation; pairs with either point at infinity are
    skipped, and with none left this is one."""
    prepared = []
    for g1pt, g2pt in pairs:
        if not (g1pt.is_identity() or g2pt.is_identity()):
            xp, yp = g1pt.raw
            prepared.append((xp, -yp % P, g2pt._lines()))
    if not prepared:
        return FP12_ONE
    f = FP12_ONE
    for i, square in enumerate(_LINE_SCHEDULE):
        if square:
            f = fp12_sqr(f)
        for xp, neg_yp, lines in prepared:
            c0, a, b = lines[i]
            f = fp12_mul_by_line(f, c0, fp2_scalar_mul(a, xp),
                                 fp2_scalar_mul(b, neg_yp))
    # The BLS parameter is negative: invert via conjugation.
    return fp12_conj(f)


def multi_pairing(pairs):
    """Product of pairings e(P_i, Q_i) as an Fp12 element.

    Pairs with either point at infinity contribute the identity.
    """
    f = _miller_loop(pairs)
    # the final exponentiation maps one to one
    return f if f == FP12_ONE else final_exponentiation(f)


def pairing_check(pairs):
    """True iff the product of pairings equals the identity."""
    return multi_pairing(pairs) == FP12_ONE


# ---------------------------------------------------------------------------
# Points

class _Point:
    """Immutable point of a prime-order subgroup.

    `raw` is None for the identity, or the point's affine coordinates
    (x, y), reduced, so equal points have equal `raw`. A group subclass
    supplies its Jacobian doubling (`_double`), its one point addition
    (`_add_affine`, which adds an affine point to a Jacobian one), its
    batch-affine arithmetic (`_normalize` for many Jacobian points with
    one inversion, `_affine_sums` for many pairs with one inversion,
    `_affine_neg`), its x-coordinate codec (`_x_to_bytes`,
    `_x_from_bytes`, `_y_from_x`, `_y_is_largest`), optionally a faster
    `in_subgroup`, and the constants `_INF` (Jacobian infinity, where the
    walks start), `_ONE` (the coordinate field's one), `_BYTES` (the
    compressed length) and `_GEN`.
    """

    __slots__ = ("raw",)

    def __init__(self, raw):
        object.__setattr__(self, "raw", raw)

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def identity(cls):
        return cls(None)

    @classmethod
    def generator(cls):
        return cls._GEN

    def is_identity(self) -> bool:
        return self.raw is None

    @classmethod
    def _from_jacobian(cls, raws):
        """The points of Jacobian tuples, the non-identity ones normalised
        with one shared inversion."""
        zero = cls._INF[2]
        affine = iter(cls._normalize([raw for raw in raws if raw[2] != zero]))
        return [cls(None if raw[2] == zero else next(affine)) for raw in raws]

    def __add__(self, other):
        if other.is_identity():
            return self
        acc = self._INF if self.is_identity() else (*self.raw, self._ONE)
        return self._from_jacobian([self._add_affine(acc, other.raw)])[0]

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return self if self.is_identity() else \
            type(self)(self._affine_neg(self.raw))

    def __mul__(self, k: int):
        # reducing mod r assumes a subgroup point; membership tests call
        # the unreduced `_ladder` instead
        return self._from_jacobian([self._ladder(self.raw, k % R)])[0]

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, type(self)) and self.raw == other.raw

    def __hash__(self):
        return hash(self.to_bytes())

    def __repr__(self):
        return f"{type(self).__name__}({self.to_bytes().hex()})"

    @classmethod
    def _ladder(cls, q, k):
        """k * q as a Jacobian tuple, for an affine q or None and any
        k >= 0, by left-to-right double-and-add with mixed additions of
        q."""
        if q is None or not k:
            return cls._INF
        add, double = cls._add_affine, cls._double
        acc = (*q, cls._ONE)
        for bit in bin(k)[3:]:
            acc = double(acc)
            if bit == "1":
                acc = add(acc, q)
        return acc

    def in_subgroup(self) -> bool:
        """r * P == O, by the ladder over all 255 bits of r."""
        return self._ladder(self.raw, R)[2] == self._INF[2]

    def to_bytes(self) -> bytes:
        if self.is_identity():
            return b"\xc0" + bytes(self._BYTES - 1)
        x, y = self.raw
        out = bytearray(self._x_to_bytes(x))
        out[0] |= 0xA0 if self._y_is_largest(y) else 0x80
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes):
        name = cls.__name__[:2]
        if len(data) != cls._BYTES:
            raise CurveError(f"{name} encoding must be {cls._BYTES} bytes, "
                             f"got {len(data)}")
        flags = data[0]
        if not flags & 0x80:
            raise CurveError(f"uncompressed {name} encodings are not supported")
        if flags & 0x40:
            if flags != 0xC0 or any(data[1:]):
                raise CurveError(f"malformed {name} infinity encoding")
            return cls.identity()
        x = cls._x_from_bytes(bytes([flags & 0x1F]) + data[1:])
        if x is None:
            raise CurveError(f"{name} x coordinate not canonical")
        y = cls._y_from_x(x)
        if y is None:
            raise CurveError(f"{name} x coordinate is not on the curve")
        pt = cls((x, y))
        if cls._y_is_largest(y) != bool(flags & 0x20):
            pt = -pt
        if not pt.in_subgroup():
            raise CurveError(f"{name} point not in the prime-order subgroup")
        return pt


class G1Point(_Point):
    """Immutable point in the G1 prime-order subgroup."""

    __slots__ = ()
    _INF, _ONE, _BYTES = _INF1, 1, 48
    _double = staticmethod(_g1_double)
    _add_affine = staticmethod(_g1_add_affine)
    _normalize = staticmethod(_g1_normalize)
    _affine_sums = staticmethod(_g1_affine_sums)

    @staticmethod
    def _affine_neg(q):
        return (q[0], P - q[1])

    @staticmethod
    def _x_to_bytes(x):
        return x.to_bytes(48, "big")

    @staticmethod
    def _x_from_bytes(data):
        x = int.from_bytes(data, "big")
        return x if x < P else None

    @staticmethod
    def _y_from_x(x):
        y2 = (x * x * x + _B1) % P
        y = pow(y2, (P + 1) // 4, P)
        return y if y * y % P == y2 else None

    @staticmethod
    def _y_is_largest(y):
        return y > P - y

    # bench/tracing.py wraps these through vars(G1Point), so they stay here
    __mul__ = __rmul__ = _Point.__mul__

    @staticmethod
    def from_bytes(data: bytes) -> "G1Point":
        return super(G1Point, G1Point).from_bytes(data)

    def in_subgroup(self) -> bool:
        """phi(P) == -x^2 * P for the endomorphism phi(x, y) = (beta*x, y).

        On BLS12-381 this holds exactly for the points of order r (Scott,
        ePrint 2021/1130), so a 128-bit ladder replaces multiplication by r.
        """
        if self.is_identity():
            return True
        # (beta*x, -y) == (X/Z^2, Y/Z^3), cross-multiplied; a Z = 0
        # result fails, since X and Y of Jacobian infinity are nonzero
        x, y = self.raw
        x2, y2, z2 = self._ladder(self.raw, _X_SQUARED)
        zz = z2 * z2 % P
        return (_BETA * x * zz - x2) % P == 0 and (y * zz * z2 + y2) % P == 0


class G2Point(_Point):
    """Immutable point in the G2 prime-order subgroup.

    A point keeps its Miller-loop lines once it has been paired, so the
    fixed G2 arguments of verification (the generator, the SRS powers, the
    memoised vanishing-polynomial commitments) compute them only once.
    """

    __slots__ = ("_prepared",)
    _INF, _ONE, _BYTES = _INF2, FP2_ONE, 96
    _double = staticmethod(_g2_double)
    _add_affine = staticmethod(_g2_add_affine)
    _normalize = staticmethod(_g2_normalize)
    _affine_sums = staticmethod(_g2_affine_sums)

    @staticmethod
    def _affine_neg(q):
        return (q[0], fp2_neg(q[1]))

    def _lines(self):
        """`_g2_lines` of this non-identity point, computed on first use."""
        try:
            return self._prepared
        except AttributeError:
            lines = _g2_lines(self.raw)
            object.__setattr__(self, "_prepared", lines)
            return lines

    @staticmethod
    def _x_to_bytes(x):
        x0, x1 = x
        return x1.to_bytes(48, "big") + x0.to_bytes(48, "big")

    @staticmethod
    def _x_from_bytes(data):
        x1 = int.from_bytes(data[:48], "big")
        x0 = int.from_bytes(data[48:], "big")
        return (x0, x1) if x0 < P and x1 < P else None

    @staticmethod
    def _y_from_x(x):
        return fp2_sqrt(fp2_add(fp2_mul(fp2_sqr(x), x), _B2))

    _y_is_largest = staticmethod(fp2_lexicographically_largest)


def g1_msms(points, rows) -> list:
    """One multi-scalar multiplication per row of scalars over one list of
    G1Point wrappers of subgroup points, sharing each point's table and
    each term's inversion across the rows (see `_msm`)."""
    return _msm(G1Point, points, rows)


def g1_msm(points, scalars) -> G1Point:
    """Multi-scalar multiplication over G1Point wrappers of subgroup
    points: the one-row case of `g1_msms`."""
    return g1_msms(points, [scalars])[0]


def g2_msm(points, scalars) -> G2Point:
    """Multi-scalar multiplication over G2Point wrappers."""
    return _msm(G2Point, points, [scalars])[0]


G1Point._GEN = G1Point((
    0x17F1D3A73197D7942695638C4FA9AC0FC3688C4F9774B905A14E3A3F171BAC586C55E83FF97A1AEFFB3AF00ADB22C6BB,
    0x08B3F481E3AAA0F1A09E30ED741D8AE4FCF5E095D5D00AF600DB18CB2C04B3EDD03CC744A2888AE40CAA232946C5E7E1,
))

G2Point._GEN = G2Point((
    (0x024AA2B2F08F0A91260805272DC51051C6E47AD4FA403B02B4510B647AE3D1770BAC0326A805BBEFD48056C8C121BDB8,
     0x13E02B6052719F607DACD3A088274F65596BD0D09920B61AB5DA61BBDC7F5049334CF11213945D57E5AC7D055D042B7E),
    (0x0CE5D527727D6E118CC9CDC6DA2E351AADFD9BAA8CBDD3A76D429A695160D12C923AC9CC3BACA289E193548608B82801,
     0x0606C4A02EA734CC32ACD2B02BC28B99CB3E287E85A763AF267492AB572E99AB3F370D275CEC1DA1AAA9075FF05F79BE),
))
