"""Straightforward reference implementations of the optimised verification
primitives, kept as differential-test oracles.

Each function is the plain textbook form of a primitive that `pmpdas`
computes faster: the Fp6 and Fp12 tower products with every Fp2 product
and sum reduced, the affine Miller loop with one inversion per step, the
projective Miller loop that computes every line afresh on each call, the
final exponentiation with generic Fp12 squarings, full Jacobian +
Jacobian point addition and the right-to-left double-and-add ladder over
it in both groups, the G1 subgroup check as multiplication by r, G1 and
G2 multi-scalar multiplications as sums of ladders, the G1 signed-window
walk with one Jacobian accumulator over tables of sequential multiples,
single, batched and shared-point KZG verification with one scalar
multiplication per term and one unbatched pairing check each, the
replicas of a DHT key found by scanning every peer's store in rendezvous
order, and an ablation run that publishes, draws and verifies everything
afresh.
"""

import dataclasses
import hashlib

from pmpdas.curve import (
    G1Point, G2Point, _INF1, _INF2, _g1_add_affine, _g1_double, _g2_double,
    _signed_digits,
)
from pmpdas.dasnet import (
    SimDht, Status, VerificationCache, make_sampling_plan, publish,
    sample_and_verify,
)
from pmpdas.field_poly import SCALAR_MODULUS, interpolate, vanishing_poly
from pmpdas.fields import (
    BLS_X, BLS_X_BITS, FP2_ONE, FP2_ZERO, FP12_ONE, P, R,
    fp2_add, fp2_inv, fp2_is_zero, fp2_mul, fp2_mul_by_xi, fp2_neg,
    fp2_scalar_mul, fp2_sqr, fp2_sub, fp6_inv, fp6_neg, fp12_conj,
    fp12_frobenius, fp12_frobenius_n,
)
from pmpdas.kzg import KzgError


# ---------------------------------------------------------------------------
# Fp6 and Fp12 towers, every Fp2 product and sum reduced

def fp6_add(a, b):
    return (fp2_add(a[0], b[0]), fp2_add(a[1], b[1]), fp2_add(a[2], b[2]))


def fp6_sub(a, b):
    return (fp2_sub(a[0], b[0]), fp2_sub(a[1], b[1]), fp2_sub(a[2], b[2]))


def fp6_mul_by_v(a):
    return (fp2_mul_by_xi(a[2]), a[0], a[1])


def fp6_mul(a, b):
    a0, a1, a2 = a
    b0, b1, b2 = b
    t0 = fp2_mul(a0, b0)
    t1 = fp2_mul(a1, b1)
    t2 = fp2_mul(a2, b2)
    c0 = fp2_add(t0, fp2_mul_by_xi(
        fp2_sub(fp2_sub(fp2_mul(fp2_add(a1, a2), fp2_add(b1, b2)), t1), t2)))
    c1 = fp2_add(
        fp2_sub(fp2_sub(fp2_mul(fp2_add(a0, a1), fp2_add(b0, b1)), t0), t1),
        fp2_mul_by_xi(t2))
    c2 = fp2_add(
        fp2_sub(fp2_sub(fp2_mul(fp2_add(a0, a2), fp2_add(b0, b2)), t0), t2),
        t1)
    return (c0, c1, c2)


def fp6_sqr(a):
    return fp6_mul(a, a)


def fp12_mul(a, b):
    a0, a1 = a
    b0, b1 = b
    t0 = fp6_mul(a0, b0)
    t1 = fp6_mul(a1, b1)
    c0 = fp6_add(t0, fp6_mul_by_v(t1))
    c1 = fp6_sub(fp6_sub(fp6_mul(fp6_add(a0, a1), fp6_add(b0, b1)), t0), t1)
    return (c0, c1)


def fp12_sqr(a):
    a0, a1 = a
    t = fp6_mul(a0, a1)
    c0 = fp6_sub(
        fp6_sub(fp6_mul(fp6_add(a0, a1), fp6_add(a0, fp6_mul_by_v(a1))), t),
        fp6_mul_by_v(t))
    return (c0, fp6_add(t, t))


def fp12_inv(a):
    a0, a1 = a
    t = fp6_inv(fp6_sub(fp6_sqr(a0), fp6_mul_by_v(fp6_sqr(a1))))
    return (fp6_mul(a0, t), fp6_neg(fp6_mul(a1, t)))


def fp12_pow(a, e):
    result = FP12_ONE
    base = a
    while e:
        if e & 1:
            result = fp12_mul(result, base)
        base = fp12_sqr(base)
        e >>= 1
    return result


def _fp6_mul_by_01(a, b0, b1):
    """a * (b0 + b1*v) in Fp6."""
    a0, a1, a2 = a
    t0 = fp2_mul(a0, b0)
    t1 = fp2_mul(a1, b1)
    return (fp2_add(t0, fp2_mul_by_xi(fp2_mul(a2, b1))),
            fp2_sub(fp2_sub(fp2_mul(fp2_add(a0, a1), fp2_add(b0, b1)), t0), t1),
            fp2_add(t1, fp2_mul(a2, b0)))


def fp12_mul_by_line(f, line):
    """f * (c0 + c1*v + c2*v*w): 13 Fp2 multiplications instead of the 18
    of a full `fp12_mul`."""
    c0, c1, c2 = line
    f0, f1 = f
    a0, a1, a2 = f1
    t0 = _fp6_mul_by_01(f0, c0, c1)
    t1 = (fp2_mul_by_xi(fp2_mul(a2, c2)), fp2_mul(a0, c2), fp2_mul(a1, c2))
    r1 = fp6_sub(fp6_sub(_fp6_mul_by_01(fp6_add(f0, f1), c0, fp2_add(c1, c2)),
                         t0), t1)
    return (fp6_add(t0, fp6_mul_by_v(t1)), r1)


# ---------------------------------------------------------------------------
# Pairing

def _line_eval(t, q, xp, yp):
    """Line through affine G2 points t, q (or tangent when t == q),
    evaluated at the G1 point (xp, yp) mapped onto the twist.

    Returns a sparse Fp12 element: c0 + c1*v + c2*v*w with c_i in Fp2.
    """
    x1, y1 = t
    x2, y2 = q
    if x1 != x2:
        lam = fp2_mul(fp2_sub(y2, y1), fp2_inv(fp2_sub(x2, x1)))
    elif y1 == y2:
        lam = fp2_mul(fp2_scalar_mul(fp2_sqr(x1), 3),
                      fp2_inv(fp2_scalar_mul(y1, 2)))
    else:
        # vertical line x = x1
        return (fp2_neg(x1), (xp % P, 0), FP2_ZERO)
    c0 = fp2_sub(y1, fp2_mul(lam, x1))
    c1 = fp2_scalar_mul(lam, xp)
    c2 = ((-yp) % P, 0)
    return (c0, c1, c2)


def _fp12_mul_by_dense_line(f, line):
    """f times the line as a dense Fp12 element."""
    c0, c1, c2 = line
    g = ((c0, c1, FP2_ZERO), (FP2_ZERO, c2, FP2_ZERO))
    return fp12_mul(f, g)


def _affine_g2_double(t):
    x, y = t
    lam = fp2_mul(fp2_scalar_mul(fp2_sqr(x), 3),
                  fp2_inv(fp2_scalar_mul(y, 2)))
    x3 = fp2_sub(fp2_sqr(lam), fp2_scalar_mul(x, 2))
    y3 = fp2_sub(fp2_mul(lam, fp2_sub(x, x3)), y)
    return (x3, y3)


def _affine_g2_add(t, q):
    x1, y1 = t
    x2, y2 = q
    if x1 == x2:
        if y1 == y2:
            return _affine_g2_double(t)
        raise ArithmeticError("unexpected vertical line in Miller loop")
    lam = fp2_mul(fp2_sub(y2, y1), fp2_inv(fp2_sub(x2, x1)))
    x3 = fp2_sub(fp2_sub(fp2_sqr(lam), x1), x2)
    y3 = fp2_sub(fp2_mul(lam, fp2_sub(x1, x3)), y1)
    return (x3, y3)


_X_BITS = bin(BLS_X)[3:]  # bits below the leading one


def miller_loop(pairs):
    """Product of affine Miller loops over [(g1_affine, g2_affine), ...]."""
    f = FP12_ONE
    ts = [q for _, q in pairs]
    for bit in _X_BITS:
        f = fp12_sqr(f)
        for i, (pa, qa) in enumerate(pairs):
            xp, yp = pa
            f = _fp12_mul_by_dense_line(f, _line_eval(ts[i], ts[i], xp, yp))
            ts[i] = _affine_g2_double(ts[i])
        if bit == "1":
            for i, (pa, qa) in enumerate(pairs):
                xp, yp = pa
                f = _fp12_mul_by_dense_line(f, _line_eval(ts[i], qa, xp, yp))
                ts[i] = _affine_g2_add(ts[i], qa)
    # The BLS parameter is negative: invert via conjugation.
    return fp12_conj(f)


_B2_3 = (12, 12)  # 3 * b' for the twist's b' = 4 * (1 + u)
_INV2 = pow(2, -1, P)


def _projective_double_step(t, xp, neg_yp):
    """T <- 2T in homogeneous projective coordinates; returns the new T
    and the tangent line at T evaluated at P, scaled by 2*Y*Z."""
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
    line = (fp2_sub(e, b), fp2_scalar_mul(fp2_sqr(x), 3 * xp),
            fp2_scalar_mul(h, neg_yp))
    return (x3, y3, z3), line


def _projective_add_step(t, q, xp, neg_yp):
    """T <- T + Q for affine Q; returns the new T and the line through T
    and Q evaluated at P, scaled by X - x_Q*Z."""
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
    line = (fp2_sub(fp2_mul(yq, lam), fp2_mul(theta, xq)),
            fp2_scalar_mul(theta, xp), fp2_scalar_mul(lam, neg_yp))
    return (x3, y3, z3), line


def projective_miller_loop(pairs):
    """Product of projective Miller loops over [(g1_affine, g2_affine),
    ...], each step's line recomputed from T and scaled by P on the spot:
    the same Fp12 value as the loop over prepared lines."""
    f = FP12_ONE
    ps = [(xp, -yp % P) for (xp, yp), _ in pairs]
    qs = [q for _, q in pairs]
    ts = [(q[0], q[1], FP2_ONE) for q in qs]
    n = len(pairs)
    for bit in BLS_X_BITS:
        f = fp12_sqr(f)
        for i in range(n):
            ts[i], line = _projective_double_step(ts[i], *ps[i])
            f = fp12_mul_by_line(f, line)
        if bit == "1":
            for i in range(n):
                ts[i], line = _projective_add_step(ts[i], qs[i], *ps[i])
                f = fp12_mul_by_line(f, line)
    # The BLS parameter is negative: invert via conjugation.
    return fp12_conj(f)


def _cyclotomic_exp_x(a):
    result = FP12_ONE
    base = a
    e = BLS_X
    while e:
        if e & 1:
            result = fp12_mul(result, base)
        base = fp12_sqr(base)
        e >>= 1
    return fp12_conj(result)


def final_exponentiation(f):
    """f^(3 * (p^12 - 1) / r) with generic Fp12 squarings."""
    f = fp12_mul(fp12_conj(f), fp12_inv(f))
    f = fp12_mul(fp12_frobenius_n(f, 2), f)
    inv_f = fp12_conj(f)
    m = fp12_mul(_cyclotomic_exp_x(f), inv_f)
    m = fp12_mul(_cyclotomic_exp_x(m), fp12_conj(m))
    m = fp12_mul(_cyclotomic_exp_x(m), fp12_frobenius(m))
    m = fp12_mul(
        fp12_mul(_cyclotomic_exp_x(_cyclotomic_exp_x(m)),
                 fp12_frobenius_n(m, 2)),
        fp12_conj(m))
    return fp12_mul(m, fp12_mul(fp12_sqr(f), f))


def multi_pairing(pairs):
    """Product of pairings e(P_i, Q_i); identity pairs contribute one."""
    affine = []
    for g1pt, g2pt in pairs:
        pa = G1Point._to_affine(g1pt.raw)
        qa = G2Point._to_affine(g2pt.raw)
        if pa is None or qa is None:
            continue
        affine.append((pa, qa))
    if not affine:
        return FP12_ONE
    return final_exponentiation(miller_loop(affine))


# ---------------------------------------------------------------------------
# Jacobian + Jacobian addition and the ladder over it

def _g1_add(p1, p2):
    if p1[2] == 0:
        return p2
    if p2[2] == 0:
        return p1
    x1, y1, z1 = p1
    x2, y2, z2 = p2
    z1z1 = z1 * z1 % P
    z2z2 = z2 * z2 % P
    u1 = x1 * z2z2 % P
    u2 = x2 * z1z1 % P
    s1 = y1 * z2z2 * z2 % P
    s2 = y2 * z1z1 * z1 % P
    if u1 == u2:
        if s1 == s2:
            return _g1_double(p1)
        return _INF1
    h = (u2 - u1) % P
    i = 4 * h * h % P
    j = h * i % P
    r = 2 * (s2 - s1) % P
    v = u1 * i % P
    x3 = (r * r - j - 2 * v) % P
    y3 = (r * (v - x3) - 2 * s1 * j) % P
    z3 = ((z1 + z2) * (z1 + z2) - z1z1 - z2z2) * h % P
    return (x3, y3, z3)


def _g2_add(p1, p2):
    if fp2_is_zero(p1[2]):
        return p2
    if fp2_is_zero(p2[2]):
        return p1
    x1, y1, z1 = p1
    x2, y2, z2 = p2
    z1z1 = fp2_sqr(z1)
    z2z2 = fp2_sqr(z2)
    u1 = fp2_mul(x1, z2z2)
    u2 = fp2_mul(x2, z1z1)
    s1 = fp2_mul(fp2_mul(y1, z2z2), z2)
    s2 = fp2_mul(fp2_mul(y2, z1z1), z1)
    if u1 == u2:
        if s1 == s2:
            return _g2_double(p1)
        return _INF2
    h = fp2_sub(u2, u1)
    i = fp2_scalar_mul(fp2_sqr(h), 4)
    j = fp2_mul(h, i)
    r = fp2_scalar_mul(fp2_sub(s2, s1), 2)
    v = fp2_mul(u1, i)
    x3 = fp2_sub(fp2_sub(fp2_sqr(r), j), fp2_scalar_mul(v, 2))
    y3 = fp2_sub(fp2_mul(r, fp2_sub(v, x3)),
                 fp2_scalar_mul(fp2_mul(s1, j), 2))
    z3 = fp2_mul(fp2_sub(fp2_sub(fp2_sqr(fp2_add(z1, z2)), z1z1), z2z2), h)
    return (x3, y3, z3)


_JACOBIAN = {G1Point: (_g1_add, _g1_double), G2Point: (_g2_add, _g2_double)}


def ladder(group, raw, k):
    """k * raw for a Jacobian tuple of the group and any k >= 0, by
    right-to-left double-and-add over the Jacobian + Jacobian addition."""
    add, double = _JACOBIAN[group]
    result = group._INF
    while k:
        if k & 1:
            result = add(result, raw)
        raw = double(raw)
        k >>= 1
    return result


def point_add(p, q):
    """p + q for two points of one group, by the Jacobian + Jacobian
    addition."""
    group = type(p)
    return group(_JACOBIAN[group][0](p.raw, q.raw))


def point_mul(pt, k):
    """k * pt by the ladder, for any k >= 0; k is not reduced mod r."""
    return type(pt)(ladder(type(pt), pt.raw, k))


# ---------------------------------------------------------------------------
# G1 subgroup membership

def g1_in_subgroup(pt: G1Point) -> bool:
    """r * P == O by the unreduced 255-bit ladder."""
    return ladder(G1Point, pt.raw, R)[2] == 0


# ---------------------------------------------------------------------------
# Multi-scalar multiplication

def _msm(group, points, scalars):
    acc = group.identity()
    for pt, s in zip(points, scalars):
        acc = point_add(acc, point_mul(pt, s % R))
    return acc


def g1_msm(points, scalars) -> G1Point:
    """Sum of one double-and-add ladder per term."""
    return _msm(G1Point, points, scalars)


def g2_msm(points, scalars) -> G2Point:
    """Sum of one double-and-add ladder per term."""
    return _msm(G2Point, points, scalars)


def _batch_to_affine(points):
    """Affine forms of non-identity Jacobian G1 points, with one
    inversion."""
    prefix = []
    acc = 1
    for _, _, z in points:
        prefix.append(acc)
        acc = acc * z % P
    inv = pow(acc, -1, P)
    out = [None] * len(points)
    for i in range(len(points) - 1, -1, -1):
        x, y, z = points[i]
        zi = inv * prefix[i] % P
        inv = inv * z % P
        zi2 = zi * zi % P
        out[i] = (x * zi2 % P, y * zi2 * zi % P)
    return tuple(out)


def g1_multiples(point: G1Point, m: int) -> tuple:
    """Affine 1*q .. m*q of a non-identity point q: one Jacobian + affine
    addition after another, normalised together at the end."""
    aff = G1Point._to_affine(point.raw)
    multiples = [aff + (1,), _g1_double(aff + (1,))]
    for _ in range(m - 2):
        multiples.append(_g1_add_affine(multiples[-1], aff))
    return _batch_to_affine(multiples[:m])


def g1_window_walk(terms, window: int) -> G1Point:
    """Sum over the (affine table, digits) terms of sum_i digits[i] *
    2^(w*i) * base, with one Jacobian accumulator: w doublings per window,
    then one mixed addition per nonzero digit of every term."""
    nwin = max((len(digits) for _, digits in terms), default=0)
    acc = _INF1
    for i in range(nwin - 1, -1, -1):
        for _ in range(window):
            acc = _g1_double(acc)
        for tbl, digits in terms:
            d = digits[i] if i < len(digits) else 0
            if d > 0:
                acc = _g1_add_affine(acc, tbl[d - 1])
            elif d < 0:
                x, y = tbl[-d - 1]
                acc = _g1_add_affine(acc, (x, P - y))
    return G1Point(acc)


def g1_window_msm(points, scalars) -> G1Point:
    """The 4-bit signed-window walk over tables of sequential multiples,
    one per point of order r with a scalar that is nonzero mod r."""
    return g1_window_walk([(g1_multiples(pt, 8), _signed_digits(s % R, 4))
                           for pt, s in zip(points, scalars)
                           if s % R and not pt.is_identity()], 4)


def g1_window_fixed_base_msm(tables, scalars) -> G1Point:
    """The 8-bit signed-window walk over given fixed-base tables, each a
    pair (multiples of P, multiples of -x^2 * P): a scalar k, taken mod r,
    is t = k mod x^2 on the first and -(k // x^2) on the second."""
    terms = []
    for tables_k, s in zip(tables, scalars):
        if s % R and tables_k:
            q, t = divmod(s % R, BLS_X * BLS_X)
            terms += [(tables_k[0], _signed_digits(t, 8)),
                      (tables_k[1], [-d for d in _signed_digits(q, 8)])]
    return g1_window_walk(terms, 8)


# ---------------------------------------------------------------------------
# KZG verification

def verify_single(srs, cm, z: int, value: int, proof) -> bool:
    """e(cm - [value]_1, g2) == e(proof, [x]_2 - z*g2) with both scalar
    multiplications done as ladders."""
    g2 = G2Point.generator()
    lhs = cm - G1Point.generator() * (value % SCALAR_MODULUS)
    x_minus_z = srs.g2_powers[1] - g2 * (z % SCALAR_MODULUS)
    return multi_pairing([(lhs, g2), (-proof, x_minus_z)]) == FP12_ONE


def verify_batch_independent(srs, openings, rho: int) -> bool:
    """rho-weighted sums of e(cm - [v]_1 + z*pi, g2) == e(pi, [x]_2),
    one scalar multiplication per term."""
    if not openings:
        raise KzgError("cannot batch-verify an empty opening list")
    rho %= SCALAR_MODULUS
    g = G1Point.generator()
    g2 = G2Point.generator()
    left = G1Point.identity()
    proofs_acc = G1Point.identity()
    weight = 1
    for cm, z, value, proof in openings:
        term = cm - g * (value % SCALAR_MODULUS) + proof * (z % SCALAR_MODULUS)
        left = left + term * weight
        proofs_acc = proofs_acc + proof * weight
        weight = weight * rho % SCALAR_MODULUS
    return multi_pairing([(left, g2),
                          (-proofs_acc, srs.g2_powers[1])]) == FP12_ONE


def verify_shared(srs, group, proof, gamma: int) -> bool:
    """e(C - R, g2) == e(proof, [Z_md(x)]_2) as one unbatched two-pairing
    check: C the gamma-combination of the commitments, R the commitment to
    the interpolant of the combined values, every product a ladder. It
    computes [Z_md(x)]_2 for every micro-domain, cosets included."""
    gamma %= SCALAR_MODULUS
    md = group.micro_domain
    c = G1Point.identity()
    combined = [0] * md.size
    weight = 1
    for cm, row in zip(group.commitments, group.values):
        c = c + cm * weight
        combined = [(a + weight * v) % SCALAR_MODULUS
                    for a, v in zip(combined, row)]
        weight = weight * gamma % SCALAR_MODULUS
    r_coeffs = interpolate(md.points, combined).coeffs
    r_commit = g1_msm(srs.g1_powers[:len(r_coeffs)], r_coeffs)
    z_coeffs = vanishing_poly(md.points).coeffs
    z2 = g2_msm(srs.g2_powers[:len(z_coeffs)], z_coeffs)
    return multi_pairing([(c - r_commit, G2Point.generator()),
                          (-proof, z2)]) == FP12_ONE


# ---------------------------------------------------------------------------
# DHT placement

def ranked_peers(key: bytes, n_peers: int) -> list:
    """Peers 0..n_peers-1 sorted by SHA-256(key || peer as 4 big-endian
    bytes): the rendezvous order."""
    return sorted(
        range(n_peers),
        key=lambda p: hashlib.sha256(key + p.to_bytes(4, "big")).digest())


def replica_peers(dht, key: bytes) -> list:
    """Peers whose store holds the key, in rendezvous order: a scan of
    every peer's store, with no recorded placement."""
    return [p for p in ranked_peers(key, dht.n_peers) if key in dht.stores[p]]


def get_with_retries(dht, key: bytes, retry_budget: int):
    """(object or None, attempts) of a lookup that tries the scanned
    replicas in order, one attempt plus up to retry_budget retries."""
    attempts = 0
    for peer in replica_peers(dht, key)[: retry_budget + 1]:
        attempts += 1
        if dht.alive[peer]:
            return dht.stores[peer][key], attempts
    return None, max(attempts, 1)


# ---------------------------------------------------------------------------
# Ablation runs

def session_run(session, mode, churn: float, seed: int) -> dict:
    """`ExperimentSession.run`'s row, with nothing shared between runs:
    the arm is published into a DHT of its own, the seed's churn and
    sampling plan are drawn for this run, and the plan is sampled with a
    fresh verification cache through a copy of the session's block
    context that has located no coordinate yet."""
    cfg = session.cfg
    ctx = dataclasses.replace(session.ctx)
    published = SimDht(cfg.peers, cfg.replication, cfg.peer_capacity)
    result = publish(ctx, mode, published, objects=session.objects_for(mode))
    dht = published.with_fresh_liveness()
    dht.kill_fraction(churn, seed)
    plan = make_sampling_plan(seed, ctx.grid.dims, cfg.samples)
    outcome = sample_and_verify(plan, mode, dht, ctx,
                                retry_budget=cfg.retry_budget,
                                cache=VerificationCache())
    return {
        "mode": mode.value,
        "seed": seed,
        "churn": churn,
        "samples": outcome.sample_count,
        "objects_stored": result.object_count,
        "proof_bytes": result.proof_bytes,
        "object_bytes": result.object_bytes,
        "hit_rate": outcome.hit_rate,
        "verified": outcome.count(Status.VERIFIED),
        "verify_failures": outcome.count(Status.VERIFY_FAILED),
        "fetch_failures": outcome.count(Status.FETCH_FAILED),
        **outcome.counters.as_dict(),
    }
