"""Straightforward reference implementations of the optimised verification
primitives, kept as differential-test oracles.

Each function is the plain textbook form of a primitive that `pmpdas`
computes faster: the affine Miller loop with one inversion per step, the
projective Miller loop that computes every line afresh on each call, the
final exponentiation with generic Fp12 squarings, the G1 subgroup check as
multiplication by r, G1 and G2 multi-scalar multiplications as sums of
ladders, single, batched and shared-point KZG verification with one scalar
multiplication per term and one unbatched pairing check each, and the DHT's
rendezvous peer order sorted afresh on every call.
"""

import hashlib

from pmpdas.curve import G1Point, G2Point, _g1_to_affine, _g2_to_affine
from pmpdas.field_poly import SCALAR_MODULUS, interpolate, vanishing_poly
from pmpdas.fields import (
    BLS_X, BLS_X_BITS, FP2_ONE, FP2_ZERO, FP12_ONE, P, R,
    fp2_add, fp2_inv, fp2_mul, fp2_neg, fp2_scalar_mul, fp2_sqr, fp2_sub,
    fp12_conj, fp12_frobenius, fp12_frobenius_n, fp12_inv, fp12_mul,
    fp12_sqr,
)
from pmpdas.kzg import KzgError


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


def _fp12_mul_by_line(f, line):
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
            f = _fp12_mul_by_line(f, _line_eval(ts[i], ts[i], xp, yp))
            ts[i] = _affine_g2_double(ts[i])
        if bit == "1":
            for i, (pa, qa) in enumerate(pairs):
                xp, yp = pa
                f = _fp12_mul_by_line(f, _line_eval(ts[i], qa, xp, yp))
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
            f = _fp12_mul_by_line(f, line)
        if bit == "1":
            for i in range(n):
                ts[i], line = _projective_add_step(ts[i], qs[i], *ps[i])
                f = _fp12_mul_by_line(f, line)
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
        pa = _g1_to_affine(g1pt.raw)
        qa = _g2_to_affine(g2pt.raw)
        if pa is None or qa is None:
            continue
        affine.append((pa, qa))
    if not affine:
        return FP12_ONE
    return final_exponentiation(miller_loop(affine))


# ---------------------------------------------------------------------------
# G1 subgroup membership

def g1_in_subgroup(pt: G1Point) -> bool:
    """r * P == O by the unreduced 255-bit ladder."""
    return G1Point._ladder(pt.raw, R)[2] == 0


# ---------------------------------------------------------------------------
# Multi-scalar multiplication

def g1_msm(points, scalars) -> G1Point:
    """Sum of one double-and-add ladder per term."""
    acc = G1Point.identity()
    for pt, s in zip(points, scalars):
        acc = acc + G1Point(G1Point._ladder(pt.raw, s % R))
    return acc


def g2_msm(points, scalars) -> G2Point:
    """Sum of one double-and-add ladder per term."""
    acc = G2Point.identity()
    for pt, s in zip(points, scalars):
        acc = acc + G2Point(G2Point._ladder(pt.raw, s % R))
    return acc


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
    the interpolant of the combined values, every product a ladder."""
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
    bytes): the rendezvous order, recomputed without a memo."""
    return sorted(
        range(n_peers),
        key=lambda p: hashlib.sha256(key + p.to_bytes(4, "big")).digest())
