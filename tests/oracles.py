"""Straightforward reference implementations of the optimised verification
primitives, kept as differential-test oracles.

Each function is the plain textbook form of a primitive that `pmpdas`
computes faster: the affine Miller loop with one inversion per step, the
final exponentiation with generic Fp12 squarings, the G1 subgroup check as
multiplication by r, G1 and G2 multi-scalar multiplications as sums of
ladders, single and batched KZG verification with one scalar multiplication per
term, and the DHT's rendezvous peer order sorted afresh on every call.
"""

import hashlib

from pmpdas.curve import G1Point, G2Point, _g1_to_affine, _g2_to_affine
from pmpdas.field_poly import SCALAR_MODULUS
from pmpdas.fields import (
    BLS_X, FP2_ZERO, FP12_ONE, P, R,
    fp2_inv, fp2_mul, fp2_neg, fp2_scalar_mul, fp2_sqr, fp2_sub,
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


# ---------------------------------------------------------------------------
# DHT placement

def ranked_peers(key: bytes, n_peers: int) -> list:
    """Peers 0..n_peers-1 sorted by SHA-256(key || peer as 4 big-endian
    bytes): the rendezvous order, recomputed without a memo."""
    return sorted(
        range(n_peers),
        key=lambda p: hashlib.sha256(key + p.to_bytes(4, "big")).digest())
