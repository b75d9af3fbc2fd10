"""BLS12-381 group arithmetic, compressed serialization, and the pairing.

G1 lives on y^2 = x^3 + 4 over Fp, G2 on y^2 = x^3 + 4(1+u) over Fp2.
Points are kept in Jacobian coordinates as plain tuples; the public
:class:`G1Point` / :class:`G2Point` wrappers are thin and immutable.

Serialization follows the common 48/96-byte compressed convention:
big-endian x with flag bits in the three high bits of the first byte
(compressed, infinity, lexicographically-largest y).
"""

from __future__ import annotations

from .fields import (
    P, R, BLS_X, BLS_X_BITS,
    FP2_ZERO, FP2_ONE, FP12_ONE,
    fp2_add, fp2_sub, fp2_neg, fp2_mul, fp2_sqr, fp2_inv, fp2_scalar_mul,
    fp2_is_zero, fp2_sqrt, fp2_lexicographically_largest,
    fp2_mul_by_xi, fp6_add, fp6_sub, fp6_mul_by_v,
    fp12_sqr, fp12_conj, final_exponentiation,
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


def _g1_neg(pt):
    return (pt[0], -pt[1] % P, pt[2])


def _g1_mul(pt, k):
    # reducing mod R assumes a subgroup point; membership tests must use
    # the unreduced ladder below instead
    return _g1_mul_unreduced(pt, k % R)


def _g1_mul_unreduced(pt, k):
    result = _INF1
    while k:
        if k & 1:
            result = _g1_add(result, pt)
        pt = _g1_double(pt)
        k >>= 1
    return result


def _g1_to_affine(pt):
    x, y, z = pt
    if z == 0:
        return None
    zi = pow(z, -1, P)
    zi2 = zi * zi % P
    return (x * zi2 % P, y * zi2 * zi % P)


def _g1_eq(p1, p2):
    if p1[2] == 0 or p2[2] == 0:
        return p1[2] == 0 and p2[2] == 0
    x1, y1, z1 = p1
    x2, y2, z2 = p2
    z1z1 = z1 * z1 % P
    z2z2 = z2 * z2 % P
    return (x1 * z2z2 - x2 * z1z1) % P == 0 and \
        (y1 * z2z2 * z2 - y2 * z1z1 * z1) % P == 0


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


def _g2_neg(pt):
    return (pt[0], fp2_neg(pt[1]), pt[2])


def _g2_mul(pt, k):
    return _g2_mul_unreduced(pt, k % R)


def _g2_mul_unreduced(pt, k):
    result = _INF2
    while k:
        if k & 1:
            result = _g2_add(result, pt)
        pt = _g2_double(pt)
        k >>= 1
    return result


def _g2_to_affine(pt):
    x, y, z = pt
    if fp2_is_zero(z):
        return None
    zi = fp2_inv(z)
    zi2 = fp2_sqr(zi)
    return (fp2_mul(x, zi2), fp2_mul(fp2_mul(y, zi2), zi))


def _g2_eq(p1, p2):
    if fp2_is_zero(p1[2]) or fp2_is_zero(p2[2]):
        return fp2_is_zero(p1[2]) and fp2_is_zero(p2[2])
    a1 = _g2_to_affine(p1)
    a2 = _g2_to_affine(p2)
    return a1 == a2


# ---------------------------------------------------------------------------
# Multi-scalar multiplication (interleaved 4-bit windows)

_WINDOW = 4


def _g1_msm(points, scalars):
    """Sum of scalar*point over Jacobian G1 tuples."""
    pairs = [(p, s % R) for p, s in zip(points, scalars) if s % R and p[2] != 0]
    if not pairs:
        return _INF1
    if len(pairs) == 1:
        return _g1_mul(pairs[0][0], pairs[0][1])
    tables = []
    for p, s in pairs:
        tbl = [_INF1, p]
        for _ in range(2, 1 << _WINDOW):
            tbl.append(_g1_add(tbl[-1], p))
        tables.append((tbl, s))
    nbits = max(s.bit_length() for _, s in pairs)
    nwin = (nbits + _WINDOW - 1) // _WINDOW
    acc = _INF1
    for w in range(nwin - 1, -1, -1):
        if w != nwin - 1:
            for _ in range(_WINDOW):
                acc = _g1_double(acc)
        shift = w * _WINDOW
        for tbl, s in tables:
            digit = (s >> shift) & ((1 << _WINDOW) - 1)
            if digit:
                acc = _g1_add(acc, tbl[digit])
    return acc


# ---------------------------------------------------------------------------
# Fixed-base multi-scalar multiplication
#
# For bases that never change (the SRS powers, the generator) each point
# gets a table of its affine multiples 1..2^(w-1) once. A scalar is then
# written in signed w-bit digits, so a negative digit reads the same table
# with y negated, and every addition is a mixed Jacobian + affine one
# (Brickell, Gordon, McCurley and Wilson, EUROCRYPT 1992; Moeller, SAC
# 2001). The doublings are shared by all terms, as in `_g1_msm`.

_FB_WINDOW = 8
_FB_HALF = 1 << (_FB_WINDOW - 1)
_FB_MASK = (1 << _FB_WINDOW) - 1


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


def _g1_batch_to_affine(points):
    """Affine forms of non-identity Jacobian points, with one inversion."""
    prefix = []
    acc = 1
    for _, _, z in points:
        prefix.append(acc)
        acc = acc * z % P
    if acc == 0:
        raise CurveError("cannot normalise the point at infinity")
    inv = pow(acc, -1, P)
    out = [None] * len(points)
    for i in range(len(points) - 1, -1, -1):
        x, y, z = points[i]
        zi = inv * prefix[i] % P
        inv = inv * z % P
        zi2 = zi * zi % P
        out[i] = (x * zi2 % P, y * zi2 * zi % P)
    return tuple(out)


def _signed_digits(k):
    """Digits d_i in [-2^(w-1), 2^(w-1)] with k = sum d_i * 2^(w*i), least
    significant first."""
    digits = []
    while k:
        d = k & _FB_MASK
        k >>= _FB_WINDOW
        if d > _FB_HALF:
            d -= 1 << _FB_WINDOW
            k += 1
        digits.append(d)
    return digits


def g1_fixed_base_table(point) -> tuple:
    """Affine multiples 1*point .. 2^(w-1)*point for `g1_fixed_base_msm`;
    empty for the identity, whose terms the MSM skips."""
    aff = _g1_to_affine(point.raw)
    if aff is None:
        return ()
    multiples = [aff + (1,), _g1_double(aff + (1,))]
    for _ in range(_FB_HALF - 2):
        multiples.append(_g1_add_affine(multiples[-1], aff))
    return _g1_batch_to_affine(multiples)


def g1_fixed_base_msm(tables, scalars) -> "G1Point":
    """Sum of scalar*point over the points whose `g1_fixed_base_table`s are
    given; scalars are reduced mod r and zip stops at the shorter input."""
    terms = []
    for tbl, s in zip(tables, scalars):
        s %= R
        if s and tbl:
            terms.append((tbl, _signed_digits(s)))
    if not terms:
        return G1Point(_INF1)
    nwin = max(len(digits) for _, digits in terms)
    for _, digits in terms:
        digits.extend([0] * (nwin - len(digits)))
    acc = _INF1
    for i in range(nwin - 1, -1, -1):
        for _ in range(_FB_WINDOW):
            acc = _g1_double(acc)
        for tbl, digits in terms:
            d = digits[i]
            if d > 0:
                acc = _g1_add_affine(acc, tbl[d - 1])
            elif d < 0:
                x, y = tbl[-d - 1]
                acc = _g1_add_affine(acc, (x, P - y))
    return G1Point(acc)


def _g2_msm(points, scalars):
    pairs = [(p, s % R) for p, s in zip(points, scalars)
             if s % R and not fp2_is_zero(p[2])]
    if not pairs:
        return _INF2
    acc = _INF2
    for p, s in pairs:
        acc = _g2_add(acc, _g2_mul(p, s))
    return acc


# ---------------------------------------------------------------------------
# Pairing (optimal ate, computed on the twist)
#
# The Miller loop keeps T in homogeneous projective coordinates (x = X/Z,
# y = Y/Z), so no step inverts, and multiplies f by each line directly in
# its sparse form c0 + c1*v + c2*v*w with c_i in Fp2 (Costello, Lange and
# Naehrig, PKC 2010). Each line is the affine line through T scaled by an
# Fp2 factor; the final exponentiation maps every such factor to one, so
# the pairing value is the same as with affine lines.

_B2_3 = fp2_scalar_mul(_B2, 3)
_INV2 = pow(2, -1, P)


def _double_step(t, xp, neg_yp):
    """T <- 2T; returns the new T and the tangent line at T evaluated at P.

    The line is the affine tangent scaled by 2*Y*Z: 3*b'*Z^2 - Y^2 plus
    3*X^2*xp at v and -2*Y*Z*yp at v*w.
    """
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


def _add_step(t, q, xp, neg_yp):
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


def _fp6_mul_by_01(a, b0, b1):
    """a * (b0 + b1*v) in Fp6."""
    a0, a1, a2 = a
    t0 = fp2_mul(a0, b0)
    t1 = fp2_mul(a1, b1)
    return (fp2_add(t0, fp2_mul_by_xi(fp2_mul(a2, b1))),
            fp2_sub(fp2_sub(fp2_mul(fp2_add(a0, a1), fp2_add(b0, b1)), t0), t1),
            fp2_add(t1, fp2_mul(a2, b0)))


def _fp12_mul_by_line(f, line):
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


def _miller_loop(pairs):
    """Product of Miller loops over [(g1_affine, g2_affine), ...]."""
    f = FP12_ONE
    ps = [(xp, -yp % P) for (xp, yp), _ in pairs]
    qs = [q for _, q in pairs]
    ts = [(q[0], q[1], FP2_ONE) for q in qs]
    n = len(pairs)
    for bit in BLS_X_BITS:
        f = fp12_sqr(f)
        for i in range(n):
            ts[i], line = _double_step(ts[i], *ps[i])
            f = _fp12_mul_by_line(f, line)
        if bit == "1":
            for i in range(n):
                ts[i], line = _add_step(ts[i], qs[i], *ps[i])
                f = _fp12_mul_by_line(f, line)
    # The BLS parameter is negative: invert via conjugation.
    return fp12_conj(f)


def multi_pairing(pairs):
    """Product of pairings e(P_i, Q_i) as an Fp12 element.

    Pairs with either point at infinity contribute the identity.
    """
    affine = []
    for g1pt, g2pt in pairs:
        pa = _g1_to_affine(g1pt.raw)
        qa = _g2_to_affine(g2pt.raw)
        if pa is None or qa is None:
            continue
        affine.append((pa, qa))
    if not affine:
        return FP12_ONE
    return final_exponentiation(_miller_loop(affine))


def pairing(g1pt, g2pt):
    return multi_pairing([(g1pt, g2pt)])


def pairing_check(pairs):
    """True iff the product of pairings equals the identity."""
    return multi_pairing(pairs) == FP12_ONE


# ---------------------------------------------------------------------------
# Public point wrappers

class G1Point:
    """Immutable point in the G1 prime-order subgroup."""

    __slots__ = ("raw",)

    def __init__(self, raw):
        object.__setattr__(self, "raw", raw)

    def __setattr__(self, *a):
        raise AttributeError("G1Point is immutable")

    @staticmethod
    def identity() -> "G1Point":
        return G1Point(_INF1)

    @staticmethod
    def generator() -> "G1Point":
        return _G1_GEN

    def is_identity(self) -> bool:
        return self.raw[2] == 0

    def __add__(self, other: "G1Point") -> "G1Point":
        return G1Point(_g1_add(self.raw, other.raw))

    def __sub__(self, other: "G1Point") -> "G1Point":
        return G1Point(_g1_add(self.raw, _g1_neg(other.raw)))

    def __neg__(self) -> "G1Point":
        return G1Point(_g1_neg(self.raw))

    def __mul__(self, k: int) -> "G1Point":
        return G1Point(_g1_mul(self.raw, k))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, G1Point) and _g1_eq(self.raw, other.raw)

    def __hash__(self):
        return hash(self.to_bytes())

    def __repr__(self):
        return f"G1Point({self.to_bytes().hex()})"

    def to_bytes(self) -> bytes:
        aff = _g1_to_affine(self.raw)
        if aff is None:
            return bytes([0xC0]) + b"\x00" * 47
        x, y = aff
        flags = 0x80
        if y > P - y:
            flags |= 0x20
        out = bytearray(x.to_bytes(48, "big"))
        out[0] |= flags
        return bytes(out)

    @staticmethod
    def from_bytes(data: bytes, subgroup_check: bool = True) -> "G1Point":
        if len(data) != 48:
            raise CurveError(f"G1 encoding must be 48 bytes, got {len(data)}")
        flags = data[0]
        if not flags & 0x80:
            raise CurveError("uncompressed G1 encodings are not supported")
        if flags & 0x40:
            if flags != 0xC0 or any(data[1:]):
                raise CurveError("malformed G1 infinity encoding")
            return G1Point.identity()
        x = int.from_bytes(bytes([flags & 0x1F]) + data[1:], "big")
        if x >= P:
            raise CurveError("G1 x coordinate not canonical")
        y2 = (x * x * x + _B1) % P
        y = pow(y2, (P + 1) // 4, P)
        if y * y % P != y2:
            raise CurveError("G1 x coordinate is not on the curve")
        if (y > P - y) != bool(flags & 0x20):
            y = P - y
        pt = G1Point((x, y, 1))
        if subgroup_check and not pt.in_subgroup():
            raise CurveError("G1 point not in the prime-order subgroup")
        return pt

    def in_subgroup(self) -> bool:
        """phi(P) == -x^2 * P for the endomorphism phi(x, y) = (beta*x, y).

        On BLS12-381 this holds exactly for the points of order r (Scott,
        ePrint 2021/1130), so a 128-bit ladder replaces multiplication by r.
        """
        x, y, z = self.raw
        return _g1_eq((x * _BETA % P, y, z),
                      _g1_neg(_g1_mul_unreduced(self.raw, _X_SQUARED)))


class G2Point:
    """Immutable point in the G2 prime-order subgroup."""

    __slots__ = ("raw",)

    def __init__(self, raw):
        object.__setattr__(self, "raw", raw)

    def __setattr__(self, *a):
        raise AttributeError("G2Point is immutable")

    @staticmethod
    def identity() -> "G2Point":
        return G2Point(_INF2)

    @staticmethod
    def generator() -> "G2Point":
        return _G2_GEN

    def is_identity(self) -> bool:
        return fp2_is_zero(self.raw[2])

    def __add__(self, other: "G2Point") -> "G2Point":
        return G2Point(_g2_add(self.raw, other.raw))

    def __sub__(self, other: "G2Point") -> "G2Point":
        return G2Point(_g2_add(self.raw, _g2_neg(other.raw)))

    def __neg__(self) -> "G2Point":
        return G2Point(_g2_neg(self.raw))

    def __mul__(self, k: int) -> "G2Point":
        return G2Point(_g2_mul(self.raw, k))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, G2Point) and _g2_eq(self.raw, other.raw)

    def __hash__(self):
        return hash(self.to_bytes())

    def __repr__(self):
        return f"G2Point({self.to_bytes().hex()})"

    def to_bytes(self) -> bytes:
        aff = _g2_to_affine(self.raw)
        if aff is None:
            return bytes([0xC0]) + b"\x00" * 95
        (x0, x1), y = aff
        flags = 0x80
        if fp2_lexicographically_largest(y):
            flags |= 0x20
        out = bytearray(x1.to_bytes(48, "big") + x0.to_bytes(48, "big"))
        out[0] |= flags
        return bytes(out)

    @staticmethod
    def from_bytes(data: bytes, subgroup_check: bool = True) -> "G2Point":
        if len(data) != 96:
            raise CurveError(f"G2 encoding must be 96 bytes, got {len(data)}")
        flags = data[0]
        if not flags & 0x80:
            raise CurveError("uncompressed G2 encodings are not supported")
        if flags & 0x40:
            if flags != 0xC0 or any(data[1:]):
                raise CurveError("malformed G2 infinity encoding")
            return G2Point.identity()
        x1 = int.from_bytes(bytes([flags & 0x1F]) + data[1:48], "big")
        x0 = int.from_bytes(data[48:], "big")
        if x0 >= P or x1 >= P:
            raise CurveError("G2 x coordinate not canonical")
        x = (x0, x1)
        y = fp2_sqrt(fp2_add(fp2_mul(fp2_sqr(x), x), _B2))
        if y is None:
            raise CurveError("G2 x coordinate is not on the curve")
        if fp2_lexicographically_largest(y) != bool(flags & 0x20):
            y = fp2_neg(y)
        pt = G2Point((x, y, FP2_ONE))
        if subgroup_check and not pt.in_subgroup():
            raise CurveError("G2 point not in the prime-order subgroup")
        return pt

    def in_subgroup(self) -> bool:
        return fp2_is_zero(_g2_mul_unreduced(self.raw, R)[2])


def g1_msm(points, scalars) -> G1Point:
    """Multi-scalar multiplication over G1Point wrappers."""
    return G1Point(_g1_msm([p.raw for p in points], list(scalars)))


def g2_msm(points, scalars) -> G2Point:
    return G2Point(_g2_msm([p.raw for p in points], list(scalars)))


_G1_GEN = G1Point((
    0x17F1D3A73197D7942695638C4FA9AC0FC3688C4F9774B905A14E3A3F171BAC586C55E83FF97A1AEFFB3AF00ADB22C6BB,
    0x08B3F481E3AAA0F1A09E30ED741D8AE4FCF5E095D5D00AF600DB18CB2C04B3EDD03CC744A2888AE40CAA232946C5E7E1,
    1,
))

_G2_GEN = G2Point((
    (0x024AA2B2F08F0A91260805272DC51051C6E47AD4FA403B02B4510B647AE3D1770BAC0326A805BBEFD48056C8C121BDB8,
     0x13E02B6052719F607DACD3A088274F65596BD0D09920B61AB5DA61BBDC7F5049334CF11213945D57E5AC7D055D042B7E),
    (0x0CE5D527727D6E118CC9CDC6DA2E351AADFD9BAA8CBDD3A76D429A695160D12C923AC9CC3BACA289E193548608B82801,
     0x0606C4A02EA734CC32ACD2B02BC28B99CB3E287E85A763AF267492AB572E99AB3F370D275CEC1DA1AAA9075FF05F79BE),
    FP2_ONE,
))
