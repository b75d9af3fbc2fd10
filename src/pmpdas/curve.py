"""BLS12-381 group arithmetic, compressed serialization, and the pairing.

G1 lives on y^2 = x^3 + 4 over Fp, G2 on y^2 = x^3 + 4(1+u) over Fp2.
Points are kept in Jacobian coordinates as plain tuples. One immutable
point base holds the point API and the compressed-encoding frame;
:class:`G1Point` and :class:`G2Point` supply only their Jacobian formulas,
their x-coordinate codec and their subgroup test. Both groups share one
double-and-add ladder and one signed-window MSM walk.

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


def _g2_to_affine(pt):
    x, y, z = pt
    if fp2_is_zero(z):
        return None
    zi = fp2_inv(z)
    zi2 = fp2_sqr(zi)
    return (fp2_mul(x, zi2), fp2_mul(fp2_mul(y, zi2), zi))


# ---------------------------------------------------------------------------
# Multi-scalar multiplication
#
# Every MSM here is one signed-window walk. Each term is a table of the
# multiples 1..2^(w-1) of its base and the base's scalar written in signed
# w-bit digits, so a negative digit reads the same table negated. The
# doublings between windows are shared by all terms (Brickell, Gordon,
# McCurley and Wilson, EUROCRYPT 1992; Moeller, SAC 2001). A group supplies
# only how a table entry is added to a Jacobian point and negated: G1
# tables are affine, so each addition is a mixed Jacobian + affine one,
# while G2 tables stay Jacobian.
#
# The fixed-base walk (the SRS powers, the generator) uses 8-bit windows
# over tables built once; the variable-base walk builds 4-bit tables per
# call.

_FB_WINDOW = 8
_WINDOW = 4


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


def _g1_neg_affine(q):
    return (q[0], P - q[1])


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


def _g1_multiples(aff, n):
    """Jacobian 1*q .. n*q of a non-identity affine q, for n >= 2."""
    multiples = [aff + (1,), _g1_double(aff + (1,))]
    for _ in range(n - 2):
        multiples.append(_g1_add_affine(multiples[-1], aff))
    return multiples


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


def _signed_window_msm(group, terms, window):
    """Sum over the (table, digits) terms of sum_i digits[i] * 2^(w*i) *
    base, where table[j] is (j+1) * base in the group's entry form and the
    digits come from `_signed_digits(k, w)` for w = `window`."""
    if not terms:
        return group(group._INF)
    add, neg, double = group._add_entry, group._neg_entry, group._double
    nwin = max(len(digits) for _, digits in terms)
    for _, digits in terms:
        digits.extend([0] * (nwin - len(digits)))
    acc = group._INF
    for i in range(nwin - 1, -1, -1):
        for _ in range(window):
            acc = double(acc)
        for tbl, digits in terms:
            d = digits[i]
            if d > 0:
                acc = add(acc, tbl[d - 1])
            elif d < 0:
                acc = add(acc, neg(tbl[-d - 1]))
    return group(acc)


def _g1_msm_terms(pairs):
    """Walk terms of (Jacobian point, scalar in [1, r)) pairs of G1, with
    the full scalars and every table normalised to affine with one shared
    inversion."""
    half = 1 << (_WINDOW - 1)
    bases = _g1_batch_to_affine([raw for raw, _ in pairs])
    multiples = []
    for aff in bases:
        multiples += _g1_multiples(aff, half)
    multiples = _g1_batch_to_affine(multiples)
    return [(multiples[i * half:(i + 1) * half], _signed_digits(k, _WINDOW))
            for i, (_, k) in enumerate(pairs)]


def _g2_msm_terms(pairs):
    """Walk terms of (Jacobian point, scalar in [1, r)) pairs of G2, with
    Jacobian tables and the full scalars."""
    terms = []
    for raw, k in pairs:
        tbl = [raw, _g2_double(raw)]
        for _ in range(2, 1 << (_WINDOW - 1)):
            tbl.append(_g2_add(tbl[-1], raw))
        terms.append((tbl, _signed_digits(k, _WINDOW)))
    return terms


def _msm(group, points, scalars):
    """Sum of scalar*point over points of one group, as a `group` point;
    scalars are reduced mod r and zip stops at the shorter input.

    The points must lie in the prime-order subgroup, so that no multiple
    in a table is the identity.
    """
    pairs = [(p.raw, s % R) for p, s in zip(points, scalars)
             if s % R and not p.is_identity()]
    if not pairs:
        return group(group._INF)
    return _signed_window_msm(group, group._msm_terms(pairs), _WINDOW)


def g1_fixed_base_table(point) -> tuple:
    """Affine multiples 1*point .. 2^(w-1)*point for `g1_fixed_base_msm`;
    empty for the identity, whose terms the MSM skips."""
    aff = _g1_to_affine(point.raw)
    if aff is None:
        return ()
    return _g1_batch_to_affine(_g1_multiples(aff, 1 << (_FB_WINDOW - 1)))


def g1_fixed_base_msm(tables, scalars) -> "G1Point":
    """Sum of scalar*point over the points whose `g1_fixed_base_table`s are
    given; scalars are reduced mod r and zip stops at the shorter input."""
    terms = []
    for tbl, s in zip(tables, scalars):
        s %= R
        if s and tbl:
            terms.append((tbl, _signed_digits(s, _FB_WINDOW)))
    return _signed_window_msm(G1Point, terms, _FB_WINDOW)


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
    """Product of the Miller loops of the (G1Point, G2Point) pairs before
    the final exponentiation; pairs with either point at infinity are
    skipped, and with none left this is one."""
    prepared = []
    for g1pt, g2pt in pairs:
        pa = _g1_to_affine(g1pt.raw)
        if pa is not None and not g2pt.is_identity():
            prepared.append((pa[0], -pa[1] % P, g2pt._lines()))
    if not prepared:
        return FP12_ONE
    f = FP12_ONE
    for i, square in enumerate(_LINE_SCHEDULE):
        if square:
            f = fp12_sqr(f)
        for xp, neg_yp, lines in prepared:
            c0, a, b = lines[i]
            f = _fp12_mul_by_line(f, (c0, fp2_scalar_mul(a, xp),
                                      fp2_scalar_mul(b, neg_yp)))
    # The BLS parameter is negative: invert via conjugation.
    return fp12_conj(f)


def multi_pairing(pairs):
    """Product of pairings e(P_i, Q_i) as an Fp12 element.

    Pairs with either point at infinity contribute the identity.
    """
    f = _miller_loop(pairs)
    # the final exponentiation maps one to one
    return f if f == FP12_ONE else final_exponentiation(f)


def pairing(g1pt, g2pt):
    return multi_pairing([(g1pt, g2pt)])


def pairing_check(pairs):
    """True iff the product of pairings equals the identity."""
    return multi_pairing(pairs) == FP12_ONE


# ---------------------------------------------------------------------------
# Points

class _Point:
    """Immutable point of a prime-order subgroup.

    A group subclass supplies its Jacobian formulas (`_add`, `_double`,
    `_neg`, `_to_affine`, optionally a faster `_eq`), its MSM tables
    (`_msm_terms`, and `_add_entry`/`_neg_entry` to add a table entry to a
    Jacobian point and negate it), its x-coordinate codec (`_x_to_bytes`,
    `_x_from_bytes`, `_y_from_x`, `_y_is_largest`), optionally a faster
    `in_subgroup`, and the constants `_INF` (Jacobian infinity), `_ONE`
    (the coordinate field's one), `_BYTES` (the compressed length) and
    `_GEN`.
    """

    __slots__ = ("raw",)

    def __init__(self, raw):
        object.__setattr__(self, "raw", raw)

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def identity(cls):
        return cls(cls._INF)

    @classmethod
    def generator(cls):
        return cls._GEN

    def is_identity(self) -> bool:
        return self.raw[2] == self._INF[2]

    def __add__(self, other):
        return type(self)(self._add(self.raw, other.raw))

    def __sub__(self, other):
        return type(self)(self._add(self.raw, self._neg(other.raw)))

    def __neg__(self):
        return type(self)(self._neg(self.raw))

    def __mul__(self, k: int):
        # reducing mod r assumes a subgroup point; membership tests call
        # the unreduced `_ladder` instead
        return type(self)(self._ladder(self.raw, k % R))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, type(self)) and \
            self._eq(self.raw, other.raw)

    def __hash__(self):
        return hash(self.to_bytes())

    def __repr__(self):
        return f"{type(self).__name__}({self.to_bytes().hex()})"

    @classmethod
    def _eq(cls, p1, p2):
        return cls._to_affine(p1) == cls._to_affine(p2)

    @classmethod
    def _ladder(cls, raw, k):
        """k * raw for a Jacobian tuple and any k >= 0, by double-and-add."""
        add, double = cls._add, cls._double
        result = cls._INF
        while k:
            if k & 1:
                result = add(result, raw)
            raw = double(raw)
            k >>= 1
        return result

    def in_subgroup(self) -> bool:
        """r * P == O, by the ladder over all 255 bits of r."""
        return type(self)(self._ladder(self.raw, R)).is_identity()

    def to_bytes(self) -> bytes:
        aff = self._to_affine(self.raw)
        if aff is None:
            return b"\xc0" + bytes(self._BYTES - 1)
        x, y = aff
        out = bytearray(self._x_to_bytes(x))
        out[0] |= 0xA0 if self._y_is_largest(y) else 0x80
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes, subgroup_check: bool = True):
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
        pt = cls((x, y, cls._ONE))
        if cls._y_is_largest(y) != bool(flags & 0x20):
            pt = -pt
        if subgroup_check and not pt.in_subgroup():
            raise CurveError(f"{name} point not in the prime-order subgroup")
        return pt


class G1Point(_Point):
    """Immutable point in the G1 prime-order subgroup."""

    __slots__ = ()
    _INF, _ONE, _BYTES = _INF1, 1, 48
    _add = staticmethod(_g1_add)
    _double = staticmethod(_g1_double)
    _neg = staticmethod(_g1_neg)
    _eq = staticmethod(_g1_eq)
    _to_affine = staticmethod(_g1_to_affine)
    _add_entry = staticmethod(_g1_add_affine)
    _neg_entry = staticmethod(_g1_neg_affine)
    _msm_terms = staticmethod(_g1_msm_terms)

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
    def from_bytes(data: bytes, subgroup_check: bool = True) -> "G1Point":
        return super(G1Point, G1Point).from_bytes(data, subgroup_check)

    def in_subgroup(self) -> bool:
        """phi(P) == -x^2 * P for the endomorphism phi(x, y) = (beta*x, y).

        On BLS12-381 this holds exactly for the points of order r (Scott,
        ePrint 2021/1130), so a 128-bit ladder replaces multiplication by r.
        """
        x, y, z = self.raw
        return _g1_eq((x * _BETA % P, y, z),
                      _g1_neg(self._ladder(self.raw, _X_SQUARED)))


class G2Point(_Point):
    """Immutable point in the G2 prime-order subgroup.

    A point keeps its Miller-loop lines once it has been paired, so the
    fixed G2 arguments of verification (the generator, the SRS powers, the
    memoised vanishing-polynomial commitments) compute them only once.
    """

    __slots__ = ("_prepared",)
    _INF, _ONE, _BYTES = _INF2, FP2_ONE, 96
    _add = staticmethod(_g2_add)
    _double = staticmethod(_g2_double)
    _neg = staticmethod(_g2_neg)
    _to_affine = staticmethod(_g2_to_affine)
    _add_entry = staticmethod(_g2_add)
    _neg_entry = staticmethod(_g2_neg)
    _msm_terms = staticmethod(_g2_msm_terms)

    def _lines(self):
        """`_g2_lines` of this non-identity point, computed on first use."""
        try:
            return self._prepared
        except AttributeError:
            lines = _g2_lines(_g2_to_affine(self.raw))
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


def g1_msm(points, scalars) -> G1Point:
    """Multi-scalar multiplication over G1Point wrappers of subgroup
    points (see `_msm`)."""
    return _msm(G1Point, points, scalars)


def g2_msm(points, scalars) -> G2Point:
    """Multi-scalar multiplication over G2Point wrappers."""
    return _msm(G2Point, points, scalars)


G1Point._GEN = G1Point((
    0x17F1D3A73197D7942695638C4FA9AC0FC3688C4F9774B905A14E3A3F171BAC586C55E83FF97A1AEFFB3AF00ADB22C6BB,
    0x08B3F481E3AAA0F1A09E30ED741D8AE4FCF5E095D5D00AF600DB18CB2C04B3EDD03CC744A2888AE40CAA232946C5E7E1,
    1,
))

G2Point._GEN = G2Point((
    (0x024AA2B2F08F0A91260805272DC51051C6E47AD4FA403B02B4510B647AE3D1770BAC0326A805BBEFD48056C8C121BDB8,
     0x13E02B6052719F607DACD3A088274F65596BD0D09920B61AB5DA61BBDC7F5049334CF11213945D57E5AC7D055D042B7E),
    (0x0CE5D527727D6E118CC9CDC6DA2E351AADFD9BAA8CBDD3A76D429A695160D12C923AC9CC3BACA289E193548608B82801,
     0x0606C4A02EA734CC32ACD2B02BC28B99CB3E287E85A763AF267492AB572E99AB3F370D275CEC1DA1AAA9075FF05F79BE),
    FP2_ONE,
))
