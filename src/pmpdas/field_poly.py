"""Scalar-field and polynomial arithmetic over the BLS12-381 scalar field.

Scalars are plain ints in [0, SCALAR_MODULUS); polynomials are immutable
coefficient vectors, lowest degree first, with no trailing zeros. The zero
polynomial is the empty vector and has degree -inf.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .fields import R as SCALAR_MODULUS

NEG_INF = float("-inf")

SCALAR_BYTES = 32


class FieldPolyError(ValueError):
    pass


class NonCanonicalScalar(FieldPolyError):
    """Scalar encoding is not the canonical value below the field modulus."""


def scalar_to_bytes(v: int) -> bytes:
    """Canonical 32-byte little-endian (limb-ordered) encoding."""
    if not 0 <= v < SCALAR_MODULUS:
        raise FieldPolyError("scalar out of canonical range")
    return v.to_bytes(SCALAR_BYTES, "little")


def scalar_from_bytes(data: bytes) -> int:
    if len(data) != SCALAR_BYTES:
        raise NonCanonicalScalar(
            f"scalar encoding must be {SCALAR_BYTES} bytes, got {len(data)}")
    v = int.from_bytes(data, "little")
    if v >= SCALAR_MODULUS:
        raise NonCanonicalScalar("scalar encoding exceeds the field modulus")
    return v


def hash_to_scalar(data: bytes) -> int:
    """Nonzero scalar from the SHA-512 digest of data.

    Wide reduction of a 64-byte digest keeps modulo bias negligible; the
    (negligible) zero case re-hashes the digest with a counter so the
    scalar is always invertible.
    """
    digest = hashlib.sha512(data).digest()
    v = int.from_bytes(digest, "big") % SCALAR_MODULUS
    ctr = 0
    while v == 0:
        ctr += 1
        v = int.from_bytes(
            hashlib.sha512(digest + ctr.to_bytes(4, "big")).digest(),
            "big") % SCALAR_MODULUS
    return v


def scalar_inv(v: int) -> int:
    if v % SCALAR_MODULUS == 0:
        raise ZeroDivisionError("scalar has no inverse")
    return pow(v, -1, SCALAR_MODULUS)


class Polynomial:
    """Dense univariate polynomial over the scalar field."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c % SCALAR_MODULUS for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("Polynomial is immutable")

    @property
    def degree(self):
        """Degree of the polynomial; -inf for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)})"

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % SCALAR_MODULUS
        return Polynomial(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c % SCALAR_MODULUS for c in self.coeffs))

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Polynomial()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return Polynomial(out)

    def scale(self, k: int) -> "Polynomial":
        k %= SCALAR_MODULUS
        return Polynomial(tuple(c * k for c in self.coeffs))

    def evaluate(self, z: int) -> int:
        """Horner evaluation of p(z)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * z + c) % SCALAR_MODULUS
        return acc


def div_rem(num: Polynomial, den: Polynomial):
    """Quotient and remainder with num = q*den + r and deg r < deg den."""
    if den.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if num.degree < den.degree:
        return Polynomial(), num
    rem = list(num.coeffs)
    dcs = den.coeffs
    dlead_inv = scalar_inv(dcs[-1])
    dlen = len(dcs)
    q = [0] * (len(rem) - dlen + 1)
    for i in range(len(q) - 1, -1, -1):
        c = rem[i + dlen - 1] * dlead_inv % SCALAR_MODULUS
        if c:
            q[i] = c
            for j, dc in enumerate(dcs):
                rem[i + j] = (rem[i + j] - c * dc) % SCALAR_MODULUS
    return Polynomial(q), Polynomial(rem[: dlen - 1])


@dataclass(frozen=True)
class EvaluationDomain:
    """An ordered, nonempty list of distinct evaluation points.

    A micro-domain is a contiguous block cut out of a parent domain;
    `offset` is the index of its first point there (0 for a parent).
    """

    points: tuple
    offset: int = 0

    def __init__(self, points, offset=0):
        pts = tuple(p % SCALAR_MODULUS for p in points)
        if not pts:
            raise FieldPolyError("evaluation domain must be nonempty")
        if len(set(pts)) != len(pts):
            raise FieldPolyError("evaluation domain points must be distinct")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "offset", int(offset))

    @property
    def size(self) -> int:
        return len(self.points)

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


def vanishing_poly(domain) -> Polynomial:
    """Monic polynomial with exactly the domain points as roots."""
    pts = tuple(domain)
    if not pts:
        raise FieldPolyError("vanishing polynomial of an empty domain")
    out = Polynomial((1,))
    for z in pts:
        out = out * Polynomial((-z % SCALAR_MODULUS, 1))
    return out


def interpolate(domain, values) -> Polynomial:
    """Unique polynomial of degree < |domain| matching the given values."""
    pts = tuple(domain)
    vals = tuple(v % SCALAR_MODULUS for v in values)
    if len(pts) != len(vals):
        raise FieldPolyError("interpolation needs one value per point")
    if len(set(pts)) != len(pts):
        raise FieldPolyError("interpolation points must be distinct")
    # Lagrange via the vanishing polynomial: L_j = Z / (X - z_j) / Z'(z_j).
    z = vanishing_poly(pts)
    out = Polynomial()
    for j, (zj, vj) in enumerate(zip(pts, vals)):
        if vj == 0:
            continue
        lj, rem = div_rem(z, Polynomial((-zj % SCALAR_MODULUS, 1)))
        assert rem.is_zero()
        denom = lj.evaluate(zj)
        out = out + lj.scale(vj * scalar_inv(denom))
    return out


def evaluate_on_domain(p: Polynomial, domain: EvaluationDomain) -> list:
    """Evaluate p on every domain point, by Horner at each one."""
    return [p.evaluate(z) for z in domain]


# ---------------------------------------------------------------------------
# Roots-of-unity domains

_GENERATOR = 7  # multiplicative generator of the scalar field


def root_of_unity(n: int) -> int:
    if n < 1 or (SCALAR_MODULUS - 1) % n != 0:
        raise FieldPolyError(f"no multiplicative subgroup of order {n}")
    return pow(_GENERATOR, (SCALAR_MODULUS - 1) // n, SCALAR_MODULUS)


def roots_of_unity_domain(n: int) -> EvaluationDomain:
    """The standard domain {w^0, ..., w^(n-1)} for subgroup order n."""
    w = root_of_unity(n)
    pts = []
    cur = 1
    for _ in range(n):
        pts.append(cur)
        cur = cur * w % SCALAR_MODULUS
    return EvaluationDomain(pts)
