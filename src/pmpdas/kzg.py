"""KZG commitments: SRS, single-point openings, and batched verification of
independent openings.

The trusted setup here is test-grade on purpose: the caller supplies the
secret, which lets test harnesses cross-check every group operation in the
scalar field. The SRS object itself never stores the secret.
"""

from __future__ import annotations

import functools
import hashlib
import threading
from dataclasses import dataclass

from .curve import (
    CurveError, G1Point, G2Point, g1_fixed_base_msm, g1_fixed_base_table,
    g1_msm, g2_msm, pairing_check,
)
from .field_poly import (
    SCALAR_MODULUS, Polynomial, scalar_to_bytes, vanishing_poly, div_rem,
)

BATCH_CHALLENGE_TAG = b"PMP-DAS-batch-v1"


class KzgError(ValueError):
    pass


@dataclass
class OpCounters:
    """Per-call operation counts, for cost accounting.

    Accounting rules: a G1/G2 "scalar multiplication" is one coefficient
    slot of a dense multi-scalar multiplication (padded slots included when
    an operation commits against an explicit degree bound), or one explicit
    scalar-point product. An interpolation is one full interpolation pass
    regardless of point count.
    """

    g1_scalar_mults: int = 0
    g2_scalar_mults: int = 0
    pairings: int = 0
    interpolations: int = 0

    def merge(self, other: "OpCounters") -> None:
        self.g1_scalar_mults += other.g1_scalar_mults
        self.g2_scalar_mults += other.g2_scalar_mults
        self.pairings += other.pairings
        self.interpolations += other.interpolations

    def as_dict(self) -> dict:
        return {
            "g1_mults": self.g1_scalar_mults,
            "g2_mults": self.g2_scalar_mults,
            "pairings": self.pairings,
            "interpolations": self.interpolations,
        }


class SRS:
    """Structured reference string: powers of a secret in both groups."""

    def __init__(self, g1_powers, g2_powers):
        if len(g1_powers) != len(g2_powers) or len(g1_powers) < 2:
            raise KzgError("SRS needs matching G1/G2 power lists, degree >= 1")
        self.g1_powers = tuple(g1_powers)
        self.g2_powers = tuple(g2_powers)
        self.degree_bound = len(g1_powers) - 1
        h = hashlib.sha256()
        for pt in self.g1_powers:
            h.update(pt.to_bytes())
        for pt in self.g2_powers:
            h.update(pt.to_bytes())
        self.srs_id = h.digest()
        self._z_cache = {}
        self._z_lock = threading.Lock()
        self._g1_tables = ()
        self._x_minus_z = {}

    def g1_tables(self, n: int) -> tuple:
        """Fixed-base tables of (at least) the first n G1 powers.

        Tables are built on first use and only for the prefix of powers
        some commitment has needed so far.
        """
        tables = self._g1_tables
        if len(tables) < n:
            with self._z_lock:
                tables = self._g1_tables
                if len(tables) < n:
                    tables += tuple(g1_fixed_base_table(pt) for pt in
                                    self.g1_powers[len(tables):n])
                    self._g1_tables = tables
        return tables

    def x_minus_z(self, z: int) -> G2Point:
        """[x - z]_2, memoized by z mod r."""
        z %= SCALAR_MODULUS
        hit = self._x_minus_z.get(z)
        if hit is None:
            hit = self._x_minus_z.setdefault(
                z, self.g2_powers[1] - G2Point.generator() * z)
        return hit

    def cached_z_commitment(self, micro_domain, counters: OpCounters | None = None) -> G2Point:
        """[Z_md(x)]_2, memoized by micro-domain digest.

        A cold computation costs g+1 G2 scalar multiplications (the dense
        coefficient count of the monic degree-g vanishing polynomial);
        a warm hit costs none.
        """
        key = hashlib.sha256(
            b"".join(scalar_to_bytes(z) for z in micro_domain)).digest()
        with self._z_lock:
            hit = self._z_cache.get(key)
        if hit is not None:
            return hit
        z_poly = vanishing_poly(micro_domain)
        value = self.commit_g2(z_poly, counters=counters)
        with self._z_lock:
            self._z_cache[key] = value
        return value

    def commit_g2(self, p: Polynomial, counters: OpCounters | None = None) -> G2Point:
        if p.degree > self.degree_bound:
            raise KzgError("polynomial degree exceeds the SRS bound")
        n = len(p.coeffs)
        if counters is not None:
            counters.g2_scalar_mults += n
        return g2_msm(self.g2_powers[:n], p.coeffs)


def gen(d: int, secret: int) -> SRS:
    """Test-only trusted setup with an explicit, caller-retained secret."""
    if d < 1:
        raise KzgError("SRS degree bound must be at least 1")
    secret %= SCALAR_MODULUS
    if secret == 0:
        raise KzgError("setup secret must be nonzero")
    g1 = G1Point.generator()
    g2 = G2Point.generator()
    g1_powers = []
    g2_powers = []
    s_i = 1
    for _ in range(d + 1):
        g1_powers.append(g1 * s_i)
        g2_powers.append(g2 * s_i)
        s_i = s_i * secret % SCALAR_MODULUS
    return SRS(g1_powers, g2_powers)


def commit(srs: SRS, p: Polynomial, counters: OpCounters | None = None,
           slots: int | None = None) -> G1Point:
    """Commit to p via multi-scalar multiplication over the SRS powers.

    `slots` fixes the dense coefficient count used for cost accounting
    (and zero-pads the MSM input up to it).
    """
    if p.degree > srs.degree_bound:
        raise KzgError("polynomial degree exceeds the SRS bound")
    n = len(p.coeffs) if slots is None else slots
    if n > srs.degree_bound + 1:
        raise KzgError("commitment slot count exceeds the SRS size")
    coeffs = p.padded(n)
    if counters is not None:
        counters.g1_scalar_mults += n
    # the zero padding up to `slots` adds nothing, so it needs no tables
    return g1_fixed_base_msm(srs.g1_tables(len(p.coeffs)), coeffs)


def open_single(srs: SRS, p: Polynomial, z: int,
                counters: OpCounters | None = None):
    """Evaluate p at z and produce the standard quotient witness."""
    value = p.evaluate(z)
    quotient, rem = div_rem(p - Polynomial.constant(value),
                            Polynomial((-z % SCALAR_MODULUS, 1)))
    assert rem.is_zero()
    return value, commit(srs, quotient, counters=counters)


def verify_single(srs: SRS, cm: G1Point, z: int, value: int,
                  proof: G1Point, counters: OpCounters | None = None) -> bool:
    """Pairing check e(cm - [value]_1, g2) == e(proof, [x - z]_2)."""
    if not isinstance(cm, G1Point) or not isinstance(proof, G1Point):
        raise CurveError("malformed group element")
    lhs = cm - g1_fixed_base_msm(_generator_tables(), (value,))
    if counters is not None:
        counters.g1_scalar_mults += 1
        counters.g2_scalar_mults += 1
        counters.pairings += 2
    return pairing_check([(lhs, G2Point.generator()),
                          (-proof, srs.x_minus_z(z))])


@functools.cache
def _generator_tables() -> tuple:
    return (g1_fixed_base_table(G1Point.generator()),)


def derive_rho(srs: SRS, openings) -> int:
    """Fiat-Shamir combiner for a batch of independent openings."""
    h = hashlib.sha512()
    h.update(BATCH_CHALLENGE_TAG)
    h.update(srs.srs_id)
    h.update(len(openings).to_bytes(4, "big"))
    for cm, z, value, proof in openings:
        h.update(cm.to_bytes())
        h.update(scalar_to_bytes(z % SCALAR_MODULUS))
        h.update(scalar_to_bytes(value % SCALAR_MODULUS))
        h.update(proof.to_bytes())
    rho = int.from_bytes(h.digest(), "big") % SCALAR_MODULUS
    ctr = 0
    while rho == 0:
        ctr += 1
        rho = int.from_bytes(
            hashlib.sha512(h.digest() + ctr.to_bytes(4, "big")).digest(),
            "big") % SCALAR_MODULUS
    return rho


def verify_batch_independent(srs: SRS, openings, rho: int,
                             counters: OpCounters | None = None) -> bool:
    """Random-linear-combination check over independent single openings.

    Each opening satisfies e(cm - [v]_1, g2) == e(pi, [x]_2 - z*g2),
    equivalently e(cm - [v]_1 + z*pi, g2) == e(pi, [x]_2); the rho-weighted
    sums of both sides reduce the batch to one two-pairing check.
    """
    if not openings:
        raise KzgError("cannot batch-verify an empty opening list")
    rho %= SCALAR_MODULUS
    # left = sum_i w_i*cm_i - (sum_i w_i*v_i)*g + sum_i (w_i*z_i)*pi_i and
    # proofs = sum_i w_i*pi_i for w_i = rho^i, as two multi-scalar products
    cms, proofs, weights, zw = [], [], [], []
    value_sum = 0
    weight = 1
    for cm, z, value, proof in openings:
        cms.append(cm)
        proofs.append(proof)
        weights.append(weight)
        zw.append(weight * z % SCALAR_MODULUS)
        value_sum = (value_sum + weight * value) % SCALAR_MODULUS
        if counters is not None:
            counters.g1_scalar_mults += 4
        weight = weight * rho % SCALAR_MODULUS
    left = g1_msm(cms + [G1Point.generator()] + proofs,
                  weights + [-value_sum % SCALAR_MODULUS] + zw)
    proofs_acc = g1_msm(proofs, weights)
    if counters is not None:
        counters.pairings += 2
    return pairing_check([(left, G2Point.generator()),
                          (-proofs_acc, srs.g2_powers[1])])
