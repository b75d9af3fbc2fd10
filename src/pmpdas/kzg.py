"""KZG commitments: SRS, single-point openings, weighted batch verification
of independent openings, and the pairing terms every verifier reduces to.

The module draws no verifier weights: each batch takes its weights from
the caller (the light client's are `dasnet.round_weights`).

The trusted setup here is test-grade on purpose: the caller supplies the
secret, which lets test harnesses cross-check every group operation in the
scalar field. The SRS object itself never stores the secret.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass

from .curve import (
    CurveError, G1Point, G2Point, fixed_base_muls, g1_fixed_base_msms,
    g1_fixed_base_tables, g1_msms, g2_msm, pairing_check,
)
from .field_poly import (
    SCALAR_MODULUS, Polynomial, div_rem, vanishing_poly,
)


class KzgError(ValueError):
    pass


@dataclass
class OpCounters:
    """Per-call operation counts, for cost accounting.

    Accounting rules: a G1/G2 "scalar multiplication" is one coefficient
    slot of a dense multi-scalar multiplication, or one explicit
    scalar-point product; an aggregated opening charges the d + 1 - g
    slots of its quotient's degree bound, whatever the quotient's length.
    An interpolation is one full interpolation pass regardless of point
    count.
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
                    tables += g1_fixed_base_tables(
                        self.g1_powers[len(tables):n])
                    self._g1_tables = tables
        return tables

    def _first_sight(self, key: tuple, counters: OpCounters | None):
        """Charges the cost model for [Z_S(x)]_2 the first time the point
        set S (its points mod r) is seen: |S|+1 G2 scalar multiplications,
        the dense coefficient count of the monic vanishing polynomial.
        Later sightings cost none."""
        if len(key) > self.degree_bound:
            raise KzgError("polynomial degree exceeds the SRS bound")
        with self._z_lock:
            first = key not in self._z_cache
            if first:
                self._z_cache[key] = None
        if first and counters is not None:
            counters.g2_scalar_mults += len(key) + 1

    def cached_z_commitment(self, points,
                            counters: OpCounters | None = None) -> G2Point:
        """[Z_S(x)]_2 for the point set S, memoized by its points mod r.

        [x - z]_2 of a single opening is the one-point case. The cost
        model is charged on the first sight of S (`_first_sight`).
        """
        key = tuple(z % SCALAR_MODULUS for z in points)
        self._first_sight(key, counters)
        with self._z_lock:
            value = self._z_cache[key]
        if value is None:
            coeffs = vanishing_poly(key).coeffs
            value = g2_msm(self.g2_powers[:len(coeffs)], coeffs)
            with self._z_lock:
                self._z_cache[key] = value
        return value

    def vanishing_base(self, points,
                       counters: OpCounters | None = None) -> tuple:
        """(Q, c) with [Z_S(x)]_2 = Q - c*g2 for the point set S.

        When the g distinct points of S share one g-th power c, S is a
        coset h*H_g of the order-g subgroup and Z_S = X^g - c: Q is the
        SRS power [x^g]_2 and nothing is computed. Any other S takes
        Q = [Z_S(x)]_2 from `cached_z_commitment` and c = 0. Both charge
        the cost model alike, on the first sight of S.
        """
        key = tuple(z % SCALAR_MODULUS for z in points)
        g = len(key)
        powers = {pow(z, g, SCALAR_MODULUS) for z in key}
        if len(powers) == 1 and len(set(key)) == g:
            self._first_sight(key, counters)
            return self.g2_powers[g], powers.pop()
        return self.cached_z_commitment(key, counters), 0


def gen(d: int, secret: int) -> SRS:
    """Test-only trusted setup with an explicit, caller-retained secret.

    The powers s^0 .. s^d are computed once in the scalar field; each
    group then forms all of [s^i] from its generator in one fixed-base
    comb (`curve.fixed_base_muls`).
    """
    if d < 1:
        raise KzgError("SRS degree bound must be at least 1")
    secret %= SCALAR_MODULUS
    if secret == 0:
        raise KzgError("setup secret must be nonzero")
    powers = [1]
    for _ in range(d):
        powers.append(powers[-1] * secret % SCALAR_MODULUS)
    return SRS(fixed_base_muls(G1Point.generator(), powers),
               fixed_base_muls(G2Point.generator(), powers))


def commit_many(srs: SRS, polys,
                counters: OpCounters | None = None) -> list:
    """The commitment to each polynomial, from one fixed-base walk over
    the SRS powers (`curve.g1_fixed_base_msms`): each table half pays one
    inversion for all of them."""
    rows = [p.coeffs for p in polys]
    n = max(map(len, rows), default=0)
    if n > srs.degree_bound + 1:
        raise KzgError("polynomial degree exceeds the SRS bound")
    if counters is not None:
        counters.g1_scalar_mults += sum(map(len, rows))
    return g1_fixed_base_msms(srs.g1_tables(n), rows)


def commit(srs: SRS, p: Polynomial,
           counters: OpCounters | None = None) -> G1Point:
    """Commit to p via multi-scalar multiplication over the SRS powers:
    the one-polynomial case of `commit_many`."""
    return commit_many(srs, [p], counters)[0]


def open_single(srs: SRS, p: Polynomial, z: int,
                counters: OpCounters | None = None):
    """(p(z), proof) with the standard quotient witness: dividing p by
    X - z leaves the quotient the proof commits to and p(z) as the
    remainder. The publisher's cell proofs are the same quotients, made
    as one-point `multiproof.open_groups` proofs."""
    if p.degree > srs.degree_bound:
        raise KzgError("polynomial degree exceeds the SRS bound")
    quotient, rem = div_rem(p, Polynomial((-z % SCALAR_MODULUS, 1)))
    return rem.coeffs[0] if rem.coeffs else 0, commit(srs, quotient, counters)


class PairingTerms:
    """The G1 side of a pairing-product equation, grouped by G2 base.

    The equation is prod_Q e(A_Q, Q) == 1. Each A_Q is held as G1 points
    with scalars, where repeated additions of the same point object (a row
    commitment, an SRS power) sum their scalars. `merge` adds another
    equation's terms, so a sum of many equations, each weighted as it
    was added, checks them all with one `check`: one multi-row MSM, a
    row per base, and one multi-pairing.
    """

    def __init__(self, srs: SRS):
        self.srs = srs
        # id(base) -> (base, {id(point): [point, scalar]})
        self._bases = {}

    def add(self, base: G2Point, points=(), weight: int = 1):
        """Adds weight * (sum of s*P over (P, s) in `points`) to the G1
        side of `base`."""
        _, terms = self._bases.setdefault(id(base), (base, {}))
        for pt, s in points:
            slot = terms.get(id(pt))
            if slot is None:
                terms[id(pt)] = [pt, weight * s % SCALAR_MODULUS]
            else:
                slot[1] = (slot[1] + weight * s) % SCALAR_MODULUS

    def merge(self, other: "PairingTerms"):
        for base, terms in other._bases.values():
            self.add(base, terms.values())

    def check(self) -> bool:
        """True iff the product of the pairings is the identity.

        The G1 sides of all bases are one `g1_msms` call over the
        distinct points, in first-seen order, with one scalar row per
        base (zero where a base lacks the point): a point that sits on
        several bases, as every opening proof does, gets one table.
        """
        points = {}
        for _, terms in self._bases.values():
            for key, (pt, _) in terms.items():
                points.setdefault(key, pt)
        rows = [[terms[key][1] if key in terms else 0 for key in points]
                for _, terms in self._bases.values()]
        sides = g1_msms(list(points.values()), rows)
        return pairing_check(
            [(side, base) for side, (base, _) in
             zip(sides, self._bases.values())])


def add_quotient_check(terms: PairingTerms, points, proof: G1Point,
                       base: G2Point, c: int, weight: int = 1):
    """Adds weight times e(A + c*proof, g2) * e(-proof, base) == 1, with A
    the sum of s*P over (P, s) in `points`. For [Z(x)]_2 = base - c*g2
    that is e(A, g2) == e(proof, [Z(x)]_2): `proof` commits to A / Z.

    One opening at z is Z = X - z (base [x]_2, c = z), a coset
    micro-domain is Z = X^g - c (base [x^g]_2), so all of them land on
    the same two G2 bases; any other micro-domain brings its own
    [Z_md(x)]_2 with c = 0 (`SRS.vanishing_base`).
    """
    terms.add(G2Point.generator(), (*points, (proof, c)), weight)
    terms.add(base, ((proof, -1),), weight)


def _add_opening(terms: PairingTerms, cm: G1Point, z: int, value: int,
                 proof: G1Point, weight: int = 1):
    """One opening: e(cm - [value]_1, g2) == e(proof, [x - z]_2)."""
    add_quotient_check(terms, ((cm, 1), (terms.srs.g1_powers[0], -value)),
                       proof, terms.srs.g2_powers[1], z, weight)


def single_terms(srs: SRS, cm: G1Point, z: int, value: int, proof: G1Point,
                 counters: OpCounters | None = None,
                 weight: int = 1) -> PairingTerms:
    """Pairing terms of e(cm - [value]_1, g2) == e(proof, [x - z]_2), times
    `weight`."""
    if not isinstance(cm, G1Point) or not isinstance(proof, G1Point):
        raise CurveError("malformed group element")
    terms = PairingTerms(srs)
    _add_opening(terms, cm, z, value, proof, weight)
    if counters is not None:
        counters.g1_scalar_mults += 1
        counters.g2_scalar_mults += 1
        counters.pairings += 2
    return terms


def verify_single(srs: SRS, cm: G1Point, z: int, value: int,
                  proof: G1Point, counters: OpCounters | None = None) -> bool:
    """Pairing check e(cm - [value]_1, g2) == e(proof, [x - z]_2)."""
    return single_terms(srs, cm, z, value, proof, counters).check()


def batch_independent_terms(srs: SRS, openings, weights,
                            counters: OpCounters | None = None
                            ) -> PairingTerms:
    """Pairing terms of the weighted sum of independent openings: opening
    i is weighted by the i-th of `weights`."""
    if not openings:
        raise KzgError("cannot batch-verify an empty opening list")
    terms = PairingTerms(srs)
    for (cm, z, value, proof), weight in zip(openings, weights):
        _add_opening(terms, cm, z, value, proof, weight)
        if counters is not None:
            counters.g1_scalar_mults += 4
    if counters is not None:
        counters.pairings += 2
    return terms


def verify_batch_independent(srs: SRS, openings, weights,
                             counters: OpCounters | None = None) -> bool:
    """Random-linear-combination check over independent single openings:
    one two-pairing check for the whole batch, opening i weighted by the
    i-th of `weights`. The check is sound only if the weights are
    unpredictable to whoever made the openings."""
    return batch_independent_terms(srs, openings, weights, counters).check()
