"""Shared-point aggregated openings.

One aggregated proof attests to the evaluations of k committed polynomials
over a single shared micro-domain. The challenge that weights the
polynomials is always derived from a canonical transcript binding the SRS,
the ordered commitment list, the micro-domain, the covered coordinates,
the claimed values and the block-region metadata.
"""

from __future__ import annotations

from dataclasses import dataclass

from .curve import G1Point
from .field_poly import (
    SCALAR_MODULUS, EvaluationDomain, Polynomial, div_rem, hash_to_scalar,
    interpolate, scalar_to_bytes, vanishing_poly,
)
from .kzg import (
    SRS, OpCounters, PairingTerms, add_quotient_check, commit, commit_many,
)

TRANSCRIPT_TAG = b"PMP-DAS-v2"


class MultiproofError(ValueError):
    pass


@dataclass(frozen=True)
class OpenedGroup:
    """Commitments plus the full evaluation vector of each one on a shared
    micro-domain; the transported unit a verifier checks in one shot."""

    commitments: tuple
    values: tuple  # k rows, each of exactly micro_domain.size scalars
    micro_domain: EvaluationDomain

    def __init__(self, commitments, values, micro_domain):
        commitments = tuple(commitments)
        values = tuple(tuple(v % SCALAR_MODULUS for v in row) for row in values)
        if not commitments:
            raise MultiproofError("opened group needs at least one commitment")
        if len(values) != len(commitments):
            raise MultiproofError("one value row per commitment required")
        g = micro_domain.size
        for row in values:
            if len(row) != g:
                raise MultiproofError(
                    "each value row must cover the full micro-domain")
        object.__setattr__(self, "commitments", commitments)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "micro_domain", micro_domain)


@dataclass(frozen=True)
class Transcript:
    """Challenge-derivation context; serialization is injective by fixed
    widths and length prefixes.

    With k >= 2 rows, the challenge must bind the claimed values: gamma
    is public, so values shifted between rows in a way its combination
    cancels would otherwise keep the check, and the proof, unchanged.
    """

    srs_id: bytes
    commitments: tuple
    micro_domain: EvaluationDomain
    coords: tuple  # ((row, col), ...) as 32-bit pairs
    gcell_block: "GCellBlock"
    values: tuple = ()  # the claimed scalar of each coordinate, in order

    def serialize(self) -> bytes:
        out = bytearray()
        out += TRANSCRIPT_TAG
        out += self.srs_id
        out += len(self.commitments).to_bytes(4, "big")
        for cm in self.commitments:
            out += cm.to_bytes()
        out += len(self.micro_domain).to_bytes(4, "big")
        for z in self.micro_domain:
            out += scalar_to_bytes(z)
        out += len(self.coords).to_bytes(4, "big")
        for row, col in self.coords:
            out += int(row).to_bytes(4, "big")
            out += int(col).to_bytes(4, "big")
        out += len(self.values).to_bytes(4, "big")
        for v in self.values:
            out += scalar_to_bytes(v)
        out += self.gcell_block.to_bytes()
        return bytes(out)


def derive_gamma(transcript: Transcript) -> int:
    """Hash-to-scalar over the canonical transcript serialization."""
    return hash_to_scalar(transcript.serialize())


def _gamma_powers(gamma: int, k: int):
    powers = []
    acc = 1
    for _ in range(k):
        powers.append(acc)
        acc = acc * gamma % SCALAR_MODULUS
    return powers


def open_groups(srs: SRS, groups, counters: OpCounters | None = None) -> list:
    """Aggregated openings of several groups, each (polys, micro_domain,
    gamma), with their proofs committed in one fixed-base walk
    (`kzg.commit_many`), so each SRS table half pays one inversion for
    all of them.

    A group's proof commits the quotient of its gamma-weighted polynomial
    sum by its micro-domain's vanishing polynomial, discarding the
    remainder. The remainder is exactly the gamma-combined interpolant
    (its degree is below the micro-domain size), so no interpolation
    happens here. A cell's own proof is the group of its row alone on
    the cell's one-point micro-domain, with gamma 1.
    """
    d = srs.degree_bound
    quotients = []
    for polys, micro_domain, gamma in groups:
        polys = list(polys)
        if not polys:
            raise MultiproofError("need at least one polynomial")
        gamma %= SCALAR_MODULUS
        if gamma == 0:
            raise MultiproofError("challenge must be nonzero")
        g = micro_domain.size
        if g > d:
            raise MultiproofError("micro-domain larger than the SRS bound")
        combined = Polynomial()
        for w, p in zip(_gamma_powers(gamma, len(polys)), polys):
            if p.degree > d:
                raise MultiproofError(
                    "polynomial degree exceeds the SRS bound")
            combined = combined + p.scale(w)
        quotient, _ = div_rem(combined, vanishing_poly(micro_domain))
        quotients.append(quotient)
        # the cost model charges the d + 1 - g slots of the quotient's
        # degree bound, whatever its length
        if counters is not None:
            counters.g1_scalar_mults += d + 1 - g
    return commit_many(srs, quotients)


def open_shared(srs: SRS, polys, micro_domain: EvaluationDomain, gamma: int,
                counters: OpCounters | None = None) -> G1Point:
    """Aggregated opening over one shared micro-domain: the one-group
    case of `open_groups`."""
    return open_groups(srs, [(polys, micro_domain, gamma)], counters)[0]


def shared_terms(srs: SRS, group: OpenedGroup, proof: G1Point,
                 gamma: int, counters: OpCounters | None = None,
                 weight: int = 1) -> PairingTerms:
    """Pairing terms of one aggregated check for a whole opened group,
    times `weight`.

    Interpolates the gamma-combined value rows in one pass, then reduces
    e(C - R, g2) == e(proof, [Z_md(x)]_2), with C the gamma-combination
    of the commitments and R the commitment to the combined interpolant
    (its coefficients on the SRS G1 powers), by `add_quotient_check`. A
    coset micro-domain lands on g2 and [x^g]_2, the bases of every
    per-cell opening; any other on g2 and its own [Z_md(x)]_2.
    """
    if not isinstance(proof, G1Point):
        raise MultiproofError("malformed aggregated proof")
    gamma %= SCALAR_MODULUS
    if gamma == 0:
        raise MultiproofError("challenge must be nonzero")
    md = group.micro_domain
    k = len(group.commitments)
    g = md.size
    weights = _gamma_powers(gamma, k)

    combined_values = [0] * g
    for w, row in zip(weights, group.values):
        for j, v in enumerate(row):
            combined_values[j] = (combined_values[j] + w * v) % SCALAR_MODULUS
    r_combined = interpolate(md.points, combined_values)
    base, c = srs.vanishing_base(md, counters=counters)
    terms = PairingTerms(srs)
    r_terms = ((pt, -r) for pt, r in zip(srs.g1_powers, r_combined.coeffs))
    add_quotient_check(terms, (*zip(group.commitments, weights), *r_terms),
                       proof, base, c, weight)
    # the cost model charges one interpolation, g slots for committing to
    # R, the k-point combination plus one multiplication for negating R,
    # and two pairings
    if counters is not None:
        counters.interpolations += 1
        counters.g1_scalar_mults += g + k + 1
        counters.pairings += 2
    return terms


def verify_shared(srs: SRS, group: OpenedGroup, proof: G1Point,
                  gamma: int, counters: OpCounters | None = None) -> bool:
    """Single aggregated pairing check for a whole opened group."""
    return shared_terms(srs, group, proof, gamma, counters).check()


def open_generic(srs: SRS, polys, opened_sets, values, gamma: int,
                 counters: OpCounters | None = None) -> G1Point:
    """General multi-set aggregated opening; cross-check oracle for the
    shared-point specialization.

    Every (f_i - r_i) must be exactly divisible by the vanishing polynomial
    of its opened set; a nonzero remainder (dishonest values) is an error,
    never a silent truncation.
    """
    polys = list(polys)
    opened_sets = list(opened_sets)
    values = [list(v) for v in values]
    if not (len(polys) == len(opened_sets) == len(values)):
        raise MultiproofError("polys, opened sets, and values must align")
    if not polys:
        raise MultiproofError("need at least one polynomial")
    gamma %= SCALAR_MODULUS
    if gamma == 0:
        raise MultiproofError("challenge must be nonzero")
    h = Polynomial()
    for w, p, pts, vals in zip(_gamma_powers(gamma, len(polys)),
                               polys, opened_sets, values):
        if p.degree > srs.degree_bound:
            raise MultiproofError("polynomial degree exceeds the SRS bound")
        r_i = interpolate(pts, vals)
        q_i, rem = div_rem(p - r_i, vanishing_poly(pts))
        if not rem.is_zero():
            raise MultiproofError(
                "claimed values do not match the polynomial on its opened set")
        h = h + q_i.scale(w)
    return commit(srs, h, counters=counters)
