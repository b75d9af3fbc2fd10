"""The optimised verification primitives against the straightforward
implementations in `oracles`."""

import random

import oracles
from helpers import rand_poly, shared_srs
from pmpdas import fields as F
from pmpdas.curve import (
    G1Point, G2Point, _g1_add, _g1_mul_unreduced, multi_pairing,
)
from pmpdas.field_poly import SCALAR_MODULUS
from pmpdas.kzg import (
    OpeningProof, commit, derive_rho, open_single, verify_batch_independent,
)

# G1 cofactor: #E(Fp) = H1 * r
H1 = 0x396C8C005555E1568C00AAAB0000AAAB


def _rand_fp12(rng):
    return tuple(tuple((rng.randrange(F.P), rng.randrange(F.P))
                       for _ in range(3)) for _ in range(2))


def _easy_part(f):
    f = F.fp12_mul(F.fp12_conj(f), F.fp12_inv(f))
    return F.fp12_mul(F.fp12_frobenius_n(f, 2), f)


def _rand_curve_point(rng):
    """A uniformly random point of E(Fp), almost never in G1."""
    while True:
        x = rng.randrange(F.P)
        y2 = (x * x * x + 4) % F.P
        y = pow(y2, (F.P + 1) // 4, F.P)
        if y * y % F.P == y2:
            return G1Point((x, y, 1))


def _torsion_point(rng, ell):
    """A point of order ell, for a prime ell dividing the cofactor.

    E(Fp) has full 11-torsion, so (#E/ell)*Q is always O for ell = 11:
    project onto the ell-primary part instead and multiply by ell until
    one more multiplication would give O.
    """
    cofactor = H1 * F.R
    while cofactor % ell == 0:
        cofactor //= ell
    while True:
        raw = _g1_mul_unreduced(_rand_curve_point(rng).raw, cofactor)
        if raw[2] == 0:
            continue
        while _g1_mul_unreduced(raw, ell)[2] != 0:
            raw = _g1_mul_unreduced(raw, ell)
        return G1Point(raw)


# ---------------------------------------------------------------------------
# Pairing

def test_multi_pairing_matches_affine_oracle():
    rng = random.Random(101)
    g1, g2 = G1Point.generator(), G2Point.generator()
    for trial in range(20):
        pairs = []
        for _ in range(rng.randint(1, 3)):
            a = rng.randrange(1, F.R)
            b = rng.randrange(1, F.R)
            kind = rng.randrange(5)
            pairs.append((G1Point.identity() if kind == 0 else g1 * a,
                          G2Point.identity() if kind == 1 else g2 * b))
        assert multi_pairing(pairs) == oracles.multi_pairing(pairs), trial


def test_final_exponentiation_matches_oracle():
    rng = random.Random(102)
    for _ in range(3):
        f = _rand_fp12(rng)
        assert F.final_exponentiation(f) == oracles.final_exponentiation(f)


def test_cyclotomic_sqr_matches_fp12_sqr():
    rng = random.Random(103)
    for _ in range(20):
        f = _easy_part(_rand_fp12(rng))
        assert F.fp12_cyclotomic_sqr(f) == F.fp12_sqr(f)


# ---------------------------------------------------------------------------
# G1 subgroup check

def test_g1_subgroup_check_matches_ladder():
    rng = random.Random(104)
    g1 = G1Point.generator()
    members = [g1 * rng.randrange(1, F.R) for _ in range(8)]
    members.append(G1Point.identity())
    for pt in members:
        assert pt.in_subgroup() and oracles.g1_in_subgroup(pt)
    for _ in range(8):
        pt = _rand_curve_point(rng)
        assert pt.in_subgroup() == oracles.g1_in_subgroup(pt)
    for ell in (3, 11):
        for member in members[:3]:
            t = _torsion_point(rng, ell)
            mixed = G1Point(_g1_add(member.raw, t.raw))
            for pt in (t, mixed):
                assert not oracles.g1_in_subgroup(pt)
                assert not pt.in_subgroup(), ell


# ---------------------------------------------------------------------------
# Batched KZG verification

def test_batch_verifier_matches_oracle():
    rng = random.Random(105)
    srs = shared_srs(7)
    openings = []
    for _ in range(4):
        p = rand_poly(rng, 7)
        z = rng.randrange(SCALAR_MODULUS)
        value, proof = open_single(srs, p, z)
        openings.append((commit(srs, p), z, value, proof))
    cm, z, value, proof = openings[1]
    other = openings[2][3]
    cases = [
        openings[:1],
        openings,
        openings[:1] + [(cm, z, (value + 1) % SCALAR_MODULUS, proof)],
        openings[:1] + [(cm, (z + 1) % SCALAR_MODULUS, value, proof)],
        openings[:1] + [(cm, z, value, other)],
        openings[:1] + [(openings[0][0], z, value, proof)],
        openings[:1] + [(cm, z, value,
                         OpeningProof(proof.witness + G1Point.generator()))],
    ]
    for i, case in enumerate(cases):
        rho = derive_rho(srs, case)
        expected = oracles.verify_batch_independent(srs, case, rho)
        assert verify_batch_independent(srs, case, rho) == expected, i
        assert expected == (i < 2), i
