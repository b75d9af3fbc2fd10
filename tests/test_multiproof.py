"""Shared-point aggregated openings: transcript, proving, verification."""

import random

import pytest

from helpers import (
    ORACLE_SECRET, g1_at, g2_at, rand_poly, rand_scalar, shared_srs,
)
from pmpdas.curve import G1Point
from pmpdas.field_poly import (
    SCALAR_MODULUS, EvaluationDomain, Polynomial, div_rem, vanishing_poly,
)
from pmpdas.kzg import OpCounters, commit, gen, open_single, verify_single
from pmpdas.multiproof import (
    MultiproofError, OpenedGroup, Transcript, derive_gamma, open_generic,
    open_shared, verify_shared,
)
from pmpdas.wire import GCellBlock

D = 16


def _instance(rng, k, g, d=D):
    srs = shared_srs(d)
    polys = [rand_poly(rng, rng.randrange(d + 1)) for _ in range(k)]
    points = set()
    while len(points) < g:
        points.add(rand_scalar(rng))
    md = EvaluationDomain(sorted(points), offset=0)
    commitments = [commit(srs, p) for p in polys]
    values = [[p.evaluate(z) for z in md] for p in polys]
    group = OpenedGroup(commitments, values, md)
    transcript = Transcript(
        srs_id=srs.srs_id,
        commitments=tuple(commitments),
        micro_domain=md,
        coords=tuple((0, j) for j in range(g * k)),
        gcell_block=GCellBlock(0, k, 0, g),
    )
    return srs, polys, md, group, transcript


def _oracle_witness(polys, md, gamma):
    """[h(secret)] computed entirely in the scalar field."""
    combined = Polynomial()
    w = 1
    for p in polys:
        combined = combined + p.scale(w)
        w = w * gamma % SCALAR_MODULUS
    h, _ = div_rem(combined, vanishing_poly(md))
    return g1_at(h.evaluate(ORACLE_SECRET))


def test_honest_round_trip():
    rng = random.Random(40)
    srs, polys, md, group, transcript = _instance(rng, k=3, g=4)
    gamma = derive_gamma(transcript)
    proof = open_shared(srs, polys, md, gamma)
    assert verify_shared(srs, group, proof, gamma)


def test_witness_matches_generic_prover_and_oracle():
    rng = random.Random(41)
    for k, g in ((1, 1), (2, 4), (4, 2)):
        srs, polys, md, group, transcript = _instance(rng, k, g)
        gamma = derive_gamma(transcript)
        proof = open_shared(srs, polys, md, gamma)
        generic = open_generic(
            srs, polys, [md.points] * k,
            [[p.evaluate(z) for z in md] for p in polys], gamma)
        assert proof == generic
        assert proof == _oracle_witness(polys, md, gamma)


def test_single_poly_witness_is_challenge_independent():
    rng = random.Random(42)
    srs, polys, md, _, _ = _instance(rng, k=1, g=4)
    assert open_shared(srs, polys, md, 123) == \
        open_shared(srs, polys, md, 456)


def test_tampered_value_rejected():
    rng = random.Random(43)
    srs, polys, md, group, transcript = _instance(rng, k=2, g=4)
    gamma = derive_gamma(transcript)
    proof = open_shared(srs, polys, md, gamma)
    bad_values = [list(row) for row in group.values]
    bad_values[1][2] = (bad_values[1][2] + 1) % SCALAR_MODULUS
    bad = OpenedGroup(group.commitments, bad_values, md)
    assert not verify_shared(srs, bad, proof, gamma)


def test_generic_prover_rejects_dishonest_values():
    rng = random.Random(44)
    srs, polys, md, _, _ = _instance(rng, k=2, g=4)
    values = [[p.evaluate(z) for z in md] for p in polys]
    values[0][0] += 1
    with pytest.raises(MultiproofError):
        open_generic(srs, polys, [md.points] * 2, values, gamma=5)


def test_transcript_binds_every_component():
    rng = random.Random(45)
    srs, polys, md, group, transcript = _instance(rng, k=2, g=4)
    base = derive_gamma(transcript)
    assert derive_gamma(transcript) == base

    variants = [
        Transcript(b"\x00" * 32, transcript.commitments, md,
                   transcript.coords, transcript.gcell_block),
        Transcript(srs.srs_id, tuple(reversed(transcript.commitments)), md,
                   transcript.coords, transcript.gcell_block),
        Transcript(srs.srs_id, transcript.commitments,
                   EvaluationDomain([(z + 1) % SCALAR_MODULUS for z in md]),
                   transcript.coords, transcript.gcell_block),
        Transcript(srs.srs_id, transcript.commitments, md,
                   transcript.coords[:-1] + ((9, 9),),
                   transcript.gcell_block),
        Transcript(srs.srs_id, transcript.commitments, md,
                   transcript.coords, GCellBlock(0, 2, 4, 8)),
        Transcript(srs.srs_id, transcript.commitments, md,
                   transcript.coords, transcript.gcell_block,
                   domain_tag=b"other-protocol"),
    ]
    seen = {base}
    for variant in variants:
        gamma = derive_gamma(variant)
        assert gamma not in seen
        seen.add(gamma)


def test_challenge_binding_rejects_cross_transcript_proofs():
    rng = random.Random(46)
    srs, polys, md, group, transcript = _instance(rng, k=2, g=4)
    gamma = derive_gamma(transcript)
    proof = open_shared(srs, polys, md, gamma)
    permuted = Transcript(
        srs.srs_id, tuple(reversed(transcript.commitments)), md,
        transcript.coords, transcript.gcell_block)
    permuted_group = OpenedGroup(tuple(reversed(group.commitments)),
                                 group.values, md)
    assert not verify_shared(srs, permuted_group, proof,
                             derive_gamma(permuted))


def test_operation_counters_match_cost_model():
    rng = random.Random(47)
    k, g = 3, 4
    d = 12
    srs = gen(d, 424242)  # private SRS: vanishing commitment cache is cold
    polys = [rand_poly(rng, rng.randrange(d + 1)) for _ in range(k)]
    md = EvaluationDomain(range(1, g + 1), offset=0)
    commitments = [commit(srs, p) for p in polys]
    values = [[p.evaluate(z) for z in md] for p in polys]
    group = OpenedGroup(commitments, values, md)

    counters = OpCounters()
    proof = open_shared(srs, polys, md, 31337, counters=counters)
    assert counters.g1_scalar_mults == d + 1 - g
    assert counters.g2_scalar_mults == 0
    assert counters.pairings == 0
    assert counters.interpolations == 0

    cold = OpCounters()
    assert verify_shared(srs, group, proof, 31337, counters=cold)
    assert cold.g1_scalar_mults == k + g + 1
    assert cold.g2_scalar_mults == g + 1
    assert cold.pairings == 2
    assert cold.interpolations == 1

    warm = OpCounters()
    assert verify_shared(srs, group, proof, 31337, counters=warm)
    assert warm.g2_scalar_mults == 0
    assert warm.g1_scalar_mults == k + g + 1


def test_shared_point_reduces_to_single_opening():
    rng = random.Random(48)
    srs = shared_srs(D)
    for _ in range(10):
        p = rand_poly(rng, D)
        z = rand_scalar(rng)
        md = EvaluationDomain((z,), offset=0)
        cm = commit(srs, p)
        value, single_proof = open_single(srs, p, z)
        tampered = rng.random() < 0.5
        if tampered:
            value = (value + 1) % SCALAR_MODULUS
        group = OpenedGroup([cm], [[value]], md)
        agg = open_shared(srs, [p], md, gamma=1)
        multi_decision = verify_shared(srs, group, agg, gamma=1)
        single_decision = verify_single(srs, cm, z, value, single_proof)
        assert multi_decision == single_decision == (not tampered)
        # the witnesses themselves coincide for a single point
        assert agg == single_proof


def test_input_validation():
    rng = random.Random(49)
    srs, polys, md, group, transcript = _instance(rng, k=2, g=2)
    with pytest.raises(MultiproofError):
        open_shared(srs, [], md, 5)
    with pytest.raises(MultiproofError):
        open_shared(srs, polys, md, 0)
    with pytest.raises(MultiproofError):
        verify_shared(srs, group, g1_at(1), 0)
    with pytest.raises(MultiproofError):
        verify_shared(srs, group, g2_at(1), 7)  # not a G1 point
    with pytest.raises(MultiproofError):
        OpenedGroup([], [], md)
    with pytest.raises(MultiproofError):
        OpenedGroup(group.commitments, [[1], [2]], md)  # short rows


def test_proof_serialization_round_trip():
    rng = random.Random(50)
    srs, polys, md, group, transcript = _instance(rng, k=2, g=2)
    proof = open_shared(srs, polys, md, 7)
    assert G1Point.from_bytes(proof.to_bytes()) == proof
