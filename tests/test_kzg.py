"""Commitment scheme: setup, openings, batching, and cost accounting."""

import random
import sys
import threading

import pytest

from helpers import (
    ORACLE_SECRET, g1_at, g2_at, oracle_commit, rand_poly, shared_srs,
)
from pmpdas import kzg
from pmpdas.curve import CurveError, G1Point, g1_msm
from pmpdas.field_poly import SCALAR_MODULUS, EvaluationDomain, Polynomial
from pmpdas.kzg import (
    KzgError, OpCounters, commit, derive_rho, gen, open_single,
    verify_batch_independent, verify_single,
)
from pmpdas.wire import decode_srs, encode_srs

D = 8


def test_gen_validates_arguments():
    with pytest.raises(KzgError):
        gen(0, 5)
    with pytest.raises(KzgError):
        gen(4, 0)
    with pytest.raises(KzgError):
        gen(4, SCALAR_MODULUS)  # reduces to zero


def test_srs_structure():
    srs = shared_srs(D)
    assert srs.degree_bound == D
    assert len(srs.g1_powers) == len(srs.g2_powers) == D + 1
    assert srs.g1_powers[0] == g1_at(1)
    assert srs.g1_powers[2] == g1_at(pow(ORACLE_SECRET, 2, SCALAR_MODULUS))
    assert len(srs.srs_id) == 32


def test_commit_matches_known_secret_oracle():
    rng = random.Random(30)
    srs = shared_srs(D)
    for _ in range(5):
        p = rand_poly(rng, rng.randrange(D + 1))
        assert commit(srs, p) == oracle_commit(p)
    assert commit(srs, Polynomial()) == g1_at(0)


def test_commit_degree_bound():
    srs = shared_srs(D)
    with pytest.raises(KzgError):
        commit(srs, rand_poly(random.Random(31), D + 1))
    with pytest.raises(KzgError):
        commit(srs, Polynomial((1,)), slots=D + 2)


def test_open_and_verify_single():
    rng = random.Random(32)
    srs = shared_srs(D)
    p = rand_poly(rng, D)
    cm = commit(srs, p)
    z = rng.randrange(SCALAR_MODULUS)
    value, proof = open_single(srs, p, z)
    assert value == p.evaluate(z)
    assert verify_single(srs, cm, z, value, proof)
    assert not verify_single(srs, cm, z, value + 1, proof)
    assert not verify_single(srs, cm, z + 1, value, proof)
    other = commit(srs, p + Polynomial((1,)))
    assert not verify_single(srs, other, z, value, proof)


def test_opening_witness_matches_oracle():
    rng = random.Random(33)
    srs = shared_srs(D)
    p = rand_poly(rng, D)
    z = rng.randrange(SCALAR_MODULUS)
    value, proof = open_single(srs, p, z)
    # the witness is [q(secret)] for q = (p - value) / (X - z)
    num = (p.evaluate(ORACLE_SECRET) - value) % SCALAR_MODULUS
    den = (ORACLE_SECRET - z) % SCALAR_MODULUS
    q_at_secret = num * pow(den, -1, SCALAR_MODULUS) % SCALAR_MODULUS
    assert proof == g1_at(q_at_secret)


def test_verify_single_counters():
    rng = random.Random(34)
    srs = shared_srs(D)
    p = rand_poly(rng, D)
    cm = commit(srs, p)
    value, proof = open_single(srs, p, 5)
    counters = OpCounters()
    assert verify_single(srs, cm, 5, value, proof, counters=counters)
    assert counters.as_dict() == {
        "g1_mults": 1, "g2_mults": 1, "pairings": 2, "interpolations": 0}


def test_verify_single_rejects_non_g1_elements():
    srs = shared_srs(D)
    p = Polynomial((3, 1))
    cm = commit(srs, p)
    value, proof = open_single(srs, p, 5)
    for bad in ((g2_at(1), proof), (cm, g2_at(1)), (cm, proof.to_bytes())):
        with pytest.raises(CurveError):
            verify_single(srs, bad[0], 5, value, bad[1])


def test_commit_slot_accounting():
    srs = shared_srs(D)
    counters = OpCounters()
    commit(srs, Polynomial((1, 2)), counters=counters)
    assert counters.g1_scalar_mults == 2
    counters = OpCounters()
    commit(srs, Polynomial((1, 2)), counters=counters, slots=D + 1)
    assert counters.g1_scalar_mults == D + 1


def test_batch_verification():
    rng = random.Random(35)
    srs = shared_srs(D)
    openings = []
    for _ in range(4):
        p = rand_poly(rng, D)
        z = rng.randrange(SCALAR_MODULUS)
        value, proof = open_single(srs, p, z)
        openings.append((commit(srs, p), z, value, proof))
    rho = derive_rho(srs, openings)
    counters = OpCounters()
    assert verify_batch_independent(srs, openings, rho, counters=counters)
    assert counters.pairings == 2
    assert counters.g1_scalar_mults == 4 * len(openings)

    cm, z, value, proof = openings[2]
    openings[2] = (cm, z, (value + 1) % SCALAR_MODULUS, proof)
    assert not verify_batch_independent(srs, openings, derive_rho(srs, openings))
    with pytest.raises(KzgError):
        verify_batch_independent(srs, [], rho)


def test_derive_rho_binds_every_component():
    rng = random.Random(36)
    srs = shared_srs(D)
    p = rand_poly(rng, D)
    value, proof = open_single(srs, p, 7)
    opening = (commit(srs, p), 7, value, proof)
    base = derive_rho(srs, [opening])
    assert derive_rho(srs, [opening]) == base  # deterministic
    cm, z, v, pi = opening
    assert derive_rho(srs, [(cm, z + 1, v, pi)]) != base
    assert derive_rho(srs, [(cm, z, v + 1, pi)]) != base
    assert derive_rho(srs, [(commit(srs, p + Polynomial((1,))), z, v, pi)]) != base
    assert derive_rho(shared_srs(D + 1), [opening]) != base


def test_cached_z_commitment_cost():
    srs = gen(D, 777)  # private SRS so the cache starts cold
    md = EvaluationDomain((1, 2, 3), offset=0)
    counters = OpCounters()
    first = srs.cached_z_commitment(md, counters=counters)
    assert counters.g2_scalar_mults == md.size + 1
    counters = OpCounters()
    again = srs.cached_z_commitment(md, counters=counters)
    assert counters.g2_scalar_mults == 0
    assert first == again


def test_fixed_base_tables_cover_only_the_prefix_used(monkeypatch):
    built = []
    real = kzg.g1_fixed_base_table

    def counting(pt):
        built.append(pt)
        return real(pt)

    monkeypatch.setattr(kzg, "g1_fixed_base_table", counting)
    srs = gen(D, 778)  # private SRS so no table exists yet
    assert srs.g1_tables(0) == ()
    p = rand_poly(random.Random(37), 2)
    first = commit(srs, p)
    assert built == list(srs.g1_powers[:3])
    assert len(srs.g1_tables(0)) == 3
    assert commit(srs, p) == first
    commit(srs, Polynomial((4, 5)), slots=D + 1)  # zero padding needs none
    open_single(srs, p, 11)
    assert len(built) == 3
    commit(srs, rand_poly(random.Random(38), 5))
    assert built == list(srs.g1_powers[:6])


def test_concurrent_commits_build_each_table_once(monkeypatch):
    built = []
    real = kzg.g1_fixed_base_table

    def counting(pt):
        built.append(pt.to_bytes())
        return real(pt)

    monkeypatch.setattr(kzg, "g1_fixed_base_table", counting)
    rng = random.Random(40)
    srs = gen(D, 780)
    polys = [rand_poly(rng, degree) for degree in (1, 3, 5, D)] * 2
    expected = [g1_msm(srs.g1_powers, p.coeffs) for p in polys]
    got = [None] * len(polys)

    def work(i):
        got[i] = commit(srs, polys[i])

    threads = [threading.Thread(target=work, args=(i,))
               for i in range(len(polys))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == expected
    assert sorted(built) == sorted(pt.to_bytes() for pt in srs.g1_powers)


def test_decoded_srs_commits_identically():
    rng = random.Random(39)
    srs = gen(D, 779)
    back = decode_srs(encode_srs(srs))
    for degree in (0, 3, D):
        p = rand_poly(rng, degree)
        assert commit(back, p).to_bytes() == commit(srs, p).to_bytes()
    assert back.g1_tables(0) == srs.g1_tables(0)


def test_commitment_and_proof_serialization():
    srs = shared_srs(D)
    cm = commit(srs, Polynomial((9, 9)))
    assert G1Point.from_bytes(cm.to_bytes()) == cm
    _, proof = open_single(srs, Polynomial((9, 9)), 4)
    assert G1Point.from_bytes(proof.to_bytes()) == proof
