"""Commitment scheme: setup, openings, batching, and cost accounting."""

import random
import sys
import threading

import pytest

from helpers import (
    ORACLE_SECRET, batch_inverse_calls, g1_at, g2_at, inject_fault,
    oracle_commit, rand_poly, record_calls, rho_weights, shared_srs,
)
from pmpdas import kzg
from pmpdas.curve import CurveError, G1Point, G2Point, g1_msm
from pmpdas.field_poly import (
    SCALAR_MODULUS, EvaluationDomain, Polynomial, root_of_unity,
)
from pmpdas.kzg import (
    SRS, KzgError, OpCounters, commit, gen, open_single,
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


# sha256 identifiers of gen(d, 12345), recorded when each power was still
# its own double-and-add ladder; a change here means the SRS bytes changed.
GEN_SRS_IDS = {
    3: "26d11cbd9c86ad82194c5fc1d3789c89283d41e26e963f9680db40682089583c",
    31: "a4ff890e5f787bf19c4f7060df21cc638a4882a1f7fbcf8839fc2d208f52fe02",
}


def test_srs_structure():
    srs = shared_srs(D)
    assert srs.degree_bound == D
    assert len(srs.g1_powers) == len(srs.g2_powers) == D + 1
    assert srs.g1_powers[0] == g1_at(1)
    assert srs.g1_powers[2] == g1_at(pow(ORACLE_SECRET, 2, SCALAR_MODULUS))
    for i in range(D + 1):
        power = pow(ORACLE_SECRET, i, SCALAR_MODULUS)
        assert srs.g1_powers[i].to_bytes() == g1_at(power).to_bytes()
        assert srs.g2_powers[i].to_bytes() == g2_at(power).to_bytes()
    assert len(srs.srs_id) == 32
    for d, srs_id in GEN_SRS_IDS.items():
        assert gen(d, 12345).srs_id.hex() == srs_id


def test_srs_construction_inverts_nothing(monkeypatch):
    # the powers are affine, so hashing their encodings into the id reads
    # them as they are
    srs = shared_srs(D)
    calls = batch_inverse_calls(monkeypatch)
    assert SRS(srs.g1_powers, srs.g2_powers).srs_id == srs.srs_id
    assert calls == []


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


def test_open_single_degree_bound():
    # the bound commit and open_groups keep: degree d opens, d + 1 does not
    srs = gen(2, 5)
    rng = random.Random(39)
    with pytest.raises(KzgError, match="exceeds the SRS bound"):
        open_single(srs, rand_poly(rng, 3), 7)
    p = rand_poly(rng, 2)
    value, proof = open_single(srs, p, 7)
    assert value == p.evaluate(7)
    assert verify_single(srs, commit(srs, p), 7, value, proof)


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


def test_batch_verification():
    rng = random.Random(35)
    srs = shared_srs(D)
    openings = []
    for _ in range(4):
        p = rand_poly(rng, D)
        z = rng.randrange(SCALAR_MODULUS)
        value, proof = open_single(srs, p, z)
        openings.append((commit(srs, p), z, value, proof))
    weights = rho_weights(len(openings))
    counters = OpCounters()
    assert verify_batch_independent(srs, openings, weights, counters=counters)
    assert counters.pairings == 2
    assert counters.g1_scalar_mults == 4 * len(openings)

    cm, z, value, proof = openings[2]
    openings[2] = (cm, z, (value + 1) % SCALAR_MODULUS, proof)
    assert not verify_batch_independent(srs, openings, weights)
    with pytest.raises(KzgError):
        verify_batch_independent(srs, [], weights)


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

    # [x - z]_2 is the one-point case, keyed by z mod r
    g2 = G2Point.generator()
    for z in (0, 1, SCALAR_MODULUS - 1,
              random.Random(39).randrange(SCALAR_MODULUS)):
        counters = OpCounters()
        x_minus_z = srs.cached_z_commitment((z,), counters=counters)
        assert x_minus_z == srs.g2_powers[1] - g2 * z
        assert counters.g2_scalar_mults == 2
        counters = OpCounters()
        again = srs.cached_z_commitment((z + SCALAR_MODULUS,),
                                        counters=counters)
        assert again is x_minus_z
        assert counters.g2_scalar_mults == 0
    with pytest.raises(KzgError):
        srs.cached_z_commitment(range(D + 1))


def test_vanishing_base_of_a_coset_computes_nothing(monkeypatch):
    srs = gen(D, 778)  # private SRS so the memo starts cold
    g2 = G2Point.generator()
    w = root_of_unity(8)
    h = random.Random(40).randrange(1, SCALAR_MODULUS)
    coset = [h * pow(w, j, SCALAR_MODULUS) for j in range(8)]
    general = (1, 2, 3)
    inject_fault(monkeypatch, kzg, "g2_msm",
                 AssertionError("a coset needs no [Z_md(x)]_2"))
    for points, g in ((coset, 8), (coset[::2], 4), ((5,), 1)):
        counters = OpCounters()
        base, c = srs.vanishing_base(points, counters=counters)
        assert base is srs.g2_powers[g]
        assert c == pow(points[0], g, SCALAR_MODULUS)
        assert counters.g2_scalar_mults == g + 1
        counters = OpCounters()
        assert srs.vanishing_base(points, counters=counters) == (base, c)
        assert counters.g2_scalar_mults == 0
    monkeypatch.undo()

    # a coset seen once costs nothing more through the general memo, and
    # both bases describe the same [Z(x)]_2
    counters = OpCounters()
    z2 = srs.cached_z_commitment(coset[::2], counters=counters)
    assert counters.g2_scalar_mults == 0
    base, c = srs.vanishing_base(coset[::2])
    assert z2 == base - g2 * c
    # any other point set gets its own base, charged on first sight
    counters = OpCounters()
    base, c = srs.vanishing_base(general, counters=counters)
    assert (base, c) == (srs.cached_z_commitment(general), 0)
    assert counters.g2_scalar_mults == len(general) + 1
    # repeated points are not a coset even when their powers agree
    assert srs.vanishing_base((1, 1))[1] == 0
    with pytest.raises(KzgError):
        srs.vanishing_base(coset + [0])


def test_fixed_base_tables_cover_only_the_prefix_used(monkeypatch):
    calls = record_calls(monkeypatch, kzg, "g1_fixed_base_tables", list)
    srs = gen(D, 778)  # private SRS so no table exists yet
    assert srs.g1_tables(0) == ()
    p = rand_poly(random.Random(37), 2)
    first = commit(srs, p)
    # the missing powers are built in one call
    assert calls == [list(srs.g1_powers[:3])]
    assert len(srs.g1_tables(0)) == 3
    assert commit(srs, p) == first
    open_single(srs, p, 11)
    assert len(calls) == 1
    commit(srs, rand_poly(random.Random(38), 5))
    assert calls == [list(srs.g1_powers[:3]), list(srs.g1_powers[3:6])]


def test_concurrent_commits_build_each_table_once(monkeypatch):
    built = record_calls(monkeypatch, kzg, "g1_fixed_base_tables",
                         lambda points: [pt.to_bytes() for pt in points])
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
    assert sorted(pt for call in built for pt in call) == \
        sorted(pt.to_bytes() for pt in srs.g1_powers)
    # whatever the threads' interleaving, a later commit builds nothing
    assert commit(srs, polys[-1]) == expected[-1]
    assert sum(map(len, built)) == len(srs.g1_powers)


def test_concurrent_first_sights_charge_each_point_set_once():
    srs = gen(D, 781)
    w = root_of_unity(8)
    cosets = [[h * pow(w, j, SCALAR_MODULUS) for j in range(0, 8, 8 // g)]
              for h in (2, 3) for g in (1, 2, 4, 8)]
    point_sets = cosets + [(1, 2, 3)]
    charged = [None] * 6

    def work(i):
        counters = OpCounters()
        for points in point_sets[i % 3:] + point_sets[:i % 3]:
            srs.vanishing_base(points, counters=counters)
        charged[i] = counters.g2_scalar_mults

    threads = [threading.Thread(target=work, args=(i,))
               for i in range(len(charged))]
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
    assert sum(charged) == sum(len(points) + 1 for points in point_sets)


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
