"""The optimised verification primitives and the memoised DHT placement
against the straightforward implementations in `oracles`."""

import functools
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from helpers import rand_poly, shared_srs
from pmpdas import fields as F
from pmpdas.curve import (
    G1Point, G2Point, _g1_add, _g1_to_affine, _g2_to_affine, _miller_loop,
    g1_fixed_base_msm, g1_fixed_base_table, g1_msm, g2_msm, multi_pairing,
)
from pmpdas.dasnet import Rendezvous
from pmpdas.field_poly import SCALAR_MODULUS, EvaluationDomain, Polynomial
from pmpdas.kzg import (
    OpCounters, commit, derive_rho, open_single, verify_batch_independent,
    verify_single,
)
from pmpdas.multiproof import OpenedGroup, open_shared, verify_shared

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
        raw = G1Point._ladder(_rand_curve_point(rng).raw, cofactor)
        if raw[2] == 0:
            continue
        while G1Point._ladder(raw, ell)[2] != 0:
            raw = G1Point._ladder(raw, ell)
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


def _assert_prepared_loop_matches(pairs):
    affine = [(_g1_to_affine(p.raw), _g2_to_affine(q.raw)) for p, q in pairs
              if not (p.is_identity() or q.is_identity())]
    assert _miller_loop(pairs) == oracles.projective_miller_loop(affine)


def test_prepared_miller_loop_matches_projective_oracle():
    rng = random.Random(108)
    srs = shared_srs(7)
    g1, g2 = G1Point.generator(), G2Point.generator()
    z_md = srs.cached_z_commitment([rng.randrange(F.R) for _ in range(4)])
    cached = (g2, srs.g2_powers[1], z_md)
    for call in range(2):
        # fresh points prepare their lines on this call; the cached ones
        # prepare them on the first call and reuse them on the second
        fresh = (g2 * rng.randrange(1, F.R), g2 * rng.randrange(1, F.R))
        for q in cached + fresh:
            _assert_prepared_loop_matches([(g1 * rng.randrange(1, F.R), q)])
        _assert_prepared_loop_matches(
            [(g1 * rng.randrange(1, F.R), q) for q in cached + fresh[:1]])
        _assert_prepared_loop_matches([
            (G1Point.identity(), cached[0]),
            (g1 * rng.randrange(1, F.R), G2Point.identity()),
            (g1 * rng.randrange(1, F.R), cached[1]),
            (-g1, fresh[1]),
        ])
        assert all(q._lines() is q._lines() for q in cached + fresh)
    _assert_prepared_loop_matches([(G1Point.identity(), g2),
                                   (g1, G2Point.identity())])
    _assert_prepared_loop_matches([])


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
        openings[:1] + [(cm, z, value, proof + G1Point.generator())],
    ]
    for i, case in enumerate(cases):
        rho = derive_rho(srs, case)
        expected = oracles.verify_batch_independent(srs, case, rho)
        assert verify_batch_independent(srs, case, rho) == expected, i
        assert expected == (i < 2), i


# ---------------------------------------------------------------------------
# Fixed-base MSM

MSM_SRS_DEGREE = 31  # 32 powers, the publish SRS

# Reduction edge cases, and scalars whose every window is all ones, which
# recode to a negative digit and carry into the window above the top one.
special_scalars = st.one_of(
    st.sampled_from([0, 1, 2, F.R - 1, F.R, F.R + 1, 5 * F.R + 3, -1, -F.R,
                     -(F.R + 2), 1 << 254]),
    st.integers(1, 256).map(lambda bits: (1 << bits) - 1),
    st.integers(1, 256).map(lambda bits: F.R - (1 << bits) + 1),
)
scalars = st.one_of(special_scalars, st.integers(-2 * F.R, 3 * F.R))


def _assert_msm_matches(points, tables, ks):
    got = g1_fixed_base_msm(tables, ks)
    assert got == g1_msm(points, ks)
    assert got == oracles.g1_msm(points, ks)
    assert got.to_bytes() == oracles.g1_msm(points, ks).to_bytes()


@given(st.lists(scalars, min_size=1, max_size=MSM_SRS_DEGREE + 1))
@settings(max_examples=25, deadline=None)
def test_fixed_base_msm_over_srs_prefixes(ks):
    srs = shared_srs(MSM_SRS_DEGREE)
    n = len(ks)
    _assert_msm_matches(srs.g1_powers[:n], srs.g1_tables(n), ks)


@functools.cache
def _base_pool():
    """(point, table) for two SRS powers, the negated generator and the
    identity, so draws repeat bases and cancel terms."""
    g = G1Point.generator()
    return tuple((pt, g1_fixed_base_table(pt)) for pt in
                 (g, shared_srs(MSM_SRS_DEGREE).g1_powers[1], -g,
                  G1Point.identity()))


@given(st.lists(st.tuples(st.integers(0, 3), scalars),
                min_size=1, max_size=8))
@settings(max_examples=25, deadline=None)
def test_fixed_base_msm_with_repeated_and_identity_bases(terms):
    pool = _base_pool()
    points = [pool[i][0] for i, _ in terms]
    tables = [pool[i][1] for i, _ in terms]
    _assert_msm_matches(points, tables, [k for _, k in terms])


def test_fixed_base_msm_edge_cases():
    g = G1Point.generator()
    (_, tg), _, (_, tneg), (_, tinf) = _base_pool()
    assert tinf == ()
    five = g1_fixed_base_table(g * 5)
    cases = [
        ([], [], []),
        ([g], [tg], [0]),
        ([g], [tg], [F.R]),
        ([G1Point.identity()], [tinf], [7]),
        ([g, g], [tg, tg], [1, 1]),  # the mixed add meets P + P
        ([g, -g], [tg, tneg], [1, 1]),  # and P + (-P)
        ([g * 5, g * 5], [five, five], [1, 1]),
        ([g, g], [tg, tg], [3, F.R - 3]),
        ([g], [tg], [(1 << 8) - 1]),
    ]
    for points, tables, ks in cases:
        _assert_msm_matches(points, tables, ks)
    assert g1_fixed_base_msm([tg, tg], [1, 1]) == g * 2
    assert g1_fixed_base_msm([tg, tneg], [1, 1]).is_identity()


polys_and_slots = st.integers(0, MSM_SRS_DEGREE + 1).flatmap(
    lambda n: st.tuples(st.lists(st.integers(0, F.R - 1), min_size=n,
                                 max_size=n),
                        st.integers(n, MSM_SRS_DEGREE + 1)))


@given(polys_and_slots)
@settings(max_examples=20, deadline=None)
def test_commit_matches_variable_base_msm(poly_and_slots):
    coeffs, slots = poly_and_slots
    srs = shared_srs(MSM_SRS_DEGREE)
    p = Polynomial(coeffs)
    counters = OpCounters()
    cm = commit(srs, p, counters=counters, slots=slots)
    expected = g1_msm(srs.g1_powers[:slots], p.padded(slots))
    assert cm == expected
    assert cm.to_bytes() == expected.to_bytes()
    assert counters.g1_scalar_mults == slots


# ---------------------------------------------------------------------------
# Variable-base MSM

@functools.cache
def _g1_base_pool():
    """The generator, an SRS power, the negated generator, the identity
    and a multiple of the generator with Z != 1 and its negation, so
    draws repeat bases and cancel terms."""
    g = G1Point.generator()
    five = g * 5
    return (g, shared_srs(MSM_SRS_DEGREE).g1_powers[1], -g,
            G1Point.identity(), five, -five)


# pinned: the empty input, a lone term, a term left alone once the zero
# scalars and identity bases are dropped, P + P and P + (-P), which meet
# the h == 0 branches of the mixed addition
@given(st.lists(st.tuples(st.integers(0, 5), scalars), max_size=8))
@example([])
@example([(0, 1)])
@example([(4, 0), (3, 9), (1, F.R), (5, -3 * F.R), (0, F.R + 2)])
@example([(0, 1), (0, 1)])
@example([(4, 7), (5, 7)])
@example([(0, 1), (2, 1), (1, 5)])
@settings(max_examples=40, deadline=None)
def test_g1_msm_matches_sum_of_ladders(terms):
    pool = _g1_base_pool()
    points = [pool[i] for i, _ in terms]
    ks = [k for _, k in terms]
    assert g1_msm(points, ks).to_bytes() == \
        oracles.g1_msm(points, ks).to_bytes()


# ---------------------------------------------------------------------------
# G2 MSM

@functools.cache
def _g2_base_pool():
    """The generator, an SRS power, the negated generator and the
    identity, so draws repeat bases and cancel terms."""
    g = G2Point.generator()
    return (g, shared_srs(MSM_SRS_DEGREE).g2_powers[1], -g,
            G2Point.identity())


# pinned: the empty input, a lone term, a term left alone once the zero
# scalars and identity bases are dropped, P + P and P + (-P)
@given(st.lists(st.tuples(st.integers(0, 3), scalars), max_size=6))
@example([])
@example([(1, F.R - 1)])
@example([(0, 5), (3, 9), (1, F.R), (2, 0)])
@example([(0, 1), (0, 1)])
@example([(0, 1), (2, 1)])
@example([(0, 3), (0, F.R - 3), (1, -1)])
@settings(max_examples=15, deadline=None)
def test_g2_msm_matches_sum_of_ladders(terms):
    pool = _g2_base_pool()
    points = [pool[i] for i, _ in terms]
    ks = [k for _, k in terms]
    got = g2_msm(points, ks)
    expected = oracles.g2_msm(points, ks)
    assert got == expected
    assert got.to_bytes() == expected.to_bytes()


# ---------------------------------------------------------------------------
# Single KZG verification

def test_verify_single_matches_oracle():
    rng = random.Random(106)
    srs = shared_srs(7)
    zs = [rng.randrange(SCALAR_MODULUS) for _ in range(3)]
    for trial in range(8):
        p = rand_poly(rng, 7)
        z = zs[trial % 3]  # repeated points are served from the memo
        value, proof = open_single(srs, p, z)
        cm = commit(srs, p)
        cases = [(cm, z, value, proof),
                 (cm, z, (value + rng.randrange(1, SCALAR_MODULUS))
                  % SCALAR_MODULUS, proof),
                 (cm, z, value - SCALAR_MODULUS, proof)]
        if trial == 0:
            cases += [(cm, (z + 1) % SCALAR_MODULUS, value, proof),
                      (G1Point.identity(), z, 0, G1Point.identity())]
        for case in cases:
            counters = OpCounters()
            verdict = verify_single(srs, *case, counters=counters)
            assert verdict == oracles.verify_single(srs, *case), trial
            assert counters.as_dict() == {"g1_mults": 1, "g2_mults": 1,
                                          "pairings": 2, "interpolations": 0}
        assert [verify_single(srs, *c) for c in cases[:3]] == \
            [True, False, True]


# ---------------------------------------------------------------------------
# Shared-point KZG verification

def test_verify_shared_matches_oracle():
    rng = random.Random(107)
    srs = shared_srs(7)
    for k, g in ((1, 1), (2, 4), (3, 2)):
        polys = [rand_poly(rng, 7) for _ in range(k)]
        md = EvaluationDomain(
            [rng.randrange(SCALAR_MODULUS) for _ in range(g)], offset=0)
        commitments = [commit(srs, p) for p in polys]
        values = [[p.evaluate(z) for z in md] for p in polys]
        gamma = rng.randrange(1, SCALAR_MODULUS)
        proof = open_shared(srs, polys, md, gamma)
        shifted = [row[:] for row in values]
        shifted[-1][-1] += 1
        cases = [(OpenedGroup(commitments, values, md), proof),
                 (OpenedGroup(commitments, shifted, md), proof),
                 (OpenedGroup(commitments, values, md),
                  proof + G1Point.generator()),
                 (OpenedGroup(commitments[::-1], values, md), proof)]
        for i, (group, pi) in enumerate(cases):
            counters = OpCounters()
            verdict = verify_shared(srs, group, pi, gamma, counters=counters)
            assert verdict == oracles.verify_shared(srs, group, pi, gamma)
            assert verdict == (i == 0 or (i == 3 and k == 1)), (k, g, i)
            assert counters.as_dict() == {
                "g1_mults": k + g + 1, "pairings": 2, "interpolations": 1,
                "g2_mults": 0 if i else g + 1}, (k, g, i)


# ---------------------------------------------------------------------------
# Rendezvous order

@given(st.integers(1, 64),
       st.lists(st.binary(max_size=40), min_size=1, max_size=6, unique=True),
       st.data())
@settings(max_examples=60, deadline=None)
def test_rendezvous_matches_sorted_oracle(n_peers, pool, data):
    # keys repeat, so later lookups are answered from the memo
    keys = data.draw(st.lists(st.sampled_from(pool), min_size=len(pool),
                              max_size=3 * len(pool)))
    rendezvous = Rendezvous(n_peers)
    for key in keys + pool:
        assert list(rendezvous.ranked(key)) == \
            oracles.ranked_peers(key, n_peers)
