"""The optimised verification primitives, the rendezvous order and the
recorded DHT placement against the straightforward implementations in
`oracles`."""

import functools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from helpers import (
    ORACLE_SECRET, g1_at, non_subgroup_point, oracle_group_witness,
    rand_fp12, rand_poly, rho_weights, shared_srs,
)
from pmpdas import fields as F
from pmpdas.curve import (
    CurveError, G1Point, G2Point, _affine_multiples, _fp2_batch_inverse,
    _g2_add_affine, _g2_affine_sums, _g2_normalize, _miller_loop,
    fixed_base_muls, g1_fixed_base_msms, g1_fixed_base_tables, g1_msm,
    g1_msms, g2_msm, multi_pairing,
)
from pmpdas.dasnet import (
    ConfigMode, ExperimentConfig, ExperimentSession, SimDht,
)
from pmpdas.field_poly import (
    SCALAR_MODULUS, EvaluationDomain, Polynomial, roots_of_unity_domain,
    vanishing_poly,
)
from pmpdas.grid import default_row_domain, partition_micro_domains
from pmpdas.kzg import (
    OpCounters, PairingTerms, commit, open_single,
    verify_batch_independent, verify_single,
)
from pmpdas.multiproof import (
    OpenedGroup, open_generic, open_groups, open_shared, verify_shared,
)

# G1 cofactor: #E(Fp) = H1 * r
H1 = 0x396C8C005555E1568C00AAAB0000AAAB


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
            return G1Point((x, y))


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
        raw = oracles.ladder(G1Point, oracles.jacobian(_rand_curve_point(rng)),
                             cofactor)
        if raw[2] == 0:
            continue
        while oracles.ladder(G1Point, raw, ell)[2] != 0:
            raw = oracles.ladder(G1Point, raw, ell)
        return oracles.from_jacobian(G1Point, raw)


# ---------------------------------------------------------------------------
# Pairing

def _fp12_from(coeffs):
    """The Fp12 element with the twelve coefficients, lowest first."""
    fp2 = [tuple(coeffs[i:i + 2]) for i in range(0, 12, 2)]
    return (tuple(fp2[:3]), tuple(fp2[3:]))


# coefficients at the edges of the lazy reduction next to random ones
fp_coeffs = st.one_of(st.sampled_from([0, 1, F.P - 1]),
                      st.integers(0, F.P - 1))
fp12_elements = st.lists(fp_coeffs, min_size=12, max_size=12).map(_fp12_from)
fp2_elements = st.tuples(fp_coeffs, fp_coeffs)


def _assert_kernels_match(a, b, line):
    assert F.fp12_mul(a, b) == oracles.fp12_mul(a, b)
    assert F.fp12_sqr(a) == oracles.fp12_sqr(a)
    assert F.fp12_mul_by_line(a, *line) == oracles.fp12_mul_by_line(a, line)
    if a != _fp12_from([0] * 12):
        assert F.fp12_inv(a) == oracles.fp12_inv(a)


def test_fp12_kernels_match_tower_oracle():
    rng = random.Random(110)
    edges = [_fp12_from([c] * 12) for c in (0, 1, F.P - 1)]
    edges += [F.FP12_ONE, _fp12_from([F.P - 1, 0] * 6)]
    for a in edges + [rand_fp12(rng) for _ in range(20)]:
        for b in edges[:3] + [rand_fp12(rng)]:
            line = tuple(b[0])
            _assert_kernels_match(a, b, line)
            _assert_kernels_match(a, b, (line[0], line[1], (F.P - 1,) * 2))


@given(fp12_elements, fp12_elements, st.tuples(*[fp2_elements] * 3))
@example(_fp12_from([F.P - 1] * 12), _fp12_from([F.P - 1] * 12),
         ((F.P - 1, F.P - 1),) * 3)
@example(_fp12_from([0] * 12), _fp12_from([1] * 12), ((1, 0),) * 3)
@settings(max_examples=60)
def test_fp12_kernels_match_tower_oracle_on_drawn_elements(a, b, line):
    _assert_kernels_match(a, b, line)


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
    affine = [(p.raw, q.raw) for p, q in pairs
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
        f = rand_fp12(rng)
        assert F.final_exponentiation(f) == oracles.final_exponentiation(f)


def test_cyclotomic_sqr_matches_fp12_sqr():
    rng = random.Random(103)
    for _ in range(20):
        f = _easy_part(rand_fp12(rng))
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
            mixed = oracles.point_add(member, t)
            for pt in (t, mixed):
                assert not oracles.g1_in_subgroup(pt)
                assert not pt.in_subgroup(), ell


# ---------------------------------------------------------------------------
# Ladder and point addition against the Jacobian + Jacobian oracle

def _ladder_points(group):
    """Subgroup points, the identity, and points outside the subgroup: on
    G1 torsion points of order 3 and 11 and their sums with a subgroup
    point, on G2 an on-curve point and its double."""
    g = group.generator()
    five = oracles.point_mul(g, 5)
    points = [g, -g, five, -five, group.identity()]
    if group is G1Point:
        rng = random.Random(121)
        for ell in (3, 11):
            t = _torsion_point(rng, ell)
            points += [t, oracles.point_add(five, t)]
    else:
        q = non_subgroup_point(G2Point)
        points += [q, oracles.point_mul(q, 2)]
    return points


def _assert_same_point(got, expected):
    assert got == expected
    assert got.to_bytes() == expected.to_bytes()


@pytest.mark.parametrize("group", [G1Point, G2Point], ids=["g1", "g2"])
def test_ladder_and_addition_match_the_oracle(group):
    points = _ladder_points(group)
    members, outsiders = points[:5], points[5:]
    # Jacobian tuples with Z != 1 and infinity, normalised together
    raws = [oracles.ladder(group, oracles.jacobian(pt), 5) for pt in points]
    assert raws[2][2] != group._ONE and raws[4] == group._INF
    assert group._from_jacobian(raws) == \
        [oracles.point_mul(pt, 5) for pt in points]
    assert not any(pt.in_subgroup() for pt in outsiders)
    scalars = (0, 1, 2, 3, F.BLS_X * F.BLS_X, F.R - 1, F.R, F.R + 1,
               random.Random(122).getrandbits(255) | 1 << 254)
    for pt in points:
        for k in scalars:
            # unreduced, as the subgroup checks walk it
            got = group._from_jacobian([group._ladder(pt.raw, k)])[0]
            _assert_same_point(got, oracles.point_mul(pt, k))
            if pt in members:
                _assert_same_point(pt * k, oracles.point_mul(pt, k % F.R))
    identity = group.identity()
    for p in points:
        # every ordered pair: P + P, P + O, O + P and O + O among them
        for q in points:
            _assert_same_point(p + q, oracles.point_add(p, q))
            _assert_same_point(p - q, oracles.point_add(p, -q))
        for got in (p + -p, p - p):
            _assert_same_point(got, oracles.point_add(p, -p))
            assert got.is_identity()
        assert (p + identity).raw == p.raw
        _assert_same_point(identity + p, p)


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
        rho = rng.randrange(SCALAR_MODULUS)
        expected = oracles.verify_batch_independent(srs, case, rho)
        weights = rho_weights(len(case), rho)
        assert verify_batch_independent(srs, case, weights) == expected, i
        assert expected == (i < 2), i


# ---------------------------------------------------------------------------
# Fixed-base MSM

MSM_SRS_DEGREE = 31  # 32 powers, the publish SRS
X2 = F.BLS_X * F.BLS_X

# The edges of the split k = t + q*x^2 that the fixed-base walk makes
# (t = 0 leaves q alone, t = x^2 - 1 is the longest t, the last multiple
# of x^2 below r the longest q), scalars that reduce mod r into them, and
# negative ones.
SPLIT_EDGES = (0, 1, X2 - 1, X2, X2 + 1, 2 * X2, 7 * X2 + 5,
               (F.R // X2) * X2, F.R - 1, F.R, F.R + X2, 3 * F.R + 1, -1,
               -X2, -(F.R + 5))

# Reduction edge cases, and scalars whose every window is all ones, which
# recode to a negative digit and carry into the window above the top one.
special_scalars = st.one_of(
    st.sampled_from([0, 1, 2, F.R - 1, F.R, F.R + 1, 5 * F.R + 3, -1, -F.R,
                     -(F.R + 2), 1 << 254, *SPLIT_EDGES]),
    st.integers(1, 256).map(lambda bits: (1 << bits) - 1),
    st.integers(1, 256).map(lambda bits: F.R - (1 << bits) + 1),
)
scalars = st.one_of(special_scalars, st.integers(-2 * F.R, 3 * F.R))


def _assert_fixed_msms_match(points, tables, rows):
    got = g1_fixed_base_msms(tables, rows)
    assert len(got) == len(rows)
    for row, pt in zip(rows, got):
        expected = oracles.g1_msm(points, row)
        assert pt == expected
        assert pt.to_bytes() == expected.to_bytes()
        assert pt.to_bytes() == g1_msm(points, row).to_bytes()


def _assert_msm_matches(points, tables, ks):
    _assert_fixed_msms_match(points, tables, [ks])


@given(st.lists(scalars, min_size=1, max_size=MSM_SRS_DEGREE + 1))
@settings(max_examples=25)
def test_fixed_base_msm_over_srs_prefixes(ks):
    srs = shared_srs(MSM_SRS_DEGREE)
    n = len(ks)
    _assert_msm_matches(srs.g1_powers[:n], srs.g1_tables(n), ks)


@functools.cache
def _base_pool():
    """(point, table) for two SRS powers, the negated generator and the
    identity, so draws repeat bases and cancel terms."""
    g = G1Point.generator()
    points = (g, shared_srs(MSM_SRS_DEGREE).g1_powers[1], -g,
              G1Point.identity())
    return tuple(zip(points, g1_fixed_base_tables(points)))


@given(st.lists(st.tuples(st.integers(0, 3), scalars),
                min_size=1, max_size=8))
@settings(max_examples=25)
def test_fixed_base_msm_with_repeated_and_identity_bases(terms):
    pool = _base_pool()
    points = [pool[i][0] for i, _ in terms]
    tables = [pool[i][1] for i, _ in terms]
    _assert_msm_matches(points, tables, [k for _, k in terms])


def test_fixed_base_msm_edge_cases():
    g = G1Point.generator()
    (_, tg), _, (_, tneg), (_, tinf) = _base_pool()
    assert tinf == ()
    (five,) = g1_fixed_base_tables([g * 5])
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
        ([g, g], [tg, tg], [1, X2]),  # P and -phi(P) in one window sum
        ([g, -g], [tg, tneg], [X2, X2]),  # phi(P) + phi(-P)
    ]
    for points, tables, ks in cases:
        _assert_msm_matches(points, tables, ks)
    assert g1_fixed_base_msms([tg, tg], [[1, 1]]) == [g * 2]
    assert g1_fixed_base_msms([tg, tneg], [[1, 1]])[0].is_identity()
    assert g1_fixed_base_msms([tg], [[X2]]) == [g * X2]


def test_fixed_base_msms_split_edges():
    # each edge alone on every pool base, then all of them as rows of one
    # walk over the SRS powers
    pool = _base_pool()
    for k in SPLIT_EDGES:
        for pt, tbl in pool:
            _assert_msm_matches([pt], [tbl], [k])
    srs = shared_srs(MSM_SRS_DEGREE)
    n = len(SPLIT_EDGES)
    rows = [list(SPLIT_EDGES), list(reversed(SPLIT_EDGES)),
            [X2] * n, [-1] * n]
    _assert_fixed_msms_match(srs.g1_powers[:n], srs.g1_tables(n), rows)


# pinned: no row; an empty row; a lone row; rows shorter and longer than
# the tables; P + (-P) and phi(P) + phi(-P) on every row; the identity's
# empty table with nonzero scalars; a base repeated with the split edges
@given(st.lists(st.integers(0, 3), max_size=6).flatmap(
    lambda idx: st.tuples(st.just(idx), st.lists(
        st.lists(scalars, max_size=len(idx) + 1), max_size=4))))
@example(([0, 1], []))
@example(([0, 1], [[]]))
@example(([1], [[X2 + 1]]))
@example(([0, 1, 2], [[5], [1, 2, 3, 4], [], [0, X2]]))
@example(([0, 2], [[1, 1], [X2, X2], [F.R - 1, F.R - 1]]))
@example(([3, 0], [[7, 1], [0, X2]]))
@example(([0, 0, 1], [[X2 - 1, X2 + 1, F.R - 1], [X2], [-1, -X2, 5 * F.R]]))
@settings(max_examples=30)
def test_fixed_base_msms_match_one_oracle_msm_per_row(case):
    pool = _base_pool()
    idx, rows = case
    _assert_fixed_msms_match([pool[i][0] for i in idx],
                             [pool[i][1] for i in idx], rows)


@given(st.lists(st.integers(0, F.R - 1), max_size=MSM_SRS_DEGREE + 1))
@settings(max_examples=20)
def test_commit_matches_variable_base_msm(coeffs):
    srs = shared_srs(MSM_SRS_DEGREE)
    p = Polynomial(coeffs)
    counters = OpCounters()
    cm = commit(srs, p, counters=counters)
    expected = g1_msm(srs.g1_powers[:len(coeffs)], coeffs)
    assert cm == expected
    assert cm.to_bytes() == expected.to_bytes()
    assert counters.g1_scalar_mults == len(p.coeffs)


def _assert_openings_match(srs, p, zs):
    # opens p at many points in one call, as the per-cell arms do: p alone
    # on each point's one-point micro-domain {z}, gamma 1
    proofs = open_groups(srs, [([p], EvaluationDomain((z,)), 1)
                               for z in zs])
    assert len(proofs) == len(zs)
    single_counters = OpCounters()
    for z, proof in zip(zs, proofs):
        value, single_proof = open_single(srs, p, z, single_counters)
        assert value == p.evaluate(z)
        assert single_proof == proof
        # the witness is [q(secret)] for q = (p - value) / (X - z)
        num = (p.evaluate(ORACLE_SECRET) - value) % F.R
        den = pow(ORACLE_SECRET - z, -1, F.R)
        assert proof.to_bytes() == g1_at(num * den).to_bytes()
    # q has deg p coefficients, one G1 slot each
    assert single_counters == OpCounters(
        g1_scalar_mults=len(zs) * max(p.degree, 0))


# pinned: no point; one point; the same point twice; a constant and the
# zero polynomial, whose quotients are zero
@given(st.integers(-1, 7), st.integers(0, 2 ** 32),
       st.lists(st.one_of(st.sampled_from([0, 1, F.R - 1, X2, F.R + 3]),
                          st.integers(0, F.R - 1)), max_size=5))
@example(3, 1, [])
@example(3, 2, [7])
@example(7, 3, [X2, X2])
@example(0, 5, [2, 3])
@example(-1, 6, [2, 3])
@settings(max_examples=25)
def test_open_many_matches_open_single_and_the_oracle(degree, seed, zs):
    _assert_openings_match(shared_srs(7), rand_poly(random.Random(seed),
                                                    degree), zs)


def test_open_many_at_a_root():
    p = rand_poly(random.Random(7), 6) * Polynomial((-9 % F.R, 1))
    _assert_openings_match(shared_srs(7), p, [9, 4, 9])
    assert open_single(shared_srs(7), p, 9)[0] == 0


# the micro-domains of each group size: blocks of the bit-reversed roots
# of unity (cosets), of the roots in natural order and of 6 consecutive
# integers (neither)
GROUP_DOMAINS = {
    "coset": (default_row_domain(8), (1, 2, 4)),
    "natural": (roots_of_unity_domain(8), (2, 4)),
    "width6": (default_row_domain(6), (1, 2, 3)),
}


# pinned: a short last band, quotients of degree below g (their proofs are
# the identity) and the zero polynomial
@given(st.sampled_from(sorted(GROUP_DOMAINS)), st.integers(0, 2),
       st.integers(1, 3), st.integers(1, 4), st.integers(-1, 7),
       st.integers(0, 2 ** 32))
@example("coset", 2, 2, 3, 7, 1)
@example("width6", 1, 3, 2, 2, 2)
@example("natural", 1, 3, 3, 7, 3)
@example("coset", 1, 1, 1, -1, 4)
@settings(max_examples=20)
def test_open_groups_matches_open_generic_and_the_oracle(
        layout, size, k, rows, degree, seed):
    # a band's groups opened in one walk: each proof is the generic
    # prover's and the known-secret witness, and the counters are those of
    # one open_shared call per group
    srs = shared_srs(7)
    domain, sizes = GROUP_DOMAINS[layout]
    g = sizes[min(size, len(sizes) - 1)]
    rng = random.Random(seed)
    polys = [rand_poly(rng, degree) for _ in range(rows)]
    for start in range(0, rows, k):
        band = polys[start:start + k]
        groups = [(band, md, rng.randrange(1, F.R))
                  for md in partition_micro_domains(domain, g)]
        counters, shared = OpCounters(), OpCounters()
        proofs = open_groups(srs, groups, counters)
        assert len(proofs) == len(groups)
        for (band, md, gamma), proof in zip(groups, proofs):
            assert proof == open_shared(srs, band, md, gamma, shared)
            values = [[p.evaluate(z) for z in md] for p in band]
            assert proof == open_generic(srs, band, [md.points] * len(band),
                                         values, gamma)
            assert proof.to_bytes() == \
                oracle_group_witness(band, md.points, gamma).to_bytes()
            if degree < g:
                assert proof.is_identity()
        assert counters == shared


# ---------------------------------------------------------------------------
# Variable-base MSM

@functools.cache
def _g1_base_pool():
    """The generator, an SRS power, the negated generator, the identity
    and a multiple of the generator and its negation, so draws repeat
    bases and cancel terms."""
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
@settings(max_examples=40)
def test_g1_msm_matches_sum_of_ladders(terms):
    pool = _g1_base_pool()
    points = [pool[i] for i, _ in terms]
    ks = [k for _, k in terms]
    assert g1_msm(points, ks).to_bytes() == \
        oracles.g1_msm(points, ks).to_bytes()


# ---------------------------------------------------------------------------
# Window sums and level-built tables against the Jacobian-accumulator walk

# a scalar with a nonzero digit in most 4- and 8-bit windows
_K = F.R // 3


# pinned: a lone term and a short scalar next to a full one, so that
# windows hold a single entry; the same point with the same scalar twice
# and three times, so that a window sum meets its own entry (a doubling);
# P and -P with equal scalars, for two points P, so that every
# window sum cancels
@given(st.lists(st.tuples(st.integers(0, 5), scalars), max_size=8))
@example([(0, _K)])
@example([(1, F.R - 1), (0, 5)])
@example([(0, _K), (0, _K)])
@example([(4, _K), (4, _K), (4, _K)])
@example([(0, _K), (2, _K)])
@example([(4, _K), (5, _K), (1, _K)])
@settings(max_examples=30)
def test_g1_msm_matches_jacobian_walk(terms):
    pool = _g1_base_pool()
    points = [pool[i] for i, _ in terms]
    ks = [k for _, k in terms]
    got = g1_msm(points, ks)
    expected = oracles.g1_window_msm(points, ks)
    assert got == expected
    assert got.to_bytes() == expected.to_bytes()


def _assert_msms_match(points, rows):
    got = g1_msms(points, rows)
    assert len(got) == len(rows)
    for row, pt in zip(rows, got):
        expected = oracles.g1_msm(points, row)
        assert pt == expected
        assert pt.to_bytes() == expected.to_bytes()
        assert pt.to_bytes() == g1_msm(points, row).to_bytes()


# pinned: no row; an all-zero row next to a full one; one point on two
# rows with a scalar that is 0 mod r on one of them only; the identity
# point with nonzero scalars; rows that cancel a shared point on one row
# only; a one-point row
@given(st.lists(st.integers(0, 5), max_size=6).flatmap(
    lambda idx: st.tuples(st.just(idx), st.lists(
        st.lists(scalars, min_size=len(idx), max_size=len(idx)),
        max_size=4))))
@example(([0, 1], []))
@example(([0, 1], [[0, 0], [5, _K]]))
@example(([4], [[F.R], [_K], [2 * F.R]]))
@example(([3, 0], [[7, 1], [9, 0]]))
@example(([4, 5, 0], [[7, 7, 1], [7, F.R - 7, 2]]))
@example(([1], [[_K]]))
@settings(max_examples=30)
def test_g1_msms_match_one_oracle_msm_per_row(case):
    pool = _g1_base_pool()
    idx, rows = case
    _assert_msms_match([pool[i] for i in idx], rows)


def test_g1_msms_rows_pair_with_points_as_zip_does():
    g, srs_pt, *_ = _g1_base_pool()
    points = [g, srs_pt, g * 5]
    rows = [[3], [1, 2, 3, 4], [], [0, _K]]
    _assert_msms_match(points, rows)
    assert g1_msms(points, rows)[2].is_identity()
    assert g1_msms([], [[1, 2]])[0].is_identity()
    assert g1_msms(points, []) == []


@given(st.lists(st.tuples(st.integers(0, 3), scalars), max_size=8))
@example([(1, _K)])
@example([(0, _K), (0, _K)])
@example([(0, _K), (2, _K)])
@settings(max_examples=20)
def test_fixed_base_msm_matches_jacobian_walk(terms):
    pool = _base_pool()
    tables = [pool[i][1] for i, _ in terms]
    # the phi half built as the multiples of -x^2 * P, not from the table
    sequential = [(oracles.g1_multiples(pool[i][0], 128),
                   oracles.g1_multiples(pool[i][0] * -X2, 128))
                  if pool[i][1] else () for i, _ in terms]
    ks = [k for _, k in terms]
    got = g1_fixed_base_msms(tables, [ks])[0]
    assert got == oracles.g1_window_fixed_base_msm(tables, ks)
    assert got.to_bytes() == \
        oracles.g1_window_fixed_base_msm(sequential, ks).to_bytes()


def test_level_built_tables_match_sequential_multiples():
    g = G1Point.generator()
    # the generator, an SRS power and multiples, negated ones among them
    points = [g, shared_srs(MSM_SRS_DEGREE).g1_powers[1], -g, g * 5,
              -(g * 5)]
    for m in (8, 128):
        assert _affine_multiples(G1Point, [pt.raw for pt in points], m) == \
            [oracles.g1_multiples(pt, m) for pt in points]
    # every m up to 17, so that some last levels stop short of a doubling
    seventeen = oracles.g1_multiples(points[3], 17)
    for m in range(1, 18):
        assert _affine_multiples(G1Point, [points[3].raw, points[0].raw],
                                 m) == \
            [seventeen[:m], oracles.g1_multiples(g, 17)[:m]]
    # one call builds every table, the identity's empty
    assert g1_fixed_base_tables(points + [G1Point.identity()]) == tuple(
        (oracles.g1_multiples(pt, 128), oracles.g1_multiples(pt * -X2, 128))
        for pt in points) + ((),)
    # G2 from one shared walk, against sums of the points themselves
    q = G2Point.generator()
    g2_points = [q, shared_srs(MSM_SRS_DEGREE).g2_powers[1], -(q * 5)]
    for m in (1, 2, 3, 5, 8):
        assert _affine_multiples(G2Point, [pt.raw for pt in g2_points],
                                 m) == \
            [tuple((pt * j).raw for j in range(1, m + 1))
             for pt in g2_points]


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
@settings(max_examples=15)
def test_g2_msm_matches_sum_of_ladders(terms):
    pool = _g2_base_pool()
    points = [pool[i] for i, _ in terms]
    ks = [k for _, k in terms]
    got = g2_msm(points, ks)
    expected = oracles.g2_msm(points, ks)
    assert got == expected
    assert got.to_bytes() == expected.to_bytes()


def test_fp2_batch_inverse_matches_fp2_inv():
    rng = random.Random(120)
    drawn = [(rng.randrange(F.P), rng.randrange(F.P)) for _ in range(6)]
    # a zero imaginary part, a zero real part, one, -1 and u, repeats
    values = [(7, 0), (0, 7), F.FP2_ONE, (F.P - 1, 0), (0, 1), *drawn,
              drawn[0], (0, 7)]
    assert _fp2_batch_inverse(values) == [F.fp2_inv(v) for v in values]
    assert _fp2_batch_inverse(values[:1]) == [F.fp2_inv(values[0])]
    assert _fp2_batch_inverse([]) == []
    for zeros in ([F.FP2_ZERO], [drawn[1], F.FP2_ZERO, drawn[2]]):
        with pytest.raises(CurveError):
            _fp2_batch_inverse(zeros)


def _g2_ladders(pairs):
    """The Jacobian oracle ladder of each (point, k) pair, k * point."""
    return [oracles.ladder(G2Point, oracles.jacobian(pt), k)
            for pt, k in pairs]


def test_g2_affine_sums_match_point_addition():
    q = G2Point.generator()
    # Jacobian tuples with Z = 1 and with Z != 1, normalised together
    raws = _g2_ladders([(q, 1), (shared_srs(MSM_SRS_DEGREE).g2_powers[1], 1),
                        (q, 5), (-q, 5), (q, 2), (-q, 1)])
    points = [oracles.from_jacobian(G2Point, raw) for raw in raws]
    assert all(raw[2] != F.FP2_ONE for raw in raws[2:5])
    affine = _g2_normalize(raws)
    assert affine == [pt.raw for pt in points]
    # every ordered pair but P + (-P), so P + P (the tangent) among them
    pairs = [(a, b) for a in range(len(points)) for b in range(len(points))
             if points[a] != -points[b]]
    assert (0, 0) in pairs and (2, 2) in pairs
    got = _g2_affine_sums([(affine[a], affine[b]) for a, b in pairs])
    assert got == [oracles.point_add(points[a], points[b]).raw
                   for a, b in pairs]
    assert _g2_affine_sums([]) == []


def test_g2_mixed_addition_matches_point_addition():
    q = G2Point.generator()
    # Jacobian left sides with Z = 1, with Z != 1, and the identity
    raws = _g2_ladders([(q, 1), (q, 5), (-q, 5), (q, 7), (q, 0)])
    assert all(raw[2] != F.FP2_ONE for raw in raws[1:4])
    # a generic right side, the left side itself (a doubling) and its
    # negation (the identity)
    for raw in raws:
        left = oracles.from_jacobian(G2Point, raw)
        for right in (q * 3, left, -left):
            if right.is_identity():
                continue
            got = G2Point._from_jacobian([_g2_add_affine(raw, right.raw)])[0]
            expected = oracles.point_add(left, right)
            assert got == expected
            assert got.to_bytes() == expected.to_bytes()


# ---------------------------------------------------------------------------
# Sign fold: the variable-base MSM walks a scalar k > r/2 as the negated
# digits of r - k

_HALF = (F.R - 1) // 2  # the largest scalar that is not folded


# pinned: r - 1, (r - 1)/2, (r + 1)/2, 0 and 1 on one row only; rows that
# mix folded and unfolded scalars on one point and across points; a point
# whose folded and unfolded terms cancel on one row (twice the same point,
# and a point next to its negation)
@pytest.mark.parametrize("idx, rows", [
    ([0, 1, 4, 5, 2], [[F.R - 1, _HALF, _HALF + 1, 0, 1], [3, 0, 0, 5, 0]]),
    ([0, 1, 4], [[F.R - 1, 7, _HALF + 1], [_HALF, F.R - 7, 1]]),
    ([1, 5], [[_HALF + 1, _HALF], [F.R - _K, _K], [1, F.R - 1]]),
    ([4, 4, 0], [[_K, F.R - _K, 3], [_K, _K, F.R - 3]]),
    ([4, 5, 1], [[F.R - _K, _K, 0], [_HALF + 1, _HALF, 2]]),
])
def test_g1_msms_fold_matches_oracle(idx, rows):
    pool = _g1_base_pool()
    _assert_msms_match([pool[i] for i in idx], rows)


def test_msm_fold_cancels_on_one_row_only():
    g = _g1_base_pool()[0]
    got = g1_msms([g, g, -g], [[_K, F.R - _K, 0], [_K, _K, F.R - 1]])
    assert got[0].is_identity()
    assert got[1] == oracles.g1_msm([g], [2 * _K + 1])
    q = _g2_base_pool()[1]
    assert g2_msm([q, q], [_K, F.R - _K]).is_identity()


@pytest.mark.parametrize("terms", [
    [(0, F.R - 1)], [(1, _HALF)], [(1, _HALF + 1)], [(0, 0), (1, 1)],
    [(0, F.R - 1), (1, _HALF), (2, _HALF + 1), (0, 0), (1, 1)],
    [(0, _HALF + 1), (2, _HALF + 1), (1, 3)],
])
def test_g2_msm_fold_matches_oracle(terms):
    pool = _g2_base_pool()
    points = [pool[i] for i, _ in terms]
    ks = [k for _, k in terms]
    got = g2_msm(points, ks)
    expected = oracles.g2_msm(points, ks)
    assert got == expected
    assert got.to_bytes() == expected.to_bytes()


# ---------------------------------------------------------------------------
# Fixed-base comb

# the generators and a negated multiple of each
_COMB_BASES = {
    "g1": G1Point.generator(),
    "g1_z": -(G1Point.generator() * 5),
    "g2": G2Point.generator(),
    "g2_z": -(G2Point.generator() * 5),
}


def _comb_example(k):
    """16^k - 1, whose k low windows each recode to -1 and carry into
    window k; 16^k, a lone digit 1 in window k; and 8 * 16^k, a lone
    digit equal to half = 8, which does not carry (at k = 63 it exceeds r
    and is reduced first)."""
    return [16 ** k - 1, 16 ** k, 8 * 16 ** k]


# pinned: no scalar, a zero, the digit edge around half = 8, a negative
# scalar, the reduction edge, power-of-16 edges from the lowest window to
# the top one, and repeated scalars, equal as given and equal mod r
@pytest.mark.parametrize("base", _COMB_BASES)
@given(ks=st.lists(scalars, max_size=40))
@example(ks=[])
@example(ks=[0])
@example(ks=[1, 7, 8, 9])
@example(ks=[-1])
@example(ks=[F.R - 1, F.R, F.R + 1])
@example(ks=_comb_example(1))
@example(ks=_comb_example(2))
@example(ks=_comb_example(31))
@example(ks=_comb_example(63))
@example(ks=[_K, 5, _K, F.R + 5, 5])
@settings(max_examples=8)
def test_fixed_base_muls_match_ladders(base, ks):
    point = _COMB_BASES[base]
    got = fixed_base_muls(point, ks)
    assert [type(pt) for pt in got] == [type(point)] * len(ks)
    assert [pt.to_bytes() for pt in got] == \
        [(point * k).to_bytes() for k in ks]


def test_fixed_base_muls_of_the_identity_are_identities():
    ks = [0, 1, 8, F.R - 1, _K]
    for group in (G1Point, G2Point):
        got = fixed_base_muls(group.identity(), ks)
        assert [type(pt) for pt in got] == [group] * len(ks)
        assert all(pt.is_identity() for pt in got)
        assert fixed_base_muls(group.identity(), []) == []


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


@pytest.mark.parametrize("g", [1, 2, 4, 8])
@pytest.mark.parametrize("k", [1, 3])
def test_coset_micro_domain_check_matches_the_general_equation(k, g):
    # a block of the bit-reversed roots of unity is a coset: its check
    # lands on g2 and [x^g]_2, and must agree with e(C - R, g2) ==
    # e(proof, [Z_md(x)]_2) on honest and on damaged groups
    rng = random.Random(109 + 10 * k + g)
    srs = shared_srs(8)
    mds = partition_micro_domains(default_row_domain(16), g)
    md = mds[rng.randrange(len(mds))]
    assert srs.vanishing_base(md)[0] is srs.g2_powers[g]
    polys = [rand_poly(rng, 8) for _ in range(k)]
    commitments = [commit(srs, p) for p in polys]
    values = [[p.evaluate(z) for z in md] for p in polys]
    gamma = rng.randrange(1, SCALAR_MODULUS)
    proof = open_shared(srs, polys, md, gamma)
    shifted = [row[:] for row in values]
    shifted[rng.randrange(k)][rng.randrange(g)] += 1
    moved = commitments[:]
    moved[rng.randrange(k)] += G1Point.generator()
    cases = [(OpenedGroup(commitments, values, md), proof, True),
             (OpenedGroup(commitments, shifted, md), proof, False),
             (OpenedGroup(commitments, values, md),
              proof + G1Point.generator(), False),
             (OpenedGroup(moved, values, md), proof, False)]
    for group, pi, honest in cases:
        verdict = verify_shared(srs, group, pi, gamma)
        assert verdict == oracles.verify_shared(srs, group, pi, gamma)
        assert verdict == honest


# ---------------------------------------------------------------------------
# Pairing terms

@functools.cache
def _terms_pool():
    """(SRS, G1 points, G2 bases) of a round check, each point and base
    with its discrete log: the first SRS powers, the generator as a second
    object equal to the first power, two row commitments and their opening
    proofs; the bases g2, [x]_2 and one [Z_md]_2."""
    srs = shared_srs(7)
    s = ORACLE_SECRET
    rng = random.Random(108)
    points = [(srs.g1_powers[j], pow(s, j, F.R)) for j in range(3)]
    points.append((G1Point.generator(), 1))
    for _ in range(2):
        p = rand_poly(rng, 7)
        z = rng.randrange(F.R)
        value, proof = open_single(srs, p, z)
        points.append((commit(srs, p), p.evaluate(s)))
        points.append((proof, (p.evaluate(s) - value) * pow(s - z, -1, F.R)))
    md = [rng.randrange(F.R) for _ in range(2)]
    bases = [(G2Point.generator(), 1), (srs.g2_powers[1], s),
             (srs.cached_z_commitment(md), vanishing_poly(md).evaluate(s))]
    return srs, points, bases


# an equation is a merge weight and its adds, each a base index and
# (point index, scalar) terms
_equations = st.lists(
    st.tuples(scalars, st.lists(
        st.tuples(st.integers(0, 2),
                  st.lists(st.tuples(st.integers(0, 7), scalars),
                           max_size=3)),
        min_size=1, max_size=3)),
    min_size=1, max_size=3)


# pinned: one SRS power through several merged terms, with and without a
# balancing term; a point whose scalars cancel to zero, alone and next to
# other terms; the first power and the generator, equal points held as two
# objects, meeting as P + P and as P + (-P)
@given(_equations, st.booleans())
@example([(1, [(0, [(0, 5)])]), (3, [(0, [(0, 7), (1, 2)])]),
          (F.R - 1, [(0, [(0, 1)]), (1, [(0, 4)])])], True)
@example([(1, [(0, [(0, 5), (1, 1)])]), (2, [(0, [(0, 9)])])], False)
@example([(1, [(0, [(4, 3)])]), (1, [(0, [(4, -3)])])], False)
@example([(2, [(1, [(4, 5), (5, 1)])]), (1, [(1, [(4, -10)])])], True)
@example([(1, [(0, [(0, 1), (3, 1)])])], False)
@example([(1, [(0, [(0, _K), (3, -_K)])])], False)
@settings(max_examples=15)
def test_pairing_terms_check_matches_multi_pairing(equations, balance):
    srs, points, bases = _terms_pool()
    terms = PairingTerms(srs)
    # base index -> the (point, scalar) terms of its G1 side
    sides = {}
    log = 0
    for weight, adds in equations:
        equation = PairingTerms(srs)
        for b, pairs in adds:
            equation.add(bases[b][0], [(points[i][0], k) for i, k in pairs],
                         weight)
            for i, k in pairs:
                sides.setdefault(b, []).append((points[i][0], weight * k))
                log += bases[b][1] * points[i][1] * weight * k
        terms.merge(equation)
    if balance:
        # a term on g2 and the first SRS power that makes the equation hold
        terms.add(bases[0][0], [(points[0][0], -log)])
        sides.setdefault(0, []).append((points[0][0], -log))
        log = 0
    expected = oracles.multi_pairing(
        [(oracles.g1_msm(*zip(*side)), bases[b][0])
         for b, side in sides.items() if side]) == F.FP12_ONE
    assert expected == (log % F.R == 0)
    assert terms.check() == expected


# ---------------------------------------------------------------------------
# Rendezvous order

@given(st.integers(1, 64),
       st.lists(st.binary(max_size=40), min_size=1, max_size=6, unique=True))
@settings(max_examples=60)
def test_rendezvous_matches_sorted_oracle(n_peers, keys):
    # a replication factor of the peer count records each key's whole
    # order, at up to 64 peers where the placement tests below use 8
    dht = SimDht(n_peers, n_peers)
    for key in keys:
        assert dht.put(key, key) == n_peers
        assert dht.replicas[key] == tuple(oracles.ranked_peers(key, n_peers))


# ---------------------------------------------------------------------------
# Recorded replica placement

def _check_placement(dht, keys):
    """Each key's recorded replicas, get and get_with_retries against the
    scan of every peer's store."""
    for key in keys:
        scanned = oracles.replica_peers(dht, key)
        assert dht.replicas.get(key, ()) == tuple(scanned)
        assert dht.get(key) == \
            oracles.get_with_retries(dht, key, dht.n_peers)[0]
        for budget in range(4):
            assert dht.get_with_retries(key, budget) == \
                oracles.get_with_retries(dht, key, budget)


@given(st.integers(1, 8), st.integers(1, 10), st.sampled_from([None, 1, 3]),
       st.lists(st.binary(max_size=6), min_size=1, max_size=8, unique=True),
       st.data())
@settings(max_examples=80)
def test_recorded_placement_matches_store_scan(n_peers, replication,
                                               capacity, pool, data):
    # keys repeat in random order, so some puts re-put a stored key
    puts = data.draw(st.lists(st.sampled_from(pool), min_size=len(pool),
                              max_size=3 * len(pool)))
    dht = SimDht(n_peers, replication, capacity)
    for i, key in enumerate(puts):
        assert dht.put(key, b"%d" % i) == len(oracles.replica_peers(dht, key))
    dht.alive = data.draw(st.lists(st.booleans(), min_size=n_peers,
                                   max_size=n_peers))
    _check_placement(dht, set(puts) | {b"never put"})


def test_recorded_placement_of_full_peers_and_re_puts():
    # two one-slot peers and three keys: the third finds every peer full
    # and falls back onto its top-ranked peer
    keys = [b"k0", b"k1", b"k2"]
    dht = SimDht(2, 1, peer_capacity=1)
    for key in keys:
        dht.put(key, key)
    assert sorted(map(len, dht.stores)) == [1, 2]
    placed = dict(dht.replicas)
    for key in reversed(keys):
        assert dht.put(key, key + b"'") == 1
    assert dht.replicas == placed
    for alive in ([True, True], [False, True], [True, False]):
        dht.alive = alive
        _check_placement(dht, keys)
    # a replication factor of at least the peer count fills every peer
    for replication in (3, 5):
        dht = SimDht(3, replication)
        assert dht.put(b"k", b"v") == 3
        assert dht.replicas[b"k"] == tuple(oracles.ranked_peers(b"k", 3))
        _check_placement(dht, [b"k"])


def test_session_rows_match_runs_made_afresh():
    # the session draws each seed's churn order and sampling plan once and
    # locates each coordinate once; in any run order its rows are those of
    # runs that share nothing. 0.14 of 50 peers kills 7 (the decimal
    # ceiling), where the float product would kill 8
    cfg = ExperimentConfig(rows=2, cols=4, peers=50, replication=3,
                           peer_capacity=3, samples=8,
                           seeds=tuple(range(1, 7)), churn=(0.0, 0.14, 0.3))
    assert SimDht(cfg.peers).kill_fraction(0.14, 1) == 7
    runs = [(mode, churn, seed) for mode in ConfigMode
            for churn in cfg.churn for seed in cfg.seeds]
    random.Random(29).shuffle(runs)
    session = ExperimentSession(cfg)
    rows = [session.run(*run) for run in runs]
    assert rows == [oracles.session_run(session, *run) for run in runs]
    assert any(row["fetch_failures"] for row in rows)
