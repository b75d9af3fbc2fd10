"""Acceptance gate: ten checks, one pass/fail line each under `pytest -v`.

Each test states its tolerance inline; runtime-budgeted checks assert their
own elapsed time.
"""

import itertools
import random
import statistics
import time

from helpers import oracle_witness, rand_poly, rand_scalar, shared_srs
from pmpdas.curve import G1Point
from pmpdas.dasnet import (
    ConfigMode, ExperimentConfig, ExperimentSession, effective_samples,
    make_sampling_plan, required_samples,
)
from pmpdas.field_poly import SCALAR_MODULUS, EvaluationDomain
from pmpdas.grid import (
    GridDims, build_grid, build_opened_group, partition_micro_domains,
)
from pmpdas.kzg import OpCounters, commit, gen, open_single, verify_single
from pmpdas.multiproof import (
    OpenedGroup, Transcript, derive_gamma, open_generic, open_shared,
    verify_shared,
)
from pmpdas.wire import BaselineCell, GCellBlock, MCell, storage_report


def test_criterion_01_storage_arithmetic_exact():
    """storage_report(64, 4) and (64, 1) reproduce the reference numbers
    exactly; zero tolerance; runtime < 1 s."""
    start = time.monotonic()
    report = storage_report(64, 4)
    assert report.baseline_total_bytes == 5120
    assert report.grouped_object_bytes == 176
    assert report.amortized_display() == 44
    assert report.grouped_total_bytes == 2816
    assert report.grouped_object_count == 16
    assert storage_report(64, 1).grouped_total_bytes == 5120
    assert time.monotonic() - start < 1.0


def _random_micro_domain(rng, g):
    points = set()
    while len(points) < g:
        points.add(rand_scalar(rng))
    return EvaluationDomain(sorted(points), offset=0)


def test_criterion_02_multiproof_correctness_100_instances():
    """>= 100 random instances over k in {1,2,4,8}, g in {1,4,8,16},
    d <= 64: open_shared passes verify_shared and matches both the generic
    prover and the known-secret oracle. Runtime < 60 s."""
    start = time.monotonic()
    rng = random.Random(90)
    srs = shared_srs(64)
    instances = 0
    for k, g in itertools.product((1, 2, 4, 8), (1, 4, 8, 16)):
        for _ in range(7):
            d = rng.randrange(max(g, 1), 65)
            polys = [rand_poly(rng, rng.randrange(d + 1)) for _ in range(k)]
            md = _random_micro_domain(rng, g)
            commitments = [commit(srs, p) for p in polys]
            values = [[p.evaluate(z) for z in md] for p in polys]
            group = OpenedGroup(commitments, values, md)
            transcript = Transcript(
                srs_id=srs.srs_id, commitments=tuple(commitments),
                micro_domain=md,
                coords=tuple((i, j) for i in range(k) for j in range(g)),
                gcell_block=GCellBlock(0, k, 0, g))
            gamma = derive_gamma(transcript)
            proof = open_shared(srs, polys, md, gamma)
            assert verify_shared(srs, group, proof, gamma)
            generic = open_generic(srs, polys, [md.points] * k, values, gamma)
            assert proof == generic
            assert proof == oracle_witness(polys, md, gamma)
            instances += 1
    assert instances >= 100
    assert time.monotonic() - start < 60.0


def test_criterion_03_soundness_1000_tamper_trials():
    """>= 1000 randomized tamper trials across five tamper families, each
    rejected; zero false accepts. Runtime < 120 s."""
    start = time.monotonic()
    rng = random.Random(91)
    srs = shared_srs(8)
    d = srs.degree_bound

    instances = []
    for _ in range(10):
        k = rng.choice((2, 3, 4))
        g = rng.choice((2, 4))
        polys = [rand_poly(rng, rng.randrange(d + 1)) for _ in range(k)]
        md = _random_micro_domain(rng, g)
        commitments = [commit(srs, p) for p in polys]
        values = [[p.evaluate(z) for z in md] for p in polys]
        transcript = Transcript(
            srs_id=srs.srs_id, commitments=tuple(commitments),
            micro_domain=md,
            coords=tuple((i, j) for i in range(k) for j in range(g)),
            gcell_block=GCellBlock(0, k, 0, g))
        gamma = derive_gamma(transcript)
        proof = open_shared(srs, polys, md, gamma)
        group = OpenedGroup(commitments, values, md)
        assert verify_shared(srs, group, proof, gamma)  # honest baseline
        instances.append((k, g, md, commitments, values, transcript, proof))

    false_accepts = 0
    trials = 0
    for trial in range(1000):
        k, g, md, commitments, values, transcript, proof = \
            instances[trial % len(instances)]
        kind = trial % 5
        gamma = derive_gamma(transcript)
        group = OpenedGroup(commitments, values, md)
        if kind == 0:  # perturb one claimed scalar
            bad = [list(row) for row in values]
            bad[rng.randrange(k)][rng.randrange(g)] += rng.randrange(1, 99)
            group = OpenedGroup(commitments, bad, md)
        elif kind == 1:  # flip one byte of the proof encoding
            blob = bytearray(proof.to_bytes())
            blob[rng.randrange(48)] ^= 1 << rng.randrange(8)
            try:
                proof = G1Point.from_bytes(bytes(blob))
            except ValueError:
                trials += 1
                continue  # malformed encoding is a rejection
        elif kind == 2:  # swap two commitments (values left in place)
            i, j = rng.sample(range(k), 2)
            cms = list(commitments)
            cms[i], cms[j] = cms[j], cms[i]
            group = OpenedGroup(cms, values, md)
            tampered = Transcript(
                transcript.srs_id, tuple(cms), md, transcript.coords,
                transcript.gcell_block)
            gamma = derive_gamma(tampered)
        elif kind == 3:  # tamper the block-region metadata
            tampered = Transcript(
                transcript.srs_id, transcript.commitments, md,
                transcript.coords,
                GCellBlock(0, k, g + rng.randrange(1, 50),
                           g + rng.randrange(50, 99)))
            gamma = derive_gamma(tampered)
        else:  # tamper a coordinate in the challenge transcript
            coords = list(transcript.coords)
            coords[rng.randrange(len(coords))] = (rng.randrange(1000) + 100,
                                                  rng.randrange(1000))
            tampered = Transcript(
                transcript.srs_id, transcript.commitments, md,
                tuple(coords), transcript.gcell_block)
            gamma = derive_gamma(tampered)
        if verify_shared(srs, group, proof, gamma):
            false_accepts += 1
        trials += 1
    assert trials == 1000
    assert false_accepts == 0
    assert time.monotonic() - start < 120.0


def test_criterion_04_reduction_to_single_point_kzg():
    """k = 1, g = 1 aggregated verification is decision-equivalent to
    single-point verification on 200 honest/tampered instances."""
    rng = random.Random(92)
    srs = shared_srs(8)
    agreements = 0
    for i in range(200):
        p = rand_poly(rng, rng.randrange(srs.degree_bound + 1))
        z = rand_scalar(rng)
        cm = commit(srs, p)
        value, single_proof = open_single(srs, p, z)
        if i % 2:
            value = (value + rng.randrange(1, 1000)) % SCALAR_MODULUS
        md = EvaluationDomain((z,), offset=0)
        group = OpenedGroup([cm], [[value]], md)
        agg = open_shared(srs, [p], md, gamma=1)
        multi = verify_shared(srs, group, agg, gamma=1)
        single = verify_single(srs, cm, z, value, single_proof)
        assert multi == single == (i % 2 == 0)
        agreements += 1
    assert agreements == 200


def test_criterion_05_operation_accounting():
    """Exact counter equality: open d+1-g / 0 / 0; verify k+g+1 G1,
    2 pairings, 1 interpolation; G2 cost g+1 cold, 0 warm."""
    rng = random.Random(93)
    for k, g, d in ((1, 1, 4), (2, 4, 9), (3, 4, 12), (4, 8, 16)):
        srs = gen(d, 515151 + d)  # fresh SRS: cold vanishing-poly cache
        polys = [rand_poly(rng, rng.randrange(d + 1)) for _ in range(k)]
        md = _random_micro_domain(rng, g)
        group = OpenedGroup([commit(srs, p) for p in polys],
                            [[p.evaluate(z) for z in md] for p in polys], md)
        opening = OpCounters()
        proof = open_shared(srs, polys, md, 7, counters=opening)
        assert opening.g1_scalar_mults == d + 1 - g
        assert opening.g2_scalar_mults == 0
        assert opening.pairings == 0
        assert opening.interpolations == 0

        cold = OpCounters()
        assert verify_shared(srs, group, proof, 7, counters=cold)
        assert cold.g1_scalar_mults == k + g + 1
        assert cold.g2_scalar_mults == g + 1
        assert cold.pairings == 2
        assert cold.interpolations == 1

        warm = OpCounters()
        assert verify_shared(srs, group, proof, 7, counters=warm)
        assert warm.g2_scalar_mults == 0


def test_criterion_06_worked_example_8_columns():
    """An 8-point row domain with g = 4 yields exactly 2 micro-domains;
    packing 2 rows gives an 8-scalar opened group; prove/verify succeeds."""
    rng = random.Random(94)
    dims = GridDims(2, 4, 2)
    srs = shared_srs(7)
    data = bytes(rng.randrange(256) for _ in range(dims.data_capacity_bytes))
    grid = build_grid(data, dims, srs)
    assert len(grid.row_domain) == 8

    mds = partition_micro_domains(grid.row_domain, 4)
    assert len(mds) == 2

    md = mds[1]
    group = build_opened_group(grid, range(0, 2), md)
    assert sum(len(row) for row in group.values) == 8

    transcript = Transcript(
        srs_id=srs.srs_id, commitments=tuple(group.commitments),
        micro_domain=md,
        coords=tuple((r, c) for r in range(2) for c in range(4, 8)),
        gcell_block=GCellBlock(0, 2, 4, 8))
    gamma = derive_gamma(transcript)
    proof = open_shared(srs, [grid.row_polys[0], grid.row_polys[1]],
                        md, gamma)
    assert verify_shared(srs, group, proof, gamma)


def test_criterion_07_wire_byte_exactness_10000_cases():
    """>= 10,000 fuzz cases: byte-identical round trips, 80-byte baseline
    cells, and the 48 + 16 + 4 + 32*count size formula."""
    rng = random.Random(95)
    for _ in range(5000):
        n_rows = rng.randrange(1, 5)
        n_cols = rng.randrange(1, 9)
        r0, c0 = rng.randrange(1000), rng.randrange(1000)
        block = GCellBlock(r0, r0 + n_rows, c0, c0 + n_cols)
        scalars = tuple(rng.randrange(SCALAR_MODULUS)
                        for _ in range(n_rows * n_cols))
        mcell = MCell(bytes(rng.randrange(256) for _ in range(48)),
                      block, scalars)
        blob = mcell.to_bytes()
        assert len(blob) == 48 + 16 + 4 + 32 * mcell.count
        assert MCell.from_bytes(blob) == mcell
        assert MCell.from_bytes(blob).to_bytes() == blob
    for _ in range(5000):
        cell = BaselineCell(
            bytes(rng.randrange(256) for _ in range(48)),
            rng.randrange(SCALAR_MODULUS).to_bytes(32, "little"))
        blob = cell.to_bytes()
        assert len(blob) == 80
        assert BaselineCell.from_bytes(blob) == cell
        assert BaselineCell.from_bytes(blob).to_bytes() == blob


def test_criterion_08_sample_accounting_exhaustive():
    """effective_samples(s, g) == floor(s / g) for all s <= 256, g <= 32;
    required_samples composes to reach any target."""
    for s in range(257):
        for g in range(1, 33):
            assert effective_samples(s, g) == s // g
    for target in range(0, 65, 8):
        for g in range(1, 33):
            assert effective_samples(required_samples(target, g), g) >= target
    # and through an actual sampling plan
    dims = GridDims(4, 8, 2)
    s = required_samples(4, 4)
    plan = make_sampling_plan(5, dims, s)
    assert effective_samples(plan.sample_count, 4) >= 4


def test_criterion_09_network_trends():
    """64-cell grid, 50 peers, replication 5, 50 paired seeds: mean hit
    rates order PMP >= GroupedOnly >= Vanilla at churn 0.1/0.2/0.3;
    BatchedSingle identical to Vanilla per seed; hit rate non-increasing
    in churn per (mode, seed). Runtime < 5 min."""
    start = time.monotonic()
    cfg = ExperimentConfig()  # 4x8 grid, extension 2 -> 64 extended cells
    assert GridDims(cfg.rows, cfg.cols, cfg.extension).extended_cells == 64
    assert cfg.peers == 50 and cfg.replication == 5
    session = ExperimentSession(cfg)
    seeds = range(1, 51)
    churn_levels = (0.0, 0.1, 0.2, 0.3)
    hit = {}
    for mode in ConfigMode:
        for churn in churn_levels:
            for seed in seeds:
                row = session.run(mode, churn, seed)
                hit[(mode, churn, seed)] = row["hit_rate"]

    for churn in (0.1, 0.2, 0.3):
        means = {mode: statistics.mean(hit[(mode, churn, s)] for s in seeds)
                 for mode in ConfigMode}
        assert means[ConfigMode.PMP] >= means[ConfigMode.GROUPED_ONLY]
        assert means[ConfigMode.GROUPED_ONLY] >= means[ConfigMode.VANILLA]

    for churn in churn_levels:
        for seed in seeds:
            assert hit[(ConfigMode.BATCHED_SINGLE, churn, seed)] == \
                hit[(ConfigMode.VANILLA, churn, seed)]

    for mode in ConfigMode:
        for seed in seeds:
            rates = [hit[(mode, churn, seed)] for churn in churn_levels]
            assert rates == sorted(rates, reverse=True)

    assert time.monotonic() - start < 300.0


def test_criterion_10_end_to_end_determinism(tmp_path):
    """Two invocations of the ablation command with the same config write
    byte-identical files."""
    from pmpdas import cli
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("rows=2\ncols=4\nsamples=8\nseeds=1-3\n"
                   "churn=0.0,0.2\n")
    out1, out2 = str(tmp_path / "one.csv"), str(tmp_path / "two.csv")
    assert cli.main(["ablation", "--config", str(cfg),
                     "--output", out1]) == 0
    assert cli.main(["ablation", "--config", str(cfg),
                     "--output", out2]) == 0
    blob1 = open(out1, "rb").read()
    assert blob1 == open(out2, "rb").read()
    assert blob1.startswith(b"mode,seed,churn,objects_stored,proof_bytes,"
                            b"object_bytes,hit_rate,verify_failures,"
                            b"g1_mults,g2_mults,pairings,interpolations\n")
