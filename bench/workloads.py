"""The benchmark workloads, driven through the public pmpdas API.

Each workload has a `setup(clock)` that returns its state and the laps
of its steps, a `round(state, i, clock)` that does one unit of measured
work and checks its outputs, and a `check(state)` run once after the
measured rounds. Every input is derived
from the workload seed. Program functions are called through their
modules (`dasnet.sample_and_verify`, not a name imported here), so the
tracer's wrappers see the calls.

`round` times its operations with the `hostspeed.ScaledClock` it is
given and returns `(entries, busy)`: one `(arm, lap, ops)` entry per
timed operation, and the laps of the time that counts towards
throughput.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path

from pmpdas import cli, dasnet, grid, kzg
from pmpdas.dasnet import (
    BlockContext, ConfigMode, ExperimentConfig, ExperimentSession, SimDht,
    Status, VerificationCache,
)
from pmpdas.wire import GCELL_BLOCK_BYTES, PROOF_BYTES, SCALAR_BYTES

ARMS = (ConfigMode.VANILLA, ConfigMode.BATCHED_SINGLE,
        ConfigMode.GROUPED_ONLY, ConfigMode.PMP)

# sha256 of `pmpdas ablation` CSV output for the default config with
# seeds=1-200 (the sweep of the default workload seed), recorded from the
# commit that introduced this benchmark.
SWEEP_DEFAULT_CSV_SHA256 = \
    "cf58f263c045eba045bdd438d52cf7e62348b915488412aa50dc3685f3fb053b"
DEFAULT_SEED = 0


class BenchFailure(Exception):
    """An output of the program is wrong; the run reports no numbers."""


def model_cost(mode: ConfigMode, rows_per_group: int, g: int) -> dict:
    """OpCounters of verifying one fetched object, per arm.

    vanilla: one single-point check; batched: one opening through the
    batched check (4 G1 products per opening); grouped: k*g openings
    through the batched check; pmp: acceptance criterion 5 (k+g+1 G1,
    one interpolation, G2 warm).
    """
    k = rows_per_group
    if mode is ConfigMode.VANILLA:
        return {"g1_mults": 1, "g2_mults": 1, "pairings": 2,
                "interpolations": 0}
    if mode is ConfigMode.BATCHED_SINGLE:
        return {"g1_mults": 4, "g2_mults": 0, "pairings": 2,
                "interpolations": 0}
    if mode is ConfigMode.GROUPED_ONLY:
        return {"g1_mults": 4 * k * g, "g2_mults": 0, "pairings": 2,
                "interpolations": 0}
    return {"g1_mults": k + g + 1, "g2_mults": 0, "pairings": 2,
            "interpolations": 1}


def check_outcome(plan, mode, outcome, ctx) -> int:
    """Invariants of one sample_and_verify call; returns fetched count."""
    if list(outcome.statuses) != list(plan.coordinates):
        raise BenchFailure(f"{mode.value}: sampled coordinates not all "
                           f"accounted for")
    if outcome.count(Status.VERIFY_FAILED):
        raise BenchFailure(f"{mode.value}: honest objects failed to verify")
    fetched = len(plan.coordinates) - outcome.count(Status.FETCH_FAILED)
    per_object = model_cost(mode, ctx.rows_per_group, ctx.group_size)
    expected = {k: v * fetched for k, v in per_object.items()}
    if outcome.counters.as_dict() != expected:
        raise BenchFailure(f"{mode.value}: op counters "
                           f"{outcome.counters.as_dict()} != model {expected}")
    return fetched


def pmp_bytes_per_cell(objects: dict, g: int) -> float:
    """Stored bytes per covered cell of a pmp object set, checked against
    the layout: g scalars, one 48-byte proof, one block header and count."""
    total = sum(len(obj) for obj in objects.values())
    cells = len(objects) * g
    expected = SCALAR_BYTES + (PROOF_BYTES + GCELL_BLOCK_BYTES + 4) / g
    if total / cells != expected:
        raise BenchFailure(f"pmp objects hold {total / cells} bytes per "
                           f"cell, layout says {expected}")
    return total / cells


def _block_data(label: str, size: int) -> bytes:
    rng = random.Random(label)
    return bytes(rng.randrange(256) for _ in range(size))


class Sample:
    """Light-client read path on the default grid (4x8, extension 2, g=4,
    50 peers, r=5, capacity 3, s=16) at churn 0.1. Each round samples one
    arm from a fresh DHT with a fresh verification cache; consecutive
    rounds rotate through the four arms on the same plan seed."""

    cycle = len(ARMS)
    traced_rounds = 8
    probe_interval_s = 0.0
    churn = 0.1

    def __init__(self, seed: int):
        self.seed = seed
        self.cfg = ExperimentConfig(data_seed=seed)

    def setup(self, clock):
        session, lap = clock.timed(ExperimentSession, self.cfg)
        laps = [lap]
        for mode in ARMS:
            laps.append(clock.timed(session.objects_for, mode)[1])
        return session, laps

    def round(self, session, i, clock):
        cfg = self.cfg
        mode = ARMS[i % len(ARMS)]
        round_seed = self.seed * 1_000_000 + i // len(ARMS)
        dht = SimDht(cfg.peers, cfg.replication, cfg.peer_capacity)
        dasnet.publish(session.ctx, mode, dht,
                       objects=session.objects_for(mode))
        dht.kill_fraction(self.churn, round_seed)
        plan = dasnet.make_sampling_plan(round_seed, session.ctx.grid.dims,
                                         cfg.samples)
        outcome, lap = clock.timed(
            dasnet.sample_and_verify, plan, mode, dht, session.ctx,
            retry_budget=cfg.retry_budget, cache=VerificationCache())
        check_outcome(plan, mode, outcome, session.ctx)
        return [(mode.value, lap, len(plan.coordinates))], [lap]

    def check(self, session):
        return {"pmp_object_bytes_per_cell": pmp_bytes_per_cell(
            session.objects_for(ConfigMode.PMP), self.cfg.group_size)}


class Publish:
    """Publisher write path: each round builds a fresh 2x16 grid
    (extension 2, 64 cells, SRS degree 31) and builds and publishes the
    objects of every arm into its own 50-peer DHT. The rows are twice as
    wide as the default, so the per-cell arms' O(n^2) cost per row shows;
    two rows keep a round short enough for several rounds per run."""

    cycle = 1
    traced_rounds = 1
    probe_interval_s = 0.0
    dims = grid.GridDims(2, 16, 2)
    group_size = 4
    check_samples = 4

    def __init__(self, seed: int):
        self.seed = seed
        self.cfg = ExperimentConfig()

    def setup(self, clock):
        secret = int.from_bytes(hashlib.sha256(
            f"publish-srs|{self.seed}".encode()).digest(), "big")
        srs, lap = clock.timed(kzg.gen, self.dims.extended_cols - 1, secret)
        return {"srs": srs}, [lap]

    def round(self, state, i, clock):
        data = _block_data(f"publish|{self.seed}|{i}",
                           self.dims.data_capacity_bytes)
        block, lap = clock.timed(grid.build_grid, data, self.dims,
                                 state["srs"])
        ctx = BlockContext(f"block-{self.seed}-{i}".encode(), block,
                           state["srs"], self.group_size)
        entries = []
        busy = [lap]
        published = {}
        for mode in ARMS:
            published[mode], lap = clock.timed(self.publish_arm, ctx, mode)
            entries.append((mode.value, lap, self.dims.extended_cells))
            busy.append(lap)
        state["last"] = (ctx, published)
        return entries, busy

    def publish_arm(self, ctx, mode):
        cfg = self.cfg
        dht = SimDht(cfg.peers, cfg.replication, cfg.peer_capacity)
        objects = dasnet.build_objects(ctx, mode)
        dasnet.publish(ctx, mode, dht, objects=objects)
        return objects, dht

    def check(self, state):
        """The last round's objects are reproducible and verify."""
        ctx, published = state["last"]
        for md in grid.partition_micro_domains(ctx.grid.row_domain,
                                               ctx.group_size):
            ctx.srs.cached_z_commitment(md)
        for mode, (objects, dht) in published.items():
            if dasnet.build_objects(ctx, mode) != objects:
                raise BenchFailure(f"{mode.value}: a second build_objects "
                                   f"on the same grid differs")
            plan = dasnet.make_sampling_plan(self.seed, ctx.grid.dims,
                                             self.check_samples)
            outcome = dasnet.sample_and_verify(plan, mode, dht, ctx,
                                               cache=VerificationCache())
            if check_outcome(plan, mode, outcome, ctx) != len(
                    plan.coordinates):
                raise BenchFailure(f"{mode.value}: published objects "
                                   f"missing from a DHT without churn")
        return {"pmp_object_bytes_per_cell": pmp_bytes_per_cell(
            published[ConfigMode.PMP][0], ctx.group_size)}


class Sweep:
    """Experimenter path: `pmpdas ablation` on the default config with a
    block of seeds (1-200 for the default workload seed), run through the
    command-line entry point. Set-up is one ExperimentSession, the state
    the command builds before its runs."""

    cycle = 1
    traced_rounds = 1
    probe_interval_s = 0.25  # a run takes milliseconds: probe between runs

    def __init__(self, seed: int, out_dir: Path, seeds_per_sweep: int = 200):
        self.seed = seed
        self.out_dir = out_dir
        self.seeds_per_sweep = seeds_per_sweep
        self.cfg = ExperimentConfig(data_seed=seed)

    def seed_block(self, i: int) -> range:
        first = (self.seed * 16 + i) * self.seeds_per_sweep + 1
        return range(first, first + self.seeds_per_sweep)

    def setup(self, clock):
        _, lap = clock.timed(ExperimentSession, self.cfg)
        return {"csv_sha256": []}, [lap]

    def round(self, state, i, clock):
        seeds = self.seed_block(i)
        stem = self.out_dir / f"sweep-seed{self.seed}-{i}"
        config = stem.with_suffix(".cfg")
        output = stem.with_suffix(".csv")
        config.write_text(f"seeds={seeds.start}-{seeds.stop - 1}\n"
                          f"data_seed={self.seed}\n", encoding="utf-8")
        entries = []
        rows = []
        original = ExperimentSession.run

        def timed_run(session, mode, churn, seed):
            state["session"] = session
            row, lap = clock.timed(original, session, mode, churn, seed)
            entries.append((mode.value, lap, 1))
            rows.append(row)
            return row

        ExperimentSession.run = timed_run
        try:
            status = cli.main(["ablation", "--config", str(config),
                               "--output", str(output)])
        finally:
            ExperimentSession.run = original
        if status != cli.EXIT_OK:
            raise BenchFailure(f"pmpdas ablation exited with {status}")
        expected_runs = len(ARMS) * len(self.cfg.churn) * len(seeds)
        if len(rows) != expected_runs:
            raise BenchFailure(f"ablation made {len(rows)} runs, "
                               f"expected {expected_runs}")
        for row in rows:
            self.check_row(row)
        digest = hashlib.sha256(output.read_bytes()).hexdigest()
        state["csv_sha256"].append(digest)
        if self.seed == DEFAULT_SEED and i == 0 and \
                self.seeds_per_sweep == 200 and \
                digest != SWEEP_DEFAULT_CSV_SHA256:
            raise BenchFailure("ablation CSV differs from the recorded "
                               "seed-commit output")
        return entries, [lap for _, lap, _ in entries]

    def check_row(self, row):
        cfg = self.cfg
        mode = ConfigMode.parse(row["mode"])
        if row["verify_failures"]:
            raise BenchFailure(f"{row['mode']} seed {row['seed']}: "
                               f"honest objects failed to verify")
        if row["verified"] + row["fetch_failures"] != row["samples"] or \
                row["samples"] != cfg.samples:
            raise BenchFailure(f"{row['mode']} seed {row['seed']}: sampled "
                               f"coordinates not all accounted for")
        fetched = row["samples"] - row["fetch_failures"]
        for key, per_object in model_cost(mode, cfg.rows_per_group,
                                          cfg.group_size).items():
            if row[key] != per_object * fetched:
                raise BenchFailure(f"{row['mode']} seed {row['seed']}: "
                                   f"{key} {row[key]} != model "
                                   f"{per_object * fetched}")

    def check(self, state):
        objects = state["session"].objects_for(ConfigMode.PMP)
        return {"pmp_object_bytes_per_cell": pmp_bytes_per_cell(
            objects, self.cfg.group_size),
            "csv_sha256": state["csv_sha256"]}
