"""Simulated store, sampling plans, publication arms, and experiments."""

import functools
import hashlib
import itertools
import math
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from helpers import (
    TEST_RHO, inject_fault, record_calls, shared_srs, shift_between_rows,
)
from pmpdas import curve, dasnet, kzg, wire
from pmpdas.curve import CurveError, G1Point, G2Point, g1_msms, pairing_check
from pmpdas.dasnet import (
    DECODE_ERRORS, GROUPED_MODES, BlockContext, ConfigMode, DasNetError,
    ExperimentConfig, ExperimentSession, SamplingPlan, SimDht,
    Status, VerificationCache, build_objects, effective_samples,
    make_sampling_plan, object_key, object_location, object_regions,
    object_terms, publish, required_samples, round_weights,
    sample_and_verify, verify_object, verify_round,
)
from pmpdas.field_poly import (
    SCALAR_MODULUS, scalar_from_bytes, scalar_to_bytes,
)
from pmpdas.grid import (
    Coordinate, GridDims, GridError, build_grid, partition_micro_domains,
)
from pmpdas.kzg import KzgError, OpCounters, PairingTerms
from pmpdas.multiproof import (
    MultiproofError, OpenedGroup, derive_gamma, verify_shared,
)
from pmpdas.wire import (
    BASELINE_CELL_BYTES, GCELL_BLOCK_BYTES, PROOF_BYTES, SCALAR_BYTES,
    BaselineCell, GCellBlock, GroupedCells, MCell, WireError,
)


def _context(rows=2, group_size=4, rows_per_group=1, seed=80, cols=4,
             degree=7):
    rng = random.Random(seed)
    dims = GridDims(rows, cols, 2)
    data = bytes(rng.randrange(256) for _ in range(dims.data_capacity_bytes))
    grid = build_grid(data, dims, shared_srs(degree))
    return BlockContext(b"test-block", grid, shared_srs(degree), group_size,
                        rows_per_group)


CTX = _context()
# Object geometries: the default, a last row band shorter than the others
# (3 rows in bands of 2), and groups of 2 columns by 2 rows.
GEOMETRIES = {
    "default": CTX,
    "short_band": _context(rows=3, rows_per_group=2),
    "k2_g2": _context(rows=4, group_size=2, rows_per_group=2),
}


# ---------------------------------------------------------------------------
# SimDht

def test_put_places_replication_factor_distinct_replicas():
    dht = SimDht(10, replication_factor=3)
    assert dht.put(b"k", b"v") == 3
    holders = dht.replicas[b"k"]
    assert len(holders) == len(set(holders)) == 3
    assert dht.get(b"k") == b"v"
    with pytest.raises(DasNetError):
        SimDht(0, replication_factor=3)


def test_placement_is_key_determined():
    a, b = SimDht(10, 3), SimDht(10, 3)
    a.put(b"k1", b"x")
    b.put(b"other", b"y")
    b.put(b"k1", b"x")
    assert a.replicas[b"k1"] == b.replicas[b"k1"]


def test_capacity_sheds_replicas_but_never_drops_objects():
    dht = SimDht(4, replication_factor=3, peer_capacity=1)
    for i in range(8):
        placed = dht.put(b"key-%d" % i, b"v")
        assert placed >= 1
    for i in range(8):
        assert dht.get(b"key-%d" % i) == b"v"


def test_get_respects_liveness():
    dht = SimDht(5, replication_factor=2)
    dht.put(b"k", b"v")
    for peer in dht.replicas[b"k"]:
        dht.alive[peer] = False
    assert dht.get(b"k") is None
    obj, attempts = dht.get_with_retries(b"k", retry_budget=3)
    assert obj is None and attempts == 2  # both replicas tried


def test_retry_budget_limits_attempts():
    dht = SimDht(10, replication_factor=5)
    dht.put(b"k", b"v")
    order = dht.replicas[b"k"]
    for peer in order[:4]:
        dht.alive[peer] = False
    obj, attempts = dht.get_with_retries(b"k", retry_budget=3)
    assert obj is None and attempts == 4  # budget exhausted before replica 5
    obj, attempts = dht.get_with_retries(b"k", retry_budget=4)
    assert obj == b"v" and attempts == 5


def test_churn_kills_a_seeded_prefix():
    def dead_set(churn, seed):
        dht = SimDht(20, 3)
        dht.kill_fraction(churn, seed)
        return {p for p in range(20) if not dht.alive[p]}

    assert dead_set(0.0, 1) == set()
    small, large = dead_set(0.1, 1), dead_set(0.4, 1)
    assert len(small) == 2 and len(large) == 8
    assert small <= large  # monotone for a fixed seed
    assert dead_set(0.4, 1) == large  # deterministic
    assert dead_set(0.4, 2) != large or dead_set(0.4, 3) != large
    with pytest.raises(DasNetError):
        dead_set(1.0, 1)


def test_churn_kill_count_is_exact_for_decimal_churn():
    # ceil of the float product overshoots where it lands just above an
    # integer: 0.14 * 50 == 7.000000000000001
    for n_peers, churn in ((50, 0.14), (100, 0.07), (25, 0.28)):
        assert math.ceil(churn * n_peers) == 8
        assert SimDht(n_peers, 3).kill_fraction(churn, 1) == 7
    for n_peers in range(1, 201):
        dht = SimDht(n_peers, 3)
        counts = []
        for percent in range(100):
            dht.alive = [True] * n_peers
            dead = dht.kill_fraction(percent / 100, n_peers)
            assert dead == -(-percent * n_peers // 100)
            assert dht.alive.count(False) == dead
            counts.append(dead)
        assert counts == sorted(counts)  # monotone in churn


@pytest.mark.parametrize("capacity", [2, None])
def test_hit_rate_over_every_kill_set_is_the_exact_one(capacity):
    # 8 peers are few enough to kill every subset of each size in turn, so
    # the mean hit rate over the subsets is the exact one, not an estimate;
    # at capacity 2, three objects keep 5 replicas and five keep 1
    dht = SimDht(8, 5, capacity)
    for i in range(8):
        dht.put(b"object-%d" % i, bytes([i]))
    for retry_budget in (0, 1, 2, 5):
        for n_dead in range(8):
            hits = kill_sets = 0
            for dead in itertools.combinations(range(8), n_dead):
                run = dht.with_fresh_liveness()
                order = dead + tuple(p for p in range(8) if p not in dead)
                assert run.kill_prefix(order, n_dead / 8) == n_dead
                hits += sum(run.get_with_retries(key, retry_budget)[0]
                            is not None for key in run.replicas)
                kill_sets += 1
            assert Fraction(hits, kill_sets * len(dht.replicas)) == \
                oracles.exact_hit_rate(dht, n_dead, retry_budget), \
                (retry_budget, n_dead)


# ---------------------------------------------------------------------------
# Sampling arithmetic

def test_sampling_plan_is_reproducible_and_distinct():
    dims = CTX.grid.dims
    plan = make_sampling_plan(7, dims, 6)
    again = make_sampling_plan(7, dims, 6)
    assert plan.coordinates == again.coordinates
    assert len(set(plan.coordinates)) == 6
    for coord in plan.coordinates:
        assert coord.row < dims.rows and coord.col < dims.extended_cols
    assert make_sampling_plan(8, dims, 6).coordinates != plan.coordinates
    for bad in (dims.extended_cells + 1, -1):
        with pytest.raises(DasNetError):
            make_sampling_plan(7, dims, bad)


def test_effective_and_required_samples():
    assert effective_samples(16, 4) == 4
    assert effective_samples(17, 4) == 4
    assert effective_samples(3, 4) == 0
    assert required_samples(10, 4) == 40
    assert required_samples(5, 1) == 5
    assert effective_samples(required_samples(7, 4), 4) == 7
    with pytest.raises(DasNetError):
        effective_samples(4, 0)
    with pytest.raises(DasNetError):
        required_samples(-1, 4)


# ---------------------------------------------------------------------------
# Publication and retrieval

def test_object_counts_per_mode():
    counts = {ConfigMode.VANILLA: 16, ConfigMode.BATCHED_SINGLE: 16,
              ConfigMode.GROUPED_ONLY: 4, ConfigMode.PMP: 4}
    for mode, expected in counts.items():
        objects = build_objects(CTX, mode)
        assert len(objects) == expected
    # extended_cells / g exactly, the grouped object-count identity
    assert counts[ConfigMode.PMP] == CTX.grid.dims.extended_cells // 4


def test_publish_reports_proof_and_object_bytes():
    for mode in ConfigMode:
        dht = SimDht(10, 3)
        result = publish(CTX, mode, dht)
        if mode is ConfigMode.GROUPED_ONLY:
            assert result.proof_bytes == result.object_count * 48 * 4
        else:
            assert result.proof_bytes == result.object_count * 48
        if mode in (ConfigMode.VANILLA, ConfigMode.BATCHED_SINGLE):
            assert result.object_bytes == 16 * 80


def test_publish_empty_object_set():
    dht = SimDht(4, 2)
    result = publish(CTX, ConfigMode.PMP, dht, objects={})
    assert result.object_count == 0 and result.proof_bytes == 0


def test_batched_objects_identical_to_vanilla():
    assert build_objects(CTX, ConfigMode.VANILLA) == \
        build_objects(CTX, ConfigMode.BATCHED_SINGLE)


def test_all_modes_verify_honest_objects():
    plan = make_sampling_plan(3, CTX.grid.dims, 8)
    for mode in ConfigMode:
        dht = SimDht(10, 3)
        publish(CTX, mode, dht)
        outcome = sample_and_verify(plan, mode, dht, CTX)
        assert outcome.hit_rate == 1.0
        assert outcome.count(Status.VERIFIED) == 8
        assert outcome.count(Status.VERIFY_FAILED) == 0


def test_fetch_failure_recorded_per_coordinate():
    dht = SimDht(10, 2)
    publish(CTX, ConfigMode.VANILLA, dht)
    dht.alive = [False] * dht.n_peers
    plan = make_sampling_plan(4, CTX.grid.dims, 5)
    outcome = sample_and_verify(plan, ConfigMode.VANILLA, dht, CTX)
    assert outcome.hit_rate == 0.0
    assert outcome.count(Status.FETCH_FAILED) == 5


@pytest.mark.parametrize("mode", list(ConfigMode))
def test_coordinate_outside_the_grid_raises(mode):
    dims = CTX.grid.dims
    dht = _published_dht(CTX, mode)
    for outside in (Coordinate(dims.rows, 0),
                    Coordinate(0, dims.extended_cols)):
        plan = SamplingPlan(0, (Coordinate(0, 0), outside))
        with pytest.raises(GridError):
            sample_and_verify(plan, mode, dht, CTX)


def test_tampered_stored_object_fails_verification():
    for mode in ConfigMode:
        dht = SimDht(10, 3)
        publish(CTX, mode, dht)
        # corrupt every stored copy of every object
        for store in dht.stores:
            for key in store:
                blob = bytearray(store[key])
                blob[-1] ^= 0x01
                store[key] = bytes(blob)
        plan = make_sampling_plan(5, CTX.grid.dims, 6)
        outcome = sample_and_verify(plan, mode, dht, CTX)
        assert outcome.count(Status.VERIFIED) == 0, mode
        assert outcome.count(Status.VERIFY_FAILED) == 6, mode


def test_truncated_object_is_a_verify_failure_not_a_crash():
    dht = SimDht(10, 3)
    publish(CTX, ConfigMode.PMP, dht)
    for store in dht.stores:
        for key in store:
            store[key] = store[key][:-3]
    plan = make_sampling_plan(6, CTX.grid.dims, 4)
    outcome = sample_and_verify(plan, ConfigMode.PMP, dht, CTX)
    assert outcome.count(Status.VERIFY_FAILED) == 4


@pytest.mark.parametrize("tamper", ["short", "extra"])
def test_miscounted_grouped_object_is_a_verify_failure(tamper):
    # a consistently re-encoded grouped-only object with one cell fewer
    # (or more) than its block region must fail, neither crash the
    # client nor verify
    dht = SimDht(10, 3)
    publish(CTX, ConfigMode.GROUPED_ONLY, dht)
    for store in dht.stores:
        for key in store:
            blob = store[key]
            count = int.from_bytes(blob[16:20], "little")
            if tamper == "short":
                count, cells = count - 1, blob[20:-80]
            else:
                count, cells = count + 1, blob[20:] + blob[-80:]
            store[key] = blob[:16] + count.to_bytes(4, "little") + cells
    plan = make_sampling_plan(6, CTX.grid.dims, 4)
    outcome = sample_and_verify(plan, ConfigMode.GROUPED_ONLY, dht, CTX)
    assert outcome.count(Status.VERIFY_FAILED) == 4


def _assert_internal_error_raises(error, modes):
    plan = make_sampling_plan(3, CTX.grid.dims, 2)
    for mode in modes:
        dht = SimDht(10, 3)
        publish(CTX, mode, dht)
        with pytest.raises(error):
            sample_and_verify(plan, mode, dht, CTX)


@pytest.mark.parametrize("name, error, modes", [
    ("single_terms", KzgError, (ConfigMode.VANILLA,)),
    ("batch_independent_terms", KzgError,
     (ConfigMode.BATCHED_SINGLE, ConfigMode.GROUPED_ONLY)),
    ("shared_terms", MultiproofError, (ConfigMode.PMP,)),
])
def test_internal_error_raises_instead_of_failing_verification(
        monkeypatch, name, error, modes):
    inject_fault(monkeypatch, dasnet, name, error("internal fault"))
    _assert_internal_error_raises(error, modes)


def test_internal_error_in_the_round_check_raises(monkeypatch):
    inject_fault(monkeypatch, PairingTerms, "check",
                 KzgError("internal fault"))
    _assert_internal_error_raises(KzgError, tuple(ConfigMode))


@functools.lru_cache(maxsize=None)
def _published(ctx, mode):
    return build_objects(ctx, mode)


def _honest_object(mode, ctx=CTX, coord=Coordinate(0, 0)):
    """Location and published bytes of the object covering `coord`."""
    return (object_location(ctx, mode, coord),
            _published(ctx, mode)[object_key(ctx, mode, coord)])


def _assert_rejected(mode, data):
    """Untrusted bytes may only fail to decode or fail verification."""
    location = _honest_object(mode)[0]
    try:
        ok = verify_object(CTX, mode, location, data)
    except (WireError, CurveError):
        return
    assert ok is False


def test_bad_location_raises_instead_of_failing_verification():
    # a region that is not an object of the block is a caller bug, never a
    # quiet VERIFY_FAILED, even when the object bytes are well formed
    outside = GCellBlock(CTX.grid.dims.rows, CTX.grid.dims.rows + 1, 0, 1)
    not_an_object = GCellBlock(0, 1, 0, 2)  # neither a cell nor a group
    for mode in ConfigMode:
        obj = _honest_object(mode)[1]
        with pytest.raises(GridError):
            verify_object(CTX, mode, outside, obj)
        with pytest.raises(DasNetError):
            verify_object(CTX, mode, not_an_object, obj)


@pytest.mark.parametrize("mode", GROUPED_MODES)
def test_object_of_another_region_is_a_decode_error(mode):
    # a well-formed grouped object names its region; stored for another
    # one it fails to decode, and the error names both regions
    location, _ = _honest_object(mode)
    foreign, obj = _honest_object(mode, coord=Coordinate(1, 5))
    assert foreign != location
    with pytest.raises(WireError) as caught:
        verify_object(CTX, mode, location, obj)
    assert str(foreign) in str(caught.value)
    assert str(location) in str(caught.value)


def test_object_terms_parse_each_scalar_once(monkeypatch):
    # the decoders parse and check every scalar of an object once; the
    # pairing terms reuse those values and parse nothing again
    objects = {mode: _honest_object(mode) for mode in ConfigMode}
    parsed = record_calls(monkeypatch, wire, "scalar_from_bytes",
                          lambda data: data)
    for mode, (location, obj) in objects.items():
        parsed.clear()
        assert object_terms(CTX, mode, location, obj,
                            weights=itertools.repeat(1)).check()
        assert len(parsed) == location.n_rows * location.n_cols, mode


@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_honest_objects_verify_at_their_location(geometry):
    ctx = GEOMETRIES[geometry]
    dims = ctx.grid.dims
    last = Coordinate(dims.rows - 1, dims.extended_cols - 1)
    for mode in ConfigMode:
        for coord in (Coordinate(0, 0), last):
            location, obj = _honest_object(mode, ctx, coord)
            assert verify_object(ctx, mode, location, obj) is True


def _cells(region):
    return [Coordinate(r, c) for r in range(region.rows_start, region.rows_end)
            for c in range(region.cols_start, region.cols_end)]


@pytest.mark.parametrize("g, k", [(3, 1), (0, 1), (4, 0), (8, 1)])
def test_block_context_rejects_a_layout_that_does_not_tile(g, k):
    # CTX's grid has 8 extended columns and its SRS degree bound 7, so
    # groups of 8 tile the grid but their micro-domains exceed the SRS
    with pytest.raises(GridError):
        BlockContext(b"test-block", CTX.grid, CTX.srs, g, k)


@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_object_regions_tile_the_grid_once(geometry):
    ctx = GEOMETRIES[geometry]
    dims = ctx.grid.dims
    grid_cells = _cells(GCellBlock(0, dims.rows, 0, dims.extended_cols))
    for mode in ConfigMode:
        covered = [c for region in object_regions(ctx, mode)
                   for c in _cells(region)]
        assert len(covered) == len(grid_cells), mode
        assert set(covered) == set(grid_cells), mode


LOCATION_GEOMETRIES = {**GEOMETRIES, "rows_3": _context(rows=3),
                       "k2_rows_4": _context(rows=4, rows_per_group=2)}
# (coordinate, region of its group) pinned per geometry, all with g = 4
GROUP_LOCATIONS = {
    "default": [(Coordinate(0, 0), GCellBlock(0, 1, 0, 4))],
    "rows_3": [(Coordinate(2, 7), GCellBlock(2, 3, 4, 8))],
    "k2_rows_4": [(Coordinate(3, 5), GCellBlock(2, 4, 4, 8))],
}


@pytest.mark.parametrize("geometry", LOCATION_GEOMETRIES)
def test_object_location_and_key_agree_with_the_regions(geometry):
    ctx = LOCATION_GEOMETRIES[geometry]
    dims = ctx.grid.dims
    for coord, region in GROUP_LOCATIONS.get(geometry, ()):
        for mode in GROUPED_MODES:
            assert object_location(ctx, mode, coord) == region
    for mode in ConfigMode:
        regions = object_regions(ctx, mode)
        for coord in _cells(GCellBlock(0, dims.rows, 0, dims.extended_cols)):
            location = object_location(ctx, mode, coord)
            assert location in regions and coord in _cells(location)
            corner = Coordinate(location.rows_start, location.cols_start)
            assert object_key(ctx, mode, coord) == \
                object_key(ctx, mode, corner)
        for outside in (Coordinate(dims.rows, 0),
                        Coordinate(0, dims.extended_cols)):
            with pytest.raises(GridError):
                object_location(ctx, mode, outside)


@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_region_corner_keys_are_the_published_keys(geometry):
    ctx = GEOMETRIES[geometry]
    for mode in ConfigMode:
        keys = [object_key(ctx, mode, Coordinate(r.rows_start, r.cols_start))
                for r in object_regions(ctx, mode)]
        assert keys == list(_published(ctx, mode)), mode


@settings(max_examples=60)
@given(mode=st.sampled_from(ConfigMode), data=st.binary(max_size=400))
def test_verify_object_rejects_arbitrary_bytes(mode, data):
    _assert_rejected(mode, data)


@settings(max_examples=30)
@given(mode=st.sampled_from(ConfigMode), position=st.integers(0, 10 ** 6),
       flip=st.integers(1, 255), truncate=st.booleans())
def test_verify_object_rejects_damaged_objects(mode, position, flip,
                                               truncate):
    honest = _honest_object(mode)[1]
    position %= len(honest)
    if truncate:
        data = honest[:position]
    else:
        blob = bytearray(honest)
        blob[position] ^= flip
        data = bytes(blob)
    _assert_rejected(mode, data)


# ---------------------------------------------------------------------------
# Experiments

def _small_config():
    return ExperimentConfig(rows=2, cols=4, peers=20, replication=3,
                            peer_capacity=None, samples=8,
                            seeds=(1, 2), churn=(0.0, 0.3))


def test_experiment_run_is_deterministic():
    cfg = _small_config()
    a = ExperimentSession(cfg).run(ConfigMode.PMP, 0.3, 2)
    b = ExperimentSession(cfg).run(ConfigMode.PMP, 0.3, 2)
    assert a == b


def test_session_rows_do_not_depend_on_run_order():
    cfg = _small_config()
    runs = [(mode, churn, seed) for mode in cfg.modes
            for churn in cfg.churn for seed in cfg.seeds]
    session = ExperimentSession(cfg)
    reversed_rows = {run: session.run(*run) for run in reversed(runs)}
    fresh_rows = {run: ExperimentSession(cfg, srs=session.srs).run(*run)
                  for run in runs}
    assert reversed_rows == fresh_rows


def _placement(dht):
    return [dict(store) for store in dht.stores], dict(dht.replicas)


@pytest.mark.parametrize("capacity", [None, 1])
def test_session_runs_do_not_leak_liveness(capacity):
    cfg = _small_config()
    cfg.peer_capacity = capacity
    session = ExperimentSession(cfg)
    for mode in cfg.modes:
        for seed in cfg.seeds:
            session.run(mode, 0.3, seed)
            row = session.run(mode, 0.0, seed)
            fresh = ExperimentSession(cfg, srs=session.srs)
            assert row == fresh.run(mode, 0.0, seed)
            assert row["fetch_failures"] == 0
        # the arm's placement is that of one publication, whatever the
        # churn of the runs that read it
        published, _ = session._published[mode]
        for churn in (0.5, 0.9, 0.0):
            session.run(mode, churn, 3)
        dht = SimDht(cfg.peers, cfg.replication, cfg.peer_capacity)
        publish(session.ctx, mode, dht, objects=session.objects_for(mode))
        assert _placement(published) == _placement(dht)
        assert all(published.alive)


def test_session_draws_once_per_seed_and_keys_once_per_cell(monkeypatch):
    # every arm and churn level of a seed shares its churn order and plan,
    # and the light client derives a sampled cell's key once per context
    cfg = _small_config()
    cfg.churn = (0.0, 0.1, 0.3)
    cfg.seeds = (1, 2, 3)
    session = ExperimentSession(cfg)
    for mode in cfg.modes:
        session.objects_for(mode)  # publication derives every key itself
    plans = [make_sampling_plan(seed, session.ctx.grid.dims, cfg.samples)
             for seed in cfg.seeds]
    churned = record_calls(monkeypatch, dasnet, "churn_order",
                           lambda n_peers, seed: seed)
    planned = record_calls(monkeypatch, dasnet, "make_sampling_plan",
                           lambda seed, dims, s: seed)
    keyed = record_calls(monkeypatch, dasnet, "cell_key",
                         lambda block_id, row, col: (row, col))
    for mode in cfg.modes:
        for churn in cfg.churn:
            for seed in cfg.seeds:
                session.run(mode, churn, seed)
    assert sorted(churned) == list(cfg.seeds)
    assert sorted(planned) == list(cfg.seeds)
    sampled = {(c.row, c.col) for plan in plans for c in plan.coordinates}
    assert keyed and len(set(keyed)) == len(keyed) and set(keyed) <= sampled


def test_one_cell_groups_keep_their_group_keys():
    # with g = k = 1 a group's region is its cell's, but the grouped arms
    # store it under a group key: a located cell keeps its arm's key
    cfg = _small_config()
    cfg.group_size = 1
    session = ExperimentSession(cfg)
    for mode in cfg.modes:
        row = session.run(mode, 0.0, 1)
        assert row["verified"] == cfg.samples, mode


PER_CELL_MODES = (ConfigMode.VANILLA, ConfigMode.BATCHED_SINGLE,
                  ConfigMode.GROUPED_ONLY)


def _count_openings(monkeypatch):
    """Record dasnet.open_groups; the returned list gets, per call, the
    list of one (polynomial, point) per one-point group opened, the proof
    of one cell."""
    return record_calls(
        monkeypatch, dasnet, "open_groups",
        lambda srs, groups, *args: [(polys[0], md.points[0])
                                    for polys, md, _ in groups
                                    if md.size == 1])


@pytest.mark.parametrize("overrides", [
    {}, {"rows": 3, "rows_per_group": 2},
    {"rows": 4, "rows_per_group": 2, "group_size": 2},
], ids=["default", "short_band", "k2_g2"])
def test_session_objects_equal_a_fresh_build(overrides):
    # degree 15 covers the 16 extended columns of every config here
    session = ExperimentSession(ExperimentConfig(**overrides),
                                srs=shared_srs(15))
    for mode in ConfigMode:
        assert session.objects_for(mode) == build_objects(session.ctx, mode)


@pytest.mark.parametrize("order", list(itertools.permutations(
    PER_CELL_MODES)), ids=lambda order: "-".join(m.value for m in order))
def test_session_opens_each_cell_once(monkeypatch, order):
    calls = _count_openings(monkeypatch)
    session = ExperimentSession(_small_config())
    assert calls == []  # construction opens nothing
    session.objects_for(ConfigMode.PMP)
    assert not any(calls)  # pmp's groups span g = 4 points
    dims = session.ctx.grid.dims
    for mode in order:
        session.objects_for(mode)
        opened = [cell for call in calls for cell in call]
        assert len(opened) == dims.rows * dims.extended_cols
    assert len(set(opened)) == len(opened)


def test_build_objects_opens_every_cell_on_each_call(monkeypatch):
    # a publisher builds afresh on every call; nothing is memoised on the
    # context
    calls = _count_openings(monkeypatch)
    cells = CTX.grid.dims.extended_cells
    first = build_objects(CTX, ConfigMode.BATCHED_SINGLE)
    assert sum(map(len, calls)) == cells
    assert build_objects(CTX, ConfigMode.BATCHED_SINGLE) == first
    assert sum(map(len, calls)) == 2 * cells


# sha256 over each arm's objects (sorted keys, each key followed by its
# object's length and bytes), keyed by (rows, cols, g, k) and then by arm:
# recorded at commit d72585e, before the per-cell proofs became one-point
# `open_groups` proofs. The vanilla and batched objects are the same bytes.
PINNED_OBJECTS_SHA256 = {
    (2, 16, 4, 1): {
        "vanilla":
            "008639225b768fcdb608c6c289dec4697c413bd91e1c7a3e732d5e71bf96b1d6",
        "batched":
            "008639225b768fcdb608c6c289dec4697c413bd91e1c7a3e732d5e71bf96b1d6",
        "grouped":
            "5a8931cbe784df2bbc3fd954d6c3b072bf7c18e48a9b3c4e9f5490a607d721f9",
        "pmp":
            "ff501adbc3eabd4d2e3c3b322931ee5de00ff2d0c37cff8ac79dd83c4db83693",
    },
    (3, 4, 4, 2): {
        "vanilla":
            "94b658cf22cb63ade4ebfb7cffcdb578c0f6167741571d7f40215b4193c32911",
        "batched":
            "94b658cf22cb63ade4ebfb7cffcdb578c0f6167741571d7f40215b4193c32911",
        "grouped":
            "70722de6f549a14f8f263db26df95331620f59c76f386afcbc669c7926be0672",
        "pmp":
            "49e042e80bbbd9444945dc415f745a4cdabb451939012249680c8d3bf9eaff25",
    },
    (4, 8, 2, 2): {
        "vanilla":
            "70b0a7493e945d83b787bb7d03adb0bc13c410f4ff3794313f079c8c48e003d6",
        "batched":
            "70b0a7493e945d83b787bb7d03adb0bc13c410f4ff3794313f079c8c48e003d6",
        "grouped":
            "b75aba6a18d11b08eb9a4dfc34c6fc97a84a157d8c42e930f111f7dc4c34e26c",
        "pmp":
            "5d3bd55741bd8ccd91eac204feb88af93740ac5ee3bf747d777bbeebc57312f4",
    },
    (2, 3, 3, 1): {
        "vanilla":
            "7d96bb8d9de09992ec6697606d228740e413c5416049eae45a458d7342d7bdf7",
        "batched":
            "7d96bb8d9de09992ec6697606d228740e413c5416049eae45a458d7342d7bdf7",
        "grouped":
            "5ad388d6fd2a224287b0dc9ebcda4d1bbbc827516c6f73754b6a42290df485d0",
        "pmp":
            "053f36e9499521255db72a3b2e0245a452360a2076867d36254ace1f83edcde3",
    },
    (4, 8, 4, 1): {
        "vanilla":
            "70b0a7493e945d83b787bb7d03adb0bc13c410f4ff3794313f079c8c48e003d6",
        "batched":
            "70b0a7493e945d83b787bb7d03adb0bc13c410f4ff3794313f079c8c48e003d6",
        "grouped":
            "05465fb217ae8411813a278fa3e8d2a764edc29c129d460ac63415db91ff8ec2",
        "pmp":
            "92c70f105080df644ae994e09a4a178236ce68052ed2a282a0d0663cdbc912da",
    },
}


def _objects_sha256(objects: dict) -> str:
    h = hashlib.sha256()
    for key in sorted(objects):
        h.update(key + len(objects[key]).to_bytes(4, "big") + objects[key])
    return h.hexdigest()


@pytest.mark.parametrize("shape", list(PINNED_OBJECTS_SHA256),
                         ids=lambda s: "{}x{}_g{}_k{}".format(*s))
def test_every_arm_objects_are_pinned(shape):
    rows, cols, g, k = shape
    # the SRS covers the extended row length, as a publisher's would
    ctx = _context(rows, g, k, cols=cols, degree=2 * cols - 1)
    assert {mode.value: _objects_sha256(build_objects(ctx, mode))
            for mode in ConfigMode} == PINNED_OBJECTS_SHA256[shape]


@pytest.mark.parametrize("k", [1, 2])
def test_pmp_opens_each_band_in_one_walk(monkeypatch, k):
    # the publish workload's grid shape (2 x 16, extension 2, groups of 4):
    # the groups of a band are the rows of one fixed-base walk, and so are
    # the one-point groups of a grid row, one per cell, for every per-cell
    # arm
    dims = GridDims(2, 16, 2)
    srs = shared_srs(31)
    rng = random.Random(81)
    data = bytes(rng.randrange(256) for _ in range(dims.data_capacity_bytes))
    ctx = BlockContext(b"publish-shape", build_grid(data, dims, srs), srs,
                       4, k)
    walks = record_calls(monkeypatch, kzg, "g1_fixed_base_msms",
                         lambda tables, rows: len(rows))
    objects = build_objects(ctx, ConfigMode.PMP)
    groups = dims.extended_cols // 4
    assert walks == [groups] * (dims.rows // k)
    assert len(objects) == groups * dims.rows // k
    for mode in PER_CELL_MODES:
        walks.clear()
        build_objects(ctx, mode)
        assert walks == [dims.extended_cols] * dims.rows


def test_grouped_proof_bytes_count_the_proofs_of_a_short_band():
    # 3 rows in bands of 2: objects of the last band hold g proofs, not g*k
    session = ExperimentSession(ExperimentConfig(rows=3, rows_per_group=2))
    row = session.run(ConfigMode.GROUPED_ONLY, 0.0, 1)
    assert row["proof_bytes"] == 48 * session.ctx.grid.dims.extended_cells


def test_experiment_zero_churn_full_hit_rate():
    cfg = _small_config()
    session = ExperimentSession(cfg)
    for mode in ConfigMode:
        row = session.run(mode, 0.0, 1)
        assert row["hit_rate"] == 1.0
        assert row["verify_failures"] == 0


def test_batched_and_vanilla_hit_rates_identical_per_seed():
    cfg = _small_config()
    session = ExperimentSession(cfg)
    for seed in (1, 2, 3):
        v = session.run(ConfigMode.VANILLA, 0.3, seed)
        b = session.run(ConfigMode.BATCHED_SINGLE, 0.3, seed)
        assert v["hit_rate"] == b["hit_rate"]


def test_config_parsing(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# comment\n"
        "rows = 2\n"
        "cols=4\n"
        "peer_capacity=none\n"
        "churn=0.0,0.25\n"
        "seeds=1-3,9\n"
        "modes=pmp,vanilla\n")
    cfg = ExperimentConfig.from_file(path)
    assert cfg.rows == 2 and cfg.cols == 4
    assert cfg.peer_capacity is None
    assert cfg.churn == (0.0, 0.25)
    assert cfg.seeds == (1, 2, 3, 9)
    assert cfg.modes == (ConfigMode.PMP, ConfigMode.VANILLA)

    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense\n")
    with pytest.raises(DasNetError):
        ExperimentConfig.from_file(bad)
    bad.write_text("unknown_key=1\n")
    with pytest.raises(DasNetError):
        ExperimentConfig.from_file(bad)
    with pytest.raises(DasNetError):
        ConfigMode.parse("bogus")
    for pairs in ({"seeds": "5-3"}, {"retry_budget": "-1"},
                  {"modes": "vanilla,vanilla"}, {"churn": "0.1,0.10"},
                  {"seeds": "1-3,2"}):
        with pytest.raises(DasNetError):
            ExperimentConfig.from_pairs(pairs)
    # the layout rule of a block context, on the default 16 extended
    # columns; the session's SRS always covers the group size
    for pairs, message in (
            ({"group_size": "0"}, "group size 0 must be positive"),
            ({"group_size": "3"},
             "group size 3 does not divide the 16 extended columns"),
            ({"rows_per_group": "0"}, "rows per group 0 must be positive")):
        with pytest.raises(GridError) as err:
            ExperimentConfig.from_pairs(pairs)
        assert str(err.value) == message


@pytest.mark.parametrize("text, seeds", [
    ("-5-3", tuple(range(-5, 4))), ("-5--3", (-5, -4, -3)), ("-1", (-1,)),
    ("-2, 4-5", (-2, 4, 5)),
])
def test_seed_ranges_may_start_below_zero(text, seeds):
    assert ExperimentConfig.from_pairs({"seeds": text}).seeds == seeds


@pytest.mark.parametrize("text", ["3--1", "-3--5"])
def test_seed_range_ending_below_its_start_is_rejected(text):
    with pytest.raises(DasNetError, match="empty seed range"):
        ExperimentConfig.from_pairs({"seeds": text})


def test_block_id_key_names_the_block_its_objects_are_keyed_under():
    shape = {"rows": "2", "cols": "4", "samples": "8"}
    default = ExperimentConfig.from_pairs(shape)
    cfg = ExperimentConfig.from_pairs(dict(shape, block_id="blk-\u00e9"))
    assert cfg.block_id == "blk-\u00e9".encode("utf-8")
    keys = [set(ExperimentSession(c).objects_for(ConfigMode.PMP))
            for c in (default, cfg)]
    assert len(keys[1]) == len(keys[0]) and not keys[0] & keys[1]


# ---------------------------------------------------------------------------
# Verification rounds

DAMAGES = ("proof", "proof-byte", "value")


def _damaged(mode, obj, how, i=0, shift=1):
    """`obj` with its i-th proof moved by shift*G ("proof") or one byte of
    it flipped ("proof-byte"), or its i-th value moved by shift ("value");
    pmp objects have one proof, per-cell objects one value."""
    if mode is ConfigMode.PMP:
        proof_at = 0
        value_at = PROOF_BYTES + GCELL_BLOCK_BYTES + 4 + SCALAR_BYTES * i
    else:
        header = GCELL_BLOCK_BYTES + 4 if mode is ConfigMode.GROUPED_ONLY \
            else 0
        proof_at = header + BASELINE_CELL_BYTES * i
        value_at = proof_at + PROOF_BYTES
    if how == "value":
        value = scalar_from_bytes(obj[value_at:value_at + SCALAR_BYTES])
        return obj[:value_at] \
            + scalar_to_bytes((value + shift) % SCALAR_MODULUS) \
            + obj[value_at + SCALAR_BYTES:]
    end = proof_at + PROOF_BYTES
    if how == "proof":
        proof = G1Point.from_bytes(obj[proof_at:end]) \
            + G1Point.generator() * shift
        return obj[:proof_at] + proof.to_bytes() + obj[end:]
    return obj[:end - 1] + bytes([obj[end - 1] ^ 0x01]) + obj[end:]


def _store_everywhere(dht, key, data):
    """Replace every replica of `key`."""
    for store in dht.stores:
        if key in store:
            store[key] = data


def _published_dht(ctx, mode):
    dht = SimDht(10, 3)
    publish(ctx, mode, dht, objects=_published(ctx, mode))
    return dht


def _warm(ctx):
    # every micro-domain has been seen, as in a session, so cold G2
    # charges cannot make one verification's counters differ from another's
    for md in partition_micro_domains(ctx.grid.row_domain, ctx.group_size):
        ctx.srs.vanishing_base(md)


def _alone(ctx, mode, coord, obj):
    """Verdict and counters of verifying the object on its own."""
    counters = OpCounters()
    try:
        ok = verify_object(ctx, mode, object_location(ctx, mode, coord), obj,
                           counters)
    except DECODE_ERRORS:
        ok = False
    return ok, counters


def _every_cell(ctx):
    dims = ctx.grid.dims
    return SamplingPlan(0, tuple(_cells(GCellBlock(0, dims.rows, 0,
                                                   dims.extended_cols))))


@pytest.mark.parametrize("how", DAMAGES)
@pytest.mark.parametrize("arm", [mode.value for mode in ConfigMode])
def test_round_fails_only_the_damaged_object(arm, how):
    mode = ConfigMode.parse(arm)
    _warm(CTX)
    dht = _published_dht(CTX, mode)
    bad = Coordinate(1, 5)
    bad_key = object_key(CTX, mode, bad)
    _store_everywhere(dht, bad_key,
                      _damaged(mode, _published(CTX, mode)[bad_key], how))
    plan = _every_cell(CTX)
    outcome = sample_and_verify(plan, mode, dht, CTX)
    expected = OpCounters()
    for coord in plan.coordinates:
        ok, used = _alone(CTX, mode, coord,
                          dht.get(object_key(CTX, mode, coord)))
        assert ok == (coord not in _cells(object_location(CTX, mode, bad)))
        assert outcome.statuses[coord] is \
            (Status.VERIFIED if ok else Status.VERIFY_FAILED), coord
        expected.merge(used)
    assert outcome.counters == expected


@pytest.mark.parametrize("how", ["proof", "value"])
def test_round_rejects_damage_that_cancels_in_a_plain_sum(how):
    # two cells of one column share z, so shifting their proofs (or
    # values) by +D and -D leaves the unweighted sum of their equations
    # intact
    mode = ConfigMode.VANILLA
    pair = (Coordinate(0, 3), Coordinate(1, 3))
    dht = _published_dht(CTX, mode)
    plain = PairingTerms(CTX.srs)
    for coord, shift in zip(pair, (5, -5)):
        key = object_key(CTX, mode, coord)
        data = _damaged(mode, _published(CTX, mode)[key], how, shift=shift)
        _store_everywhere(dht, key, data)
        plain.merge(object_terms(CTX, mode, object_location(CTX, mode, coord),
                                 data, weights=itertools.repeat(1)))
    assert plain.check()
    outcome = sample_and_verify(SamplingPlan(0, pair), mode, dht, CTX)
    assert outcome.count(Status.VERIFY_FAILED) == 2


@pytest.mark.parametrize("how", ["proof", "value"])
def test_round_rejects_damage_that_cancels_inside_a_grouped_object(how):
    # two cells of one column in one grouped object share z, so shifting
    # their proofs (or values) by +D and -D leaves the sum of the object's
    # openings intact when they share one weight; each opening has its own
    ctx = GEOMETRIES["k2_g2"]
    mode = ConfigMode.GROUPED_ONLY
    coord = Coordinate(2, 1)
    location = object_location(ctx, mode, coord)
    assert (location.n_rows, location.n_cols) == (2, 2)
    key = object_key(ctx, mode, coord)
    # cells 1 and 3 are the object's second column, on its two rows
    data = _damaged(mode, _published(ctx, mode)[key], how, 1, shift=5)
    data = _damaged(mode, data, how, 3, shift=-5)
    assert object_terms(ctx, mode, location, data,
                        weights=itertools.repeat(1)).check()
    assert not verify_object(ctx, mode, location, data)
    dht = _published_dht(ctx, mode)
    _store_everywhere(dht, key, data)
    plan = _every_cell(ctx)
    outcome = sample_and_verify(plan, mode, dht, ctx)
    assert {c for c, status in outcome.statuses.items()
            if status is Status.VERIFY_FAILED} == set(_cells(location))
    assert outcome.count(Status.VERIFIED) == len(plan.coordinates) - 4


# one band of k rows of degree 7, four groups of 4 columns, so that no
# proof is the identity
BANDS = {k: _context(rows=k, rows_per_group=k, cols=8) for k in (2, 3)}


def _assert_shift_rejected(ctx, row, col, delta):
    mode = ConfigMode.PMP
    location, obj = _honest_object(mode, ctx)
    other = _honest_object(mode, ctx, Coordinate(0, 4))
    bad = shift_between_rows(ctx, location, obj, row, col, delta)
    k, g = location.n_rows, location.n_cols
    honest = dasnet.group_transcript(ctx, location,
                                     MCell.from_bytes(obj).scalars)
    shifted = MCell.from_bytes(bad).scalars
    group = OpenedGroup(honest.commitments,
                        [shifted[i * g:(i + 1) * g] for i in range(k)],
                        honest.micro_domain)
    proof = G1Point.from_bytes(MCell.from_bytes(bad).proof)
    assert not proof.is_identity()
    # under the honest values' challenge the shift cancels; the shifted
    # values bring their own
    assert verify_shared(ctx.srs, group, proof, derive_gamma(honest))
    gamma = derive_gamma(dasnet.group_transcript(ctx, location, shifted))
    assert not verify_shared(ctx.srs, group, proof, gamma)
    assert not verify_object(ctx, mode, location, bad)
    verdicts = verify_round(ctx, mode, [(location, bad), other])
    assert [(ok, error) for ok, _, error in verdicts] == \
        [(False, None), (True, None)]


@pytest.mark.parametrize("k", sorted(BANDS))
def test_values_shifted_between_rows_are_rejected(k):
    _assert_shift_rejected(BANDS[k], 0, 1, 7)
    _assert_shift_rejected(BANDS[k], k - 2, 3, SCALAR_MODULUS - 1)


@given(st.sampled_from(sorted(BANDS)).flatmap(lambda k: st.tuples(
    st.just(k), st.integers(0, k - 2), st.integers(0, 3),
    st.integers(1, SCALAR_MODULUS - 1))))
@settings(max_examples=8)
def test_no_shift_between_rows_passes(case):
    k, row, col, delta = case
    _assert_shift_rejected(BANDS[k], row, col, delta)


def test_round_weights_are_pinned():
    # the first weight is 1 and every later one is 128 bits, never 0; the
    # weights are the same for the same round and change with any byte of
    # any object
    mode = ConfigMode.GROUPED_ONLY
    objects = [_honest_object(mode, coord=c)
               for c in (Coordinate(0, 0), Coordinate(1, 4))]
    count = 2 * CTX.group_size + 1

    def weights(objs):
        return list(itertools.islice(round_weights(CTX, mode, objs), count))

    first = weights(objects)
    assert first[0] == 1
    assert all(1 <= w < 1 << 128 for w in first[1:])
    assert len(set(first)) == count
    assert first == weights(list(objects))
    # the first 16 bytes of SHA-256(seed || u32 1) for this round; a change
    # to the tag, the seed's encoding or the draw shows here
    assert first[1] == int("d09f4474d73f9e3b07524244046273fa", 16)
    for i, (location, obj) in enumerate(objects):
        for b in range(len(obj)):
            flipped = obj[:b] + bytes([obj[b] ^ 0x80]) + obj[b + 1:]
            changed = list(objects)
            changed[i] = (location, flipped)
            again = weights(changed)
            assert again[0] == 1
            assert all(a != w for a, w in zip(again[1:], first[1:])), (i, b)


def test_honest_round_weights_the_proof_rows_with_128_bits(monkeypatch):
    # every row of the round check but g2's holds the weights' negations,
    # -w for each proof: once folded, no scalar there is 128 bits or
    # wider, so the MSM walks about half the digits there
    session = ExperimentSession(ExperimentConfig())
    ctx, cfg = session.ctx, session.cfg
    seen = []

    def logged_msms(points, rows):
        seen.append(rows)
        return g1_msms(points, rows)

    def logged_pairing(pairs):
        seen.append([base for _, base in pairs])
        return pairing_check(pairs)

    monkeypatch.setattr(kzg, "g1_msms", logged_msms)
    monkeypatch.setattr(kzg, "pairing_check", logged_pairing)
    plan = make_sampling_plan(1, ctx.grid.dims, cfg.samples)
    for mode in ConfigMode:
        dht = SimDht(cfg.peers, cfg.replication, cfg.peer_capacity)
        publish(ctx, mode, dht, objects=session.objects_for(mode))
        seen.clear()
        outcome = sample_and_verify(plan, mode, dht, ctx)
        assert outcome.count(Status.VERIFIED) == cfg.samples
        rows, bases = seen
        short = [row for row, base in zip(rows, bases)
                 if base != G2Point.generator()]
        assert len(short) == 1, mode
        folded = [min(k, SCALAR_MODULUS - k) for k in short[0]
                  if k % SCALAR_MODULUS]
        assert folded and max(folded) < 1 << 128, mode
        # the g2 row is full width: the fold alone does not shorten it
        g2_row = rows[bases.index(G2Point.generator())]
        assert max(min(k, SCALAR_MODULUS - k) for k in g2_row) >= 1 << 128


# A round's G2 bases (per-cell arms, pmp) by grid: every object of a
# power-of-two grid lands on g2 and [x]_2 or [x^g]_2, whatever its
# micro-domain; a consecutive-integer grid (width 6, g = 3) gives each
# of its two micro-domains its own [Z_md]_2 next to g2.
ROUND_BASES = [
    (CTX, (2, 2)),
    (GEOMETRIES["k2_g2"], (2, 2)),
    (_context(cols=3, group_size=3), (2, 3)),
]


def test_honest_round_makes_one_pairing_check(monkeypatch):
    calls = record_calls(monkeypatch, kzg, "pairing_check", len)
    for ctx, bases in ROUND_BASES:
        plan = _every_cell(ctx)
        for mode in ConfigMode:
            dht = _published_dht(ctx, mode)
            calls.clear()
            outcome = sample_and_verify(plan, mode, dht, ctx)
            assert outcome.count(Status.VERIFIED) == len(plan.coordinates)
            assert calls == [bases[mode is ConfigMode.PMP]], (ctx, mode)


def test_round_check_is_one_g1_msms_row_per_g2_base(monkeypatch):
    # SRS powers are plain G1 points in the round check: the G1 sides of
    # all bases are one `g1_msms` call over the distinct points with one
    # row per base, each point that some row needs gets one table, and no
    # fixed-base MSM runs
    events = []

    def logged(name, fn):
        def wrapper(*args):
            events.append((name, args))
            return fn(*args)
        return wrapper

    for name in ("g1_msms", "g1_fixed_base_msms", "pairing_check"):
        monkeypatch.setattr(kzg, name, logged(name, getattr(kzg, name)))
    monkeypatch.setattr(curve, "_affine_multiples",
                        logged("tables", curve._affine_multiples))
    check = PairingTerms.check
    inside = []

    def logged_check(self):
        events.clear()
        verdict = check(self)
        inside.append(list(events))
        return verdict

    monkeypatch.setattr(PairingTerms, "check", logged_check)
    for ctx, bases in ROUND_BASES:
        plan = _every_cell(ctx)
        for mode in ConfigMode:
            dht = _published_dht(ctx, mode)
            inside.clear()
            outcome = sample_and_verify(plan, mode, dht, ctx)
            assert outcome.count(Status.VERIFIED) == len(plan.coordinates)
            n = bases[mode is ConfigMode.PMP]
            assert [[name for name, _ in ev] for ev in inside] == \
                [["g1_msms", "tables", "pairing_check"]], (ctx, mode)
            (_, (points, rows)), (_, (group, raws, _)), (_, (pairs,)) = \
                inside[0]
            assert group is G1Point
            assert len(rows) == len(pairs) == n
            assert all(len(row) == len(points) for row in rows)
            assert len({id(pt) for pt in points}) == len(points)
            needed = [pt for j, pt in enumerate(points)
                      if any(row[j] % SCALAR_MODULUS for row in rows)
                      and not pt.is_identity()]
            assert [id(raw) for raw in raws] == [id(pt.raw) for pt in needed]
            # a proof has a nonzero scalar on g2 unless its micro-domain
            # is no coset (c = 0), where pmp needs more than two bases
            shared = [j for j in range(len(points))
                      if sum(bool(row[j]) for row in rows) > 1]
            assert bool(shared) == (n == 2), (ctx, mode)


@pytest.mark.parametrize("bad", [
    (Coordinate(0, 0),), (Coordinate(1, 2),), (Coordinate(1, 7),),
    (Coordinate(0, 1), Coordinate(1, 6)), "every",
])
def test_failed_round_checks_each_object_alone(monkeypatch, bad):
    calls = record_calls(monkeypatch, kzg, "pairing_check", len)
    _warm(CTX)
    plan = _every_cell(CTX)
    assert len(plan.coordinates) == 16
    if bad == "every":
        bad = plan.coordinates
    for mode in ConfigMode:
        dht = _published_dht(CTX, mode)
        failed = set()
        for coord in bad:
            key = object_key(CTX, mode, coord)
            _store_everywhere(dht, key, _damaged(
                mode, _published(CTX, mode)[key], "value"))
            failed.update(_cells(object_location(CTX, mode, coord)))
        calls.clear()
        outcome = sample_and_verify(plan, mode, dht, CTX)
        # the round, then one check per object
        assert len(calls) == 1 + len(object_regions(CTX, mode)), mode
        expected = OpCounters()
        for coord in plan.coordinates:
            ok, used = _alone(CTX, mode, coord,
                              dht.get(object_key(CTX, mode, coord)))
            assert ok == (coord not in failed), (mode, coord)
            assert outcome.statuses[coord] is \
                (Status.VERIFIED if ok else Status.VERIFY_FAILED), \
                (mode, coord)
            expected.merge(used)
        assert outcome.counters == expected, mode


def _counted_reductions(monkeypatch):
    """Locations `object_terms` is called for, in call order."""
    return record_calls(monkeypatch, dasnet, "object_terms",
                        lambda ctx, mode, location, *rest, **kw: location)


def test_honest_round_reduces_each_object_once(monkeypatch):
    reduced = _counted_reductions(monkeypatch)
    plan = _every_cell(CTX)
    for mode in ConfigMode:
        dht = _published_dht(CTX, mode)
        reduced.clear()
        outcome = sample_and_verify(plan, mode, dht, CTX)
        assert outcome.count(Status.VERIFIED) == len(plan.coordinates)
        assert sorted(map(repr, reduced)) == \
            sorted(map(repr, object_regions(CTX, mode))), mode


def test_failed_round_reduces_each_decodable_object_twice(monkeypatch):
    reduced = _counted_reductions(monkeypatch)
    plan = _every_cell(CTX)
    value_at, cut_at = Coordinate(0, 1), Coordinate(1, 6)
    for mode in ConfigMode:
        dht = _published_dht(CTX, mode)
        for coord in (value_at, cut_at):
            key = object_key(CTX, mode, coord)
            obj = _published(CTX, mode)[key]
            _store_everywhere(dht, key, _damaged(mode, obj, "value")
                              if coord == value_at else obj[:-1])
        reduced.clear()
        outcome = sample_and_verify(plan, mode, dht, CTX)
        damaged, truncated = (object_location(CTX, mode, coord)
                              for coord in (value_at, cut_at))
        failed = set(_cells(damaged)) | set(_cells(truncated))
        assert {coord for coord, status in outcome.statuses.items()
                if status is Status.VERIFY_FAILED} == failed, mode
        for region in object_regions(CTX, mode):
            assert reduced.count(region) == \
                (1 if region == truncated else 2), (mode, region)


def _recorded_weight_streams(monkeypatch):
    """The objects of each `round_weights` stream drawn, in call order."""
    return record_calls(monkeypatch, dasnet, "round_weights",
                        lambda ctx, mode, objects: list(objects))


def test_a_lone_object_is_a_round_of_one(monkeypatch):
    streams = _recorded_weight_streams(monkeypatch)
    for mode in ConfigMode:
        location, obj = _honest_object(mode)
        streams.clear()
        assert verify_object(CTX, mode, location, obj)
        assert streams == [[(location, obj)]]


def test_round_returns_each_decode_error():
    for mode in ConfigMode:
        honest = _honest_object(mode)
        location, obj = _honest_object(mode, coord=Coordinate(1, 6))
        objects = [honest, (location, obj[:-1])]
        if mode in GROUPED_MODES:
            # the honest object's bytes, stored for another group
            objects.append((location, honest[1]))
        verdicts = verify_round(CTX, mode, objects)
        assert [ok for ok, _, _ in verdicts] == \
            [True] + [False] * (len(objects) - 1), mode
        errors = [error for _, _, error in verdicts]
        assert errors[0] is None, mode
        assert isinstance(errors[1], wire.TruncatedInput), mode
        if mode in GROUPED_MODES:
            assert type(errors[2]) is WireError, mode
            assert "stored for" in str(errors[2]), mode


def test_failed_round_draws_its_stream_then_one_per_object(monkeypatch):
    streams = _recorded_weight_streams(monkeypatch)
    plan = _every_cell(CTX)
    bad = Coordinate(1, 2)
    for mode in ConfigMode:
        dht = _published_dht(CTX, mode)
        key = object_key(CTX, mode, bad)
        _store_everywhere(dht, key, _damaged(
            mode, _published(CTX, mode)[key], "value"))
        streams.clear()
        outcome = sample_and_verify(plan, mode, dht, CTX)
        assert outcome.count(Status.VERIFY_FAILED) == \
            len(_cells(object_location(CTX, mode, bad))), mode
        # the round's stream over all n objects, then n rounds of one
        assert len(streams[0]) == len(object_regions(CTX, mode)), mode
        assert streams[1:] == [[lone] for lone in streams[0]], mode


def test_round_holds_no_terms_of_a_merged_object(monkeypatch):
    # each object's terms are merged into the round's sum as soon as they
    # are reduced; by the round's check none of them is alive
    alive = []
    real_terms = dasnet.object_terms

    def tracked(*args, **kwargs):
        terms = real_terms(*args, **kwargs)
        alive.append(weakref.ref(terms))
        return terms

    real_check = PairingTerms.check
    live_at_check = []

    def check(self):
        live_at_check.append(sum(ref() is not None for ref in alive))
        return real_check(self)

    monkeypatch.setattr(dasnet, "object_terms", tracked)
    monkeypatch.setattr(PairingTerms, "check", check)
    plan = _every_cell(CTX)
    for mode in ConfigMode:
        alive.clear()
        live_at_check.clear()
        outcome = sample_and_verify(plan, mode, _published_dht(CTX, mode),
                                    CTX)
        assert outcome.count(Status.VERIFIED) == len(plan.coordinates)
        assert len(alive) == len(object_regions(CTX, mode))
        assert live_at_check == [0], mode


def test_round_with_nothing_decodable_makes_no_pairing_call(monkeypatch):
    calls = record_calls(monkeypatch, kzg, "pairing_check", len)
    plan = _every_cell(CTX)
    for mode in ConfigMode:
        dht = _published_dht(CTX, mode)
        for key, obj in _published(CTX, mode).items():
            _store_everywhere(dht, key, obj[:-1])
        calls.clear()
        outcome = sample_and_verify(plan, mode, dht, CTX)
        assert outcome.count(Status.VERIFY_FAILED) == len(plan.coordinates)
        assert calls == [], mode


def test_round_of_cache_hits_makes_no_pairing_call(monkeypatch):
    plan = _every_cell(CTX)
    for mode in ConfigMode:
        dht = _published_dht(CTX, mode)
        cache = VerificationCache()
        first = sample_and_verify(plan, mode, dht, CTX, cache=cache)
        with monkeypatch.context() as patched:
            patched.setattr(dasnet, "object_terms", None)
            patched.setattr(kzg, "pairing_check", None)
            again = sample_and_verify(plan, mode, dht, CTX, cache=cache)
        assert again.statuses == first.statuses
        assert again.counters == first.counters


@pytest.mark.parametrize("mode", list(ConfigMode))
def test_cache_serves_only_the_context_it_was_first_used_with(mode):
    # same SRS and block id, other data: only the header tells them apart,
    # and the cache key holds nothing of the header
    other = _context(seed=81)
    plan = make_sampling_plan(7, CTX.grid.dims, 4)
    dht = _published_dht(CTX, mode)
    cache = VerificationCache()
    assert sample_and_verify(plan, mode, dht, CTX, cache=cache).count(
        Status.VERIFIED) == 4
    assert sample_and_verify(plan, mode, dht, other).count(
        Status.VERIFIED) == 0
    with pytest.raises(DasNetError, match="another block context"):
        sample_and_verify(plan, mode, dht, other, cache=cache)


def _oracle_verdict(ctx, mode, coord, obj):
    """The object's verdict from the unbatched per-object oracles."""
    location = object_location(ctx, mode, coord)
    band = range(location.rows_start, location.rows_end)
    try:
        if mode is ConfigMode.PMP:
            mcell = MCell.from_bytes(obj)
            if mcell.block != location:
                return False
            g = location.n_cols
            transcript = dasnet.group_transcript(ctx, location,
                                                 mcell.scalars)
            group = OpenedGroup(
                transcript.commitments,
                [mcell.scalars[i * g:(i + 1) * g] for i in range(len(band))],
                transcript.micro_domain)
            return oracles.verify_shared(ctx.srs, group,
                                         G1Point.from_bytes(mcell.proof),
                                         derive_gamma(transcript))
        if mode is ConfigMode.GROUPED_ONLY:
            grouped = GroupedCells.from_bytes(obj)
            if grouped.block != location:
                return False
            cells = grouped.cells
        else:
            cells = [BaselineCell.from_bytes(obj)]
        zs = ctx.grid.row_domain.points[location.cols_start:location.cols_end]
        openings = [(ctx.commitments[r], z, scalar_from_bytes(cell.data),
                     G1Point.from_bytes(cell.proof))
                    for (r, z), cell in zip(((r, z) for r in band
                                             for z in zs), cells)]
    except DECODE_ERRORS:
        return False
    if mode is ConfigMode.VANILLA:
        return oracles.verify_single(ctx.srs, *openings[0])
    return oracles.verify_batch_independent(ctx.srs, openings, TEST_RHO)


@pytest.mark.parametrize("geometry", ["default", "k2_g2"])
def test_round_verdicts_match_the_oracles(geometry):
    ctx = GEOMETRIES[geometry]
    rng = random.Random(f"round|{geometry}")
    damages = ("truncated", "foreign") + DAMAGES
    for mode in ConfigMode:
        published = _published(ctx, mode)
        dht = _published_dht(ctx, mode)
        for key, obj in published.items():
            how = "honest" if rng.random() < 0.6 else rng.choice(damages)
            if how == "truncated":
                obj = obj[:-1]
            elif how == "foreign":
                obj = published[rng.choice(list(published))]
            elif how != "honest":
                cells = ctx.group_size * ctx.rows_per_group \
                    if mode in GROUPED_MODES else 1
                obj = _damaged(mode, obj, how, rng.randrange(cells),
                               rng.randrange(1, 1 << 64))
            _store_everywhere(dht, key, obj)
        plan = make_sampling_plan(rng.randrange(1 << 30), ctx.grid.dims, 8)
        outcome = sample_and_verify(plan, mode, dht, ctx)
        for coord in plan.coordinates:
            ok = _oracle_verdict(ctx, mode, coord,
                                 dht.get(object_key(ctx, mode, coord)))
            assert outcome.statuses[coord] is \
                (Status.VERIFIED if ok else Status.VERIFY_FAILED), \
                (mode, coord)
