"""In-process DAS workflow simulation.

A replicated key->object store stands in for the DHT: puts place replicas
on rendezvous-ranked peers (optionally capacity-limited), churn kills a
seed-determined fraction of peers, and a light client samples coordinates,
fetches the covering objects with a retry budget, and cryptographically
verifies every fetched object. Four publication layouts are supported,
matching the ablation arms: per-cell objects (vanilla), per-cell objects
with batch verification, grouped transport without aggregation, and
grouped transport with one aggregated proof per group.
"""

from __future__ import annotations

import copy
import enum
import hashlib
import itertools
import random
from dataclasses import dataclass, field as dc_field, fields
from decimal import Decimal

from .curve import G1Point
from .field_poly import EvaluationDomain, scalar_to_bytes
from .kzg import (
    SRS, OpCounters, PairingTerms, batch_independent_terms, gen, single_terms,
)
from .multiproof import (
    OpenedGroup, Transcript, derive_gamma, open_groups, shared_terms,
)
from .grid import (
    Coordinate, DataGrid, GridDims, build_grid, check_layout, iter_groups,
    partition_micro_domains,
)
from .wire import (
    DECODE_ERRORS, PROOF_BYTES, BaselineCell, GCellBlock, GroupedCells, MCell,
    WireError,
)


class DasNetError(ValueError):
    pass


class ConfigMode(enum.Enum):
    VANILLA = "vanilla"
    BATCHED_SINGLE = "batched"
    GROUPED_ONLY = "grouped"
    PMP = "pmp"

    @staticmethod
    def parse(name: str) -> "ConfigMode":
        for mode in ConfigMode:
            if mode.value == name.strip().lower():
                return mode
        raise DasNetError(f"unknown mode {name!r}")


class Status(enum.Enum):
    VERIFIED = "verified"
    FETCH_FAILED = "fetch_failed"
    VERIFY_FAILED = "verify_failed"


GROUPED_MODES = (ConfigMode.GROUPED_ONLY, ConfigMode.PMP)


# ---------------------------------------------------------------------------
# Simulated DHT

class SimDht:
    """Replicated key->bytes store with per-peer liveness flags.

    Replica placement is rendezvous hashing: each `put` ranks the peers
    by SHA-256(key || peer as 4 big-endian bytes) and stores on the top
    `replication_factor`, recorded per key in `replicas`; liveness is the
    separate `alive` list. An optional per-peer capacity models put-rate
    pressure: once a peer is full, later puts land on fewer than
    `replication_factor` replicas, so placement then depends on put order
    (`publish` puts in sorted key order).
    """

    def __init__(self, n_peers: int, replication_factor: int = 5,
                 peer_capacity: int | None = None):
        if n_peers < 1 or replication_factor < 1:
            raise DasNetError("need at least one peer and one replica")
        self.n_peers = n_peers
        self.replication_factor = replication_factor
        self.peer_capacity = peer_capacity
        self.alive = [True] * n_peers
        self.stores = [dict() for _ in range(n_peers)]
        self.replicas = {}  # key -> peers holding it, in rendezvous order

    def put(self, key: bytes, obj: bytes) -> int:
        """Store on up to replication_factor rendezvous peers; returns the
        number of replicas actually placed.

        Capacity pressure only sheds extra replicas: the publisher keeps
        trying down the rendezvous ranking until a peer accepts, and when
        every peer is full the object goes to the top-ranked peer beyond
        its capacity, so every stored object has one replica or more.
        """
        ranked = sorted(range(self.n_peers), key=lambda p: hashlib.sha256(
            key + p.to_bytes(4, "big")).digest())
        holders = []
        for peer in ranked:
            if len(holders) == self.replication_factor:
                break
            store = self.stores[peer]
            if self.peer_capacity is not None and \
                    key not in store and len(store) >= self.peer_capacity:
                continue
            store[key] = obj
            holders.append(peer)
        if not holders:
            self.stores[ranked[0]][key] = obj
            holders.append(ranked[0])
        self.replicas[key] = tuple(holders)
        return len(holders)

    def with_fresh_liveness(self) -> "SimDht":
        """A DHT sharing this one's placement, with every peer alive."""
        dht = copy.copy(self)
        dht.alive = [True] * self.n_peers
        return dht

    def get(self, key: bytes):
        """Object bytes iff at least one live replica holds the key."""
        for peer in self.replicas.get(key, ()):
            if self.alive[peer]:
                return self.stores[peer][key]
        return None

    def get_with_retries(self, key: bytes, retry_budget: int):
        """Try replicas in lookup order: one initial attempt plus up to
        retry_budget retries. Returns (object or None, attempts_used)."""
        attempts = 0
        for peer in self.replicas.get(key, ())[: retry_budget + 1]:
            attempts += 1
            if self.alive[peer]:
                return self.stores[peer][key], attempts
        return None, max(attempts, 1)

    def kill_fraction(self, churn: float, seed: int) -> int:
        """Kill ceil(churn * peers) peers, chosen as a prefix of a
        seed-determined permutation (monotone in churn for a fixed seed).

        churn is taken as the decimal it prints as, so 0.14 of 50 peers
        kills 7, where the float product 0.14 * 50 would round up to 8."""
        return self.kill_prefix(churn_order(self.n_peers, seed), churn)

    def kill_prefix(self, order, churn: float) -> int:
        """Kill the first ceil(churn * peers) peers of `order`, a
        `churn_order`, counting churn as in `kill_fraction`."""
        if not 0 <= churn < 1:
            raise DasNetError("churn must lie in [0, 1)")
        num, den = Decimal(str(churn)).as_integer_ratio()
        n_dead = -(-num * self.n_peers // den)
        for peer in order[:n_dead]:
            self.alive[peer] = False
        return n_dead


def churn_order(n_peers: int, seed: int) -> tuple:
    """The seed's permutation of the peers, killed as a prefix."""
    # string seeds feed random.Random's deterministic path; tuple or
    # other hashed seeds would vary with per-process hash randomization
    order = list(range(n_peers))
    random.Random(f"churn|{seed}").shuffle(order)
    return tuple(order)


# ---------------------------------------------------------------------------
# Block context and publication

@dataclass(frozen=True)
class BlockContext:
    """Everything a client needs out of band: the header commitments plus
    the public grid geometry and grouping parameters (`check_layout`)."""

    block_id: bytes
    grid: DataGrid
    srs: SRS
    group_size: int
    rows_per_group: int = 1
    # (grouped, row, col) -> (object region, DHT key), filled by _locate
    _locations: dict = dc_field(default_factory=dict, init=False,
                                repr=False, compare=False)

    def __post_init__(self):
        check_layout(self.grid.dims, self.srs.degree_bound, self.group_size,
                     self.rows_per_group)

    @property
    def commitments(self):
        return self.grid.row_commitments


def cell_key(block_id: bytes, row: int, col: int) -> bytes:
    return hashlib.sha256(
        block_id + b"|cell|" + row.to_bytes(4, "big")
        + col.to_bytes(4, "big")).digest()


def _object_shape(ctx: BlockContext, mode: ConfigMode):
    """(columns, rows) of one object: a cell, or a g x k group."""
    if mode in GROUPED_MODES:
        return ctx.group_size, ctx.rows_per_group
    return 1, 1


def object_regions(ctx: BlockContext, mode: ConfigMode) -> list:
    """Regions of the arm's stored objects in publication (row-major) order."""
    g, k = _object_shape(ctx, mode)
    return [GCellBlock(band.start, band.stop, md.offset, md.offset + md.size)
            for _, band, md in iter_groups(ctx.grid, g, k)]


def object_location(ctx: BlockContext, mode: ConfigMode,
                    coord: Coordinate) -> GCellBlock:
    """Region of the object that covers `coord`: the cell itself for the
    per-cell arms, its whole group for the grouped ones."""
    return _locate(ctx, mode, coord)[0]


def _locate(ctx: BlockContext, mode: ConfigMode, coord: Coordinate):
    """(`object_location`, `object_key`) of `coord`. Both are worked out,
    and bounds-checked, once per coordinate and object shape and kept in
    the context, as the light client asks for them on every sample."""
    grouped = mode in GROUPED_MODES
    memo_key = (grouped, coord.row, coord.col)
    located = ctx._locations.get(memo_key)
    if located is None:
        ctx.grid.check_bounds(coord)
        g, k = _object_shape(ctx, mode)
        row, col = coord.row - coord.row % k, coord.col - coord.col % g
        located = ctx._locations[memo_key] = (
            GCellBlock(row, min(row + k, ctx.grid.dims.rows), col, col + g),
            object_key(ctx, mode, coord))
    return located


def object_key(ctx: BlockContext, mode: ConfigMode,
               coord: Coordinate) -> bytes:
    """DHT key of the object that covers `coord` (not bounds-checked)."""
    if mode not in GROUPED_MODES:
        return cell_key(ctx.block_id, coord.row, coord.col)
    g, k = _object_shape(ctx, mode)
    return hashlib.sha256(
        ctx.block_id + b"|group|" + (coord.row // k).to_bytes(4, "big")
        + (coord.col // g).to_bytes(4, "big")).digest()


def group_transcript(ctx: BlockContext, region: GCellBlock,
                     values) -> Transcript:
    """Transcript of a grouped object, with its commitments and domain and
    its claimed values, one per cell in row-major order."""
    band = range(region.rows_start, region.rows_end)
    return Transcript(
        srs_id=ctx.srs.srs_id,
        commitments=tuple(ctx.commitments[r] for r in band),
        micro_domain=EvaluationDomain(
            ctx.grid.row_domain.points[region.cols_start:region.cols_end],
            offset=region.cols_start),
        coords=tuple((r, c) for r in band
                     for c in range(region.cols_start, region.cols_end)),
        gcell_block=region,
        values=tuple(values),
    )


@dataclass
class PublishResult:
    object_count: int
    proof_bytes: int
    object_bytes: int


def _open_bands(ctx: BlockContext, mode: ConfigMode):
    """(region, values, proof) of each of the arm's object regions, the
    values in row-major order. A row band's regions are one `open_groups`
    call, so their proofs share one walk over the SRS tables. A pmp
    group takes its challenge from its transcript; a cell's proof, on a
    1 x 1 region, is its row alone on the cell's one-point micro-domain,
    with gamma 1."""
    grid = ctx.grid
    for start, regions in itertools.groupby(
            object_regions(ctx, mode), key=lambda region: region.rows_start):
        regions = list(regions)
        band = range(start, regions[0].rows_end)
        polys = [grid.row_polys[r] for r in band]
        claims, groups = [], []
        for region in regions:
            values = tuple(grid.cells[r][c] for r in band
                           for c in range(region.cols_start, region.cols_end))
            transcript = group_transcript(ctx, region, values)
            gamma = derive_gamma(transcript) if mode is ConfigMode.PMP else 1
            claims.append((region, values))
            groups.append((polys, transcript.micro_domain, gamma))
        for (region, values), proof in zip(claims,
                                           open_groups(ctx.srs, groups)):
            yield region, values, proof


def build_objects(ctx: BlockContext, mode: ConfigMode,
                  cells: dict | None = None) -> dict:
    """The key->bytes object set one fat client would publish.

    The per-cell arms (vanilla, batched, grouped) take each cell's
    BaselineCell from `cells`, keyed by (row, col). An empty dict is
    filled with every cell's opening on first use, so callers that share
    one dict open each cell once (`ExperimentSession`); with None, every
    cell is opened afresh. pmp opens its own groups and reads no cells.
    """
    objects = {}
    if mode is ConfigMode.PMP:
        for region, values, proof in _open_bands(ctx, mode):
            key = object_key(ctx, mode,
                             Coordinate(region.rows_start, region.cols_start))
            objects[key] = MCell(proof.to_bytes(), region, values).to_bytes()
        return objects
    if cells is None:
        cells = {}
    if not cells:
        for region, values, proof in _open_bands(ctx, ConfigMode.VANILLA):
            cells[region.rows_start, region.cols_start] = BaselineCell(
                proof.to_bytes(), scalar_to_bytes(values[0]))
    for region in object_regions(ctx, mode):
        key = object_key(ctx, mode,
                         Coordinate(region.rows_start, region.cols_start))
        if mode is ConfigMode.GROUPED_ONLY:
            objects[key] = GroupedCells(region, [
                cells[r, c] for r in range(region.rows_start, region.rows_end)
                for c in range(region.cols_start, region.cols_end)]).to_bytes()
        else:
            objects[key] = cells[region.rows_start,
                                 region.cols_start].to_bytes()
    return objects


def publish(ctx: BlockContext, mode: ConfigMode, dht: SimDht,
            objects: dict | None = None) -> PublishResult:
    """Republish the block's retrieval objects into the DHT."""
    if objects is None:
        objects = build_objects(ctx, mode)
    proofs = len(objects)
    if mode is ConfigMode.GROUPED_ONLY:
        proofs = sum(len(GroupedCells.from_bytes(obj).cells)
                     for obj in objects.values())
    for key in sorted(objects):
        dht.put(key, objects[key])
    return PublishResult(
        object_count=len(objects),
        proof_bytes=PROOF_BYTES * proofs,
        object_bytes=sum(len(v) for v in objects.values()),
    )


# ---------------------------------------------------------------------------
# Sampling and verification

@dataclass(frozen=True)
class SamplingPlan:
    seed: int
    coordinates: tuple  # distinct Coordinate, uniform without replacement

    @property
    def sample_count(self) -> int:
        return len(self.coordinates)


def make_sampling_plan(seed: int, dims, s: int) -> SamplingPlan:
    total = dims.extended_cells
    if not 0 <= s <= total:
        raise DasNetError("sample count must lie between 0 and the cell "
                          "count")
    rng = random.Random(f"sample|{seed}")
    picks = rng.sample(range(total), s)
    coords = tuple(Coordinate(i // dims.extended_cols, i % dims.extended_cols)
                   for i in picks)
    return SamplingPlan(seed=seed, coordinates=coords)


def effective_samples(s: int, g: int) -> int:
    """Conservative lower bound on independent availability events when
    samples may correlate perfectly inside groups of size g."""
    if g < 1:
        raise DasNetError("group size must be positive")
    if s < 0:
        raise DasNetError("sample count must be non-negative")
    return s // g


def required_samples(target: int, g: int) -> int:
    """Coordinate budget guaranteeing `target` independent events under
    the worst-case-correlation model."""
    if target < 0:
        raise DasNetError("target must be non-negative")
    if g < 1:
        raise DasNetError("group size must be positive")
    return target * g


@dataclass
class RetrievalOutcome:
    """What one sampling round saw: each planned coordinate's status, in
    plan order, and the operation counters its verification charged."""

    statuses: dict  # Coordinate -> Status
    counters: OpCounters = dc_field(default_factory=OpCounters)

    @property
    def sample_count(self) -> int:
        return len(self.statuses)

    def count(self, status: Status) -> int:
        return sum(1 for s in self.statuses.values() if s is status)

    @property
    def hit_rate(self) -> float:
        n = len(self.statuses)
        return (n - self.count(Status.FETCH_FAILED)) / n if n else 1.0


class VerificationCache:
    """Memo of verification outcomes for one block, keyed on (arm, DHT
    key, object bytes).

    The DHT serves immutable byte strings, so verifying the same bytes
    against the same header twice is pure recomputation; the cache stores
    the decision together with the operation counters of the original
    verification so metrics stay independent of cache warmth. Its keys
    hold a reference to the bytes the DHT serves, not a copy. A verdict
    holds only for the header it was checked against, and the cache key
    holds nothing of the header, so a cache serves the one BlockContext
    it is first used with (`bind`).
    """

    def __init__(self):
        self._memo = {}
        self._ctx = None

    def bind(self, ctx: BlockContext) -> None:
        """Tie the cache to `ctx` on first use; refuse any other context."""
        if self._ctx is None:
            self._ctx = ctx
        elif self._ctx is not ctx:
            raise DasNetError("verification cache is bound to another "
                              "block context")

    def __contains__(self, cache_key) -> bool:
        return cache_key in self._memo

    def check(self, cache_key, verify_fn):
        hit = self._memo.get(cache_key)
        if hit is None:
            counters = OpCounters()
            ok = verify_fn(counters)
            hit = (ok, counters)
            self._memo[cache_key] = hit
        return hit


def object_terms(ctx: BlockContext, mode: ConfigMode, location: GCellBlock,
                 obj: bytes, counters: OpCounters | None = None, *,
                 weights) -> PairingTerms:
    """Pairing terms of the object stored for `location`, the region
    `object_location` gives.

    Grouped objects are verified against the entire transported
    micro-domain, regardless of which coordinate inside it was sampled.
    Malformed bytes, or a well-formed object of another region, raise
    one of DECODE_ERRORS; a location that is not an object of this block
    raises GridError or DasNetError.

    Each quotient check of the object (its one check for vanilla and
    pmp, one per opening for batched and grouped) takes the next weight
    of the iterator `weights`, a round's `round_weights`.
    """
    corner = Coordinate(location.rows_start, location.cols_start)
    if location != object_location(ctx, mode, corner):
        raise DasNetError(f"{location} is not a {mode.value} object region")
    band = range(location.rows_start, location.rows_end)
    if mode in GROUPED_MODES:
        decoded = (MCell if mode is ConfigMode.PMP
                   else GroupedCells).from_bytes(obj)
        if decoded.block != location:
            raise WireError(f"object of {decoded.block} stored for "
                            f"{location}")
    if mode is ConfigMode.PMP:
        g = location.n_cols
        values = [decoded.scalars[i * g:(i + 1) * g] for i in range(len(band))]
        transcript = group_transcript(ctx, location, decoded.scalars)
        group = OpenedGroup(transcript.commitments, values,
                            transcript.micro_domain)
        proof = G1Point.from_bytes(decoded.proof)
        return shared_terms(ctx.srs, group, proof, derive_gamma(transcript),
                            counters, next(weights))
    cells = decoded.cells if mode is ConfigMode.GROUPED_ONLY \
        else [BaselineCell.from_bytes(obj)]
    zs = ctx.grid.row_domain.points[location.cols_start:location.cols_end]
    points = ((r, z) for r in band for z in zs)
    openings = [(ctx.commitments[r], z, cell.value,
                 G1Point.from_bytes(cell.proof))
                for (r, z), cell in zip(points, cells, strict=True)]
    if mode is ConfigMode.VANILLA:
        return single_terms(ctx.srs, *openings[0], counters, next(weights))
    return batch_independent_terms(ctx.srs, openings, weights, counters)


def verify_object(ctx: BlockContext, mode: ConfigMode, location: GCellBlock,
                  obj: bytes, counters: OpCounters | None = None) -> bool:
    """Full cryptographic verification of one object (see `object_terms`):
    a lone object is a round of one, weighted by `round_weights` over its
    own (location, bytes) pair."""
    weights = round_weights(ctx, mode, [(location, obj)])
    return object_terms(ctx, mode, location, obj, counters,
                        weights=weights).check()


ROUND_CHALLENGE_TAG = b"PMP-DAS-round-v2"
# bits of every round weight after the first; 2^-128 soundness (see
# `verify_round`)
ROUND_WEIGHT_BITS = 128


def _prefixed(data: bytes) -> bytes:
    return len(data).to_bytes(4, "big") + data


def round_weights(ctx: BlockContext, mode: ConfigMode, objects):
    """The endless Fiat-Shamir weights of one verification round over its
    (location, bytes) objects, one per quotient check: 1, then for
    j = 1, 2, .. the first 128 bits of SHA-256(seed || u32 j), never 0.

    The seed binds the SRS, the block and its header commitments, the
    arm and every object's DHT key (`object_key` of its location's
    corner) and bytes in order.
    """
    parts = [ROUND_CHALLENGE_TAG, ctx.srs.srs_id, _prefixed(ctx.block_id),
             _prefixed(mode.value.encode()),
             len(ctx.commitments).to_bytes(4, "big")]
    parts += (cm.to_bytes() for cm in ctx.commitments)
    parts.append(len(objects).to_bytes(4, "big"))
    for location, obj in objects:
        _, key = _locate(ctx, mode, Coordinate(location.rows_start,
                                               location.cols_start))
        parts += (_prefixed(key), _prefixed(obj))
    seed = hashlib.sha256(b"".join(parts)).digest()
    yield 1
    j = 1
    while True:
        digest = hashlib.sha256(seed + j.to_bytes(4, "big")).digest()
        yield int.from_bytes(digest[:ROUND_WEIGHT_BITS // 8], "big") or 1
        j += 1


def verify_round(ctx: BlockContext, mode: ConfigMode, objects) -> list:
    """(verdict, OpCounters, decode error or None) of each object, given
    as (location, bytes) pairs, all checked with one pairing check when
    all hold.

    Each object is reduced to its pairing terms, with the counters its
    own verification charges, and merged at once into one sum in which
    every quotient check carries its own weight from `round_weights`;
    undecodable bytes or a foreign region fail that object alone, and
    the DECODE_ERRORS exception that failed it is returned with it. The
    points are decoded into the prime-order subgroup, so a false check
    survives the sum only if its 128-bit weight hits one value: with
    probability at most 2^-128 (the small-exponent test). Unless every
    object checks, the sum fails but with that probability; then
    `verify_object` decides each decodable object again as a round of
    one, charging nothing more, so a failed round of n decodable objects
    costs n + 1 checks.
    """
    weights = round_weights(ctx, mode, objects)
    batch = PairingTerms(ctx.srs)
    verdicts = []
    for location, obj in objects:
        counters = OpCounters()
        try:
            batch.merge(object_terms(ctx, mode, location, obj, counters,
                                     weights=weights))
        except DECODE_ERRORS as exc:
            # malformed bytes from an untrusted store fail verification
            verdicts.append((False, counters, exc))
            continue
        verdicts.append((True, counters, None))
    if not any(ok for ok, _, _ in verdicts) or batch.check():
        return verdicts
    return [(ok and verify_object(ctx, mode, location, obj), counters, error)
            for (ok, counters, error), (location, obj)
            in zip(verdicts, objects)]


def _replay(ok: bool, used: OpCounters):
    """A cache miss's verify_fn: the round's verdict and its counters."""
    def verify(counters):
        counters.merge(used)
        return ok

    return verify


def sample_and_verify(plan: SamplingPlan, mode: ConfigMode, dht: SimDht,
                      ctx: BlockContext, retry_budget: int = 3,
                      cache: VerificationCache | None = None) -> RetrievalOutcome:
    """Fetch every planned coordinate, then verify the (location, bytes)
    pairs the cache has not seen in one round (`verify_round`); fetch and
    verification failures are recorded, a decode error as VERIFY_FAILED
    like a pairing reject, and internal errors raised."""
    if cache is None:
        cache = VerificationCache()
    cache.bind(ctx)
    fetched = []  # (coordinate, cache key, or None for a failed fetch)
    misses = {}  # cache key -> (location, bytes), in first-seen order
    arm = mode.value  # hashes in C, unlike the enum member
    for coord in plan.coordinates:
        location, key = _locate(ctx, mode, coord)
        obj, _ = dht.get_with_retries(key, retry_budget)
        if obj is None:
            fetched.append((coord, None))
            continue
        cache_key = (arm, key, obj)
        fetched.append((coord, cache_key))
        if cache_key not in cache and cache_key not in misses:
            misses[cache_key] = (location, obj)
    verdicts = verify_round(ctx, mode, list(misses.values()))
    replays = {cache_key: _replay(ok, used)
               for cache_key, (ok, used, _) in zip(misses, verdicts)}
    statuses = {}
    counters = OpCounters()
    for coord, cache_key in fetched:
        if cache_key is None:
            statuses[coord] = Status.FETCH_FAILED
            continue
        # a hit never calls its verify_fn
        ok, used = cache.check(cache_key, replays.get(cache_key))
        counters.merge(used)
        statuses[coord] = Status.VERIFIED if ok else Status.VERIFY_FAILED
    return RetrievalOutcome(statuses=statuses, counters=counters)


# ---------------------------------------------------------------------------
# Experiments

@dataclass
class ExperimentConfig:
    rows: int = 4
    cols: int = 8
    extension: int = 2
    group_size: int = 4
    rows_per_group: int = 1
    peers: int = 50
    replication: int = 5
    peer_capacity: int | None = 3
    retry_budget: int = 3
    samples: int = 16
    data_seed: int = 0
    block_id: bytes = b"block-0"
    churn: tuple = (0.0, 0.1, 0.2, 0.3)
    seeds: tuple = tuple(range(1, 51))
    modes: tuple = tuple(ConfigMode)

    @property
    def srs_degree(self) -> int:
        return max(self.cols * self.extension - 1, self.group_size + 1, 2)

    @staticmethod
    def from_file(path) -> "ExperimentConfig":
        pairs = {}
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise DasNetError(f"bad config line: {line!r}")
                key, value = (part.strip() for part in line.split("=", 1))
                if key in pairs:
                    raise DasNetError(f"config key {key!r} is given twice")
                pairs[key] = value
        return ExperimentConfig.from_pairs(pairs)

    @staticmethod
    def from_pairs(pairs: dict) -> "ExperimentConfig":
        cfg = ExperimentConfig()
        keys = {f.name for f in fields(ExperimentConfig)}
        for key, value in pairs.items():
            if key not in keys:
                raise DasNetError(f"unknown config key {key!r}")
            setattr(cfg, key, _CONFIG_PARSERS.get(key, int)(value))
        if cfg.peer_capacity is not None and cfg.peer_capacity < 1:
            raise DasNetError("peer_capacity must be positive or none")
        if cfg.retry_budget < 0:
            raise DasNetError("retry_budget must be non-negative")
        if cfg.samples < 0:
            raise DasNetError("samples must be non-negative")
        # the checks the runs would make, made before the session is built
        if cfg.peers < 1 or cfg.replication < 1:
            raise DasNetError("need at least one peer and one replica")
        if not all(0 <= churn < 1 for churn in cfg.churn):
            raise DasNetError("churn must lie in [0, 1)")
        # a bad shape or layout raises GridError, a ValueError like int()'s
        dims = GridDims(cfg.rows, cfg.cols, cfg.extension)
        check_layout(dims, cfg.srs_degree, cfg.group_size, cfg.rows_per_group)
        if cfg.samples > dims.extended_cells:
            raise DasNetError("cannot sample more coordinates than cells")
        # a repeated entry would repeat its runs and rows
        for name in ("modes", "churn", "seeds"):
            values = getattr(cfg, name)
            if len(set(values)) != len(values):
                raise DasNetError(f"{name} lists an entry twice")
        return cfg


def _parse_seeds(value: str) -> tuple:
    out = []
    for part in value.split(","):
        part = part.strip()
        # a range's dash comes after any sign of its low end
        dash = part.find("-", 1)
        if dash > 0:
            lo, hi = int(part[:dash]), int(part[dash + 1:])
            if hi < lo:
                raise DasNetError(f"empty seed range {part!r}")
            out.extend(range(lo, hi + 1))
        else:
            out.append(int(part))
    return tuple(out)


# each config value's parser; a key not listed here takes an int
_CONFIG_PARSERS = {
    "peer_capacity": lambda value:
        None if value in ("none", "") else int(value),
    "block_id": lambda value: value.encode("utf-8"),
    "churn": lambda value: tuple(float(v) for v in value.split(",")),
    "seeds": _parse_seeds,
    "modes": lambda value:
        tuple(ConfigMode.parse(v) for v in value.split(",")),
}


def _deterministic_block_data(cfg: ExperimentConfig,
                              dims: GridDims) -> bytes:
    rng = random.Random(f"data|{cfg.data_seed}")
    return bytes(rng.randrange(256) for _ in range(dims.data_capacity_bytes))


class ExperimentSession:
    """Shared state across ablation runs: one SRS, one grid per config,
    the verification cache, one opening per cell for the per-cell arms,
    each arm's objects, published once, and each seed's churn order and
    sampling plan, drawn on its first run: churn changes only liveness,
    which each run gets afresh."""

    def __init__(self, cfg: ExperimentConfig, srs: SRS | None = None):
        self.cfg = cfg
        if srs is None:
            secret = int.from_bytes(
                hashlib.sha256(b"pmpdas-simulation-srs").digest(), "big")
            srs = gen(cfg.srs_degree, secret)
        self.srs = srs
        dims = GridDims(cfg.rows, cfg.cols, cfg.extension)
        grid = build_grid(_deterministic_block_data(cfg, dims), dims, srs)
        self.ctx = BlockContext(cfg.block_id, grid, srs, cfg.group_size,
                                cfg.rows_per_group)
        self._cells = {}  # (row, col) -> BaselineCell, for build_objects
        self._objects = {}
        self._published = {}  # mode -> (DHT as published, PublishResult)
        self._draws = {}  # seed -> (churn_order, SamplingPlan)
        self.cache = VerificationCache()
        # deterministic counter accounting: charge the first sight of each
        # micro-domain here, so verification cost never depends on run
        # order (on a power-of-two grid this computes nothing)
        for md in partition_micro_domains(grid.row_domain, cfg.group_size):
            srs.vanishing_base(md)

    def objects_for(self, mode: ConfigMode) -> dict:
        if mode not in self._objects:
            self._objects[mode] = build_objects(self.ctx, mode, self._cells)
        return self._objects[mode]

    def run(self, mode: ConfigMode, churn: float, seed: int) -> dict:
        cfg = self.cfg
        if mode not in self._published:
            dht = SimDht(cfg.peers, cfg.replication, cfg.peer_capacity)
            self._published[mode] = dht, publish(
                self.ctx, mode, dht, objects=self.objects_for(mode))
        published, result = self._published[mode]
        # the draws depend on the seed alone: every arm and churn level
        # of a seed shares them
        if seed not in self._draws:
            self._draws[seed] = (
                churn_order(cfg.peers, seed),
                make_sampling_plan(seed, self.ctx.grid.dims, cfg.samples))
        order, plan = self._draws[seed]
        dht = published.with_fresh_liveness()
        dht.kill_prefix(order, churn)
        outcome = sample_and_verify(plan, mode, dht, self.ctx,
                                    retry_budget=cfg.retry_budget,
                                    cache=self.cache)
        return {
            "mode": mode.value,
            "seed": seed,
            "churn": churn,
            "samples": outcome.sample_count,
            "objects_stored": result.object_count,
            "proof_bytes": result.proof_bytes,
            "object_bytes": result.object_bytes,
            "hit_rate": outcome.hit_rate,
            "verified": outcome.count(Status.VERIFIED),
            "verify_failures": outcome.count(Status.VERIFY_FAILED),
            "fetch_failures": outcome.count(Status.FETCH_FAILED),
            **outcome.counters.as_dict(),
        }
