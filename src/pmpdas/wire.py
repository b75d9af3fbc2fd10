"""Bit-exact wire formats for retrieval objects, the storage-accounting
calculator, and the fixture file.

All integers are little-endian. Layouts:

* BaselineCell: proof[48] || data[32]                     (80 bytes)
* GCellBlock:   rows_start, rows_end, cols_start, cols_end as u32 (16 bytes);
                row/col ranges are half-open [start, end)
* MCell:        proof[48] || GCellBlock[16] || count u32 || count * scalar[32]
* GroupedCells: GCellBlock[16] || count u32 || count * BaselineCell[80]

Fixture files: magic "PMPD", version 0x01, then tagged sections
(4-byte ASCII tag, u32 length, payload). `Fixture` writes SRS1 (the
setup) and GRID (the grid), then, once proved, PRMS (the group size and
the rows per group as two u32s) and one MCEL (an MCell) per group.

Every decoder reads through one bounds-checked cursor, `_Reader`: input
too short for its layout raises `TruncatedInput`, bytes after a complete
encoding raise `WireError` ("trailing bytes"); both are `WireError`s. A
fixture has no total length, so an appended byte starts a cut section.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from fractions import Fraction

from . import field_poly
from .curve import CurveError, G1Point, G2Point
from .field_poly import (
    SCALAR_BYTES, EvaluationDomain, scalar_from_bytes, scalar_to_bytes,
)
from .grid import DataGrid, GridDims, GridError, extend_rows
from .kzg import SRS, commit_many

PROOF_BYTES = 48
GCELL_BLOCK_BYTES = 16
BASELINE_CELL_BYTES = PROOF_BYTES + SCALAR_BYTES

FIXTURE_MAGIC = b"PMPD"
FIXTURE_VERSION = 1


class WireError(ValueError):
    pass


class TruncatedInput(WireError):
    pass


class CountMismatch(WireError):
    pass


class NonCanonicalScalarEncoding(WireError):
    pass


# What the decoders raise on malformed untrusted bytes; any other exception
# out of a decoder is a bug and propagates.
DECODE_ERRORS = (WireError, CurveError)


def _read_scalar(data: bytes) -> int:
    try:
        return scalar_from_bytes(data)
    except field_poly.NonCanonicalScalar as exc:
        raise NonCanonicalScalarEncoding(str(exc)) from exc


class _Reader:
    """A cursor over untrusted bytes; `what` names them in errors."""

    def __init__(self, data: bytes, what: str):
        self.data, self.what, self.pos, self.end = data, what, 0, len(data)

    def take(self, n: int) -> bytes:
        start, self.pos = self.pos, self.pos + n
        if self.pos > self.end:
            raise TruncatedInput(f"{self.what} truncated")
        return self.data[start:self.pos]

    def u32(self) -> int:
        return int.from_bytes(self.take(4), "little")

    def scalar(self) -> int:
        return _read_scalar(self.take(SCALAR_BYTES))

    def rest(self, n: int) -> None:
        """Exactly n bytes must be left."""
        if self.end - self.pos < n:
            raise TruncatedInput(f"{self.what} truncated")
        if self.end - self.pos > n:
            raise WireError(f"trailing bytes after {self.what}")


@dataclass(frozen=True)
class GCellBlock:
    """Half-open block region [rows_start, rows_end) x [cols_start, cols_end)."""

    rows_start: int
    rows_end: int
    cols_start: int
    cols_end: int

    def __post_init__(self):
        for v in (self.rows_start, self.rows_end,
                  self.cols_start, self.cols_end):
            if not 0 <= v < 2 ** 32:
                raise WireError("GCellBlock fields must be u32")
        if self.rows_start > self.rows_end or self.cols_start > self.cols_end:
            raise WireError("GCellBlock ranges must be non-decreasing")

    @property
    def n_rows(self) -> int:
        return self.rows_end - self.rows_start

    @property
    def n_cols(self) -> int:
        return self.cols_end - self.cols_start

    def to_bytes(self) -> bytes:
        return b"".join(v.to_bytes(4, "little") for v in (
            self.rows_start, self.rows_end, self.cols_start, self.cols_end))

    @staticmethod
    def from_bytes(data: bytes) -> "GCellBlock":
        r = _Reader(data, "GCellBlock")
        r.rest(GCELL_BLOCK_BYTES)
        return GCellBlock(r.u32(), r.u32(), r.u32(), r.u32())


@dataclass(frozen=True)
class BaselineCell:
    """One extended-grid entry with its own opening proof; `value` is the
    scalar the data encodes, parsed once, here."""

    proof: bytes
    data: bytes
    value: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.proof) != PROOF_BYTES:
            raise WireError("baseline proof must be 48 bytes")
        if len(self.data) != SCALAR_BYTES:
            raise WireError("baseline data must be 32 bytes")
        object.__setattr__(self, "value", _read_scalar(self.data))

    def to_bytes(self) -> bytes:
        return self.proof + self.data

    @staticmethod
    def from_bytes(data: bytes) -> "BaselineCell":
        r = _Reader(data, "baseline cell")
        r.rest(BASELINE_CELL_BYTES)
        return BaselineCell(r.take(PROOF_BYTES), r.take(SCALAR_BYTES))


@dataclass(frozen=True)
class MCell:
    """Grouped retrieval object: one proof over a block region plus the
    full evaluation vectors it covers, as canonical scalars."""

    proof: bytes
    block: GCellBlock
    scalars: tuple

    def __post_init__(self):
        if len(self.proof) != PROOF_BYTES:
            raise WireError("proof must be 48 bytes")
        # canonical already: `from_bytes` checked them, and `to_bytes`
        # refuses any other
        object.__setattr__(self, "scalars", tuple(self.scalars))
        if not self.scalars:
            raise WireError("empty groups are forbidden")
        expected = self.block.n_rows * self.block.n_cols
        if len(self.scalars) != expected:
            raise CountMismatch(
                f"scalar count {len(self.scalars)} does not cover the "
                f"{self.block.n_rows}x{self.block.n_cols} block region")

    @property
    def count(self) -> int:
        return len(self.scalars)

    def to_bytes(self) -> bytes:
        out = bytearray()
        out += self.proof
        out += self.block.to_bytes()
        out += self.count.to_bytes(4, "little")
        for s in self.scalars:
            out += scalar_to_bytes(s)
        return bytes(out)

    @staticmethod
    def from_bytes(data: bytes) -> "MCell":
        r = _Reader(data, "MCell")
        proof, block_bytes = r.take(PROOF_BYTES), r.take(GCELL_BLOCK_BYTES)
        count = r.u32()
        block = GCellBlock.from_bytes(block_bytes)
        if count == 0:
            raise WireError("empty groups are forbidden")
        if count != block.n_rows * block.n_cols:
            raise CountMismatch("count does not match the block region")
        r.rest(SCALAR_BYTES * count)
        return MCell(proof, block, tuple(r.scalar() for _ in range(count)))


@dataclass(frozen=True)
class GroupedCells:
    """Grouped transport without aggregation: one BaselineCell per entry
    of a block region, in row-major order."""

    block: GCellBlock
    cells: tuple

    def __post_init__(self):
        object.__setattr__(self, "cells", tuple(self.cells))
        if len(self.cells) != self.block.n_rows * self.block.n_cols:
            raise CountMismatch(
                f"cell count {len(self.cells)} does not cover the "
                f"{self.block.n_rows}x{self.block.n_cols} block region")

    def to_bytes(self) -> bytes:
        return self.block.to_bytes() + len(self.cells).to_bytes(4, "little") \
            + b"".join(cell.to_bytes() for cell in self.cells)

    @staticmethod
    def from_bytes(data: bytes) -> "GroupedCells":
        r = _Reader(data, "grouped cells")
        block_bytes, count = r.take(GCELL_BLOCK_BYTES), r.u32()
        block = GCellBlock.from_bytes(block_bytes)
        if count != block.n_rows * block.n_cols:
            raise CountMismatch("count does not match the block region")
        r.rest(BASELINE_CELL_BYTES * count)
        return GroupedCells(block, [
            BaselineCell.from_bytes(r.take(BASELINE_CELL_BYTES))
            for _ in range(count)])


# ---------------------------------------------------------------------------
# Storage accounting

@dataclass(frozen=True)
class StorageReport:
    """Proof-amortization arithmetic for one (entries, group size) choice.

    The amortization model counts 32 bytes of data per entry plus one
    48-byte proof per group and deliberately excludes block metadata,
    counts, and framing; `grouped_wire_total_bytes` reports the full
    on-wire MCell sizes including that metadata.
    """

    entries: int
    group_size: int
    baseline_total_bytes: int
    grouped_object_count: int
    grouped_object_bytes: int
    grouped_total_bytes: int
    amortized_bytes_per_entry: Fraction
    grouped_wire_total_bytes: int

    def amortized_display(self):
        f = self.amortized_bytes_per_entry
        return int(f) if f.denominator == 1 else float(f)

    def as_dict(self) -> dict:
        return {**asdict(self),
                "amortized_bytes_per_entry": self.amortized_display()}


def storage_report(entries: int, g: int) -> StorageReport:
    if entries < 1 or g < 1:
        raise WireError("entries and group size must be positive")
    if entries % g != 0:
        raise WireError(f"group size {g} does not divide {entries} entries")
    n_objects = entries // g
    object_bytes = SCALAR_BYTES * g + PROOF_BYTES
    wire_object_bytes = PROOF_BYTES + GCELL_BLOCK_BYTES + 4 + SCALAR_BYTES * g
    return StorageReport(
        entries=entries,
        group_size=g,
        baseline_total_bytes=entries * BASELINE_CELL_BYTES,
        grouped_object_count=n_objects,
        grouped_object_bytes=object_bytes,
        grouped_total_bytes=n_objects * object_bytes,
        amortized_bytes_per_entry=Fraction(object_bytes, g),
        grouped_wire_total_bytes=n_objects * wire_object_bytes,
    )


# ---------------------------------------------------------------------------
# Fixture files

def encode_fixture(sections) -> bytes:
    """sections: iterable of (4-byte ascii tag, payload bytes)."""
    out = bytearray(FIXTURE_MAGIC + bytes([FIXTURE_VERSION]))
    for tag, payload in sections:
        tag_b = tag.encode("ascii") if isinstance(tag, str) else tag
        if len(tag_b) != 4:
            raise WireError("section tags must be 4 bytes")
        out += tag_b + len(payload).to_bytes(4, "little") + payload
    return bytes(out)


def decode_fixture(data: bytes):
    r = _Reader(data, "fixture")
    magic, (version,) = r.take(4), r.take(1)
    if magic != FIXTURE_MAGIC:
        raise WireError("bad fixture magic")
    if version != FIXTURE_VERSION:
        raise WireError(f"unsupported fixture version {version}")
    sections = []
    while r.pos < r.end:
        tag, length = r.take(4), r.u32()
        try:
            tag = tag.decode("ascii")
        except UnicodeDecodeError as exc:
            raise WireError("fixture section tags must be ASCII") from exc
        sections.append((tag, r.take(length)))
    return sections


def encode_prove_params(group_size: int, rows_per_group: int) -> bytes:
    return group_size.to_bytes(4, "little") + \
        rows_per_group.to_bytes(4, "little")


def decode_prove_params(data: bytes):
    """(group size, rows per group) from a PRMS section."""
    r = _Reader(data, "proof parameters section")
    r.rest(8)
    return r.u32(), r.u32()


def encode_srs(srs) -> bytes:
    out = bytearray()
    out += srs.degree_bound.to_bytes(4, "little")
    for pt in srs.g1_powers:
        out += pt.to_bytes()
    for pt in srs.g2_powers:
        out += pt.to_bytes()
    return bytes(out)


def decode_srs(data: bytes):
    r = _Reader(data, "SRS section")
    d = r.u32()
    if d < 1:
        raise WireError("SRS degree bound must be at least 1")
    n = d + 1
    r.rest(n * 48 + n * 96)
    g1_powers = [G1Point.from_bytes(r.take(48)) for _ in range(n)]
    g2_powers = [G2Point.from_bytes(r.take(96)) for _ in range(n)]
    # the verifiers take [1]_1 and [1]_2 to be the generators
    if g1_powers[0] != G1Point.generator() or \
            g2_powers[0] != G2Point.generator():
        raise WireError("SRS powers must start with the generators")
    return SRS(g1_powers, g2_powers)


def encode_grid(grid) -> bytes:
    out = bytearray()
    out += grid.dims.rows.to_bytes(4, "little")
    out += grid.dims.cols.to_bytes(4, "little")
    out += grid.dims.extension_factor.to_bytes(4, "little")
    for z in grid.row_domain:
        out += scalar_to_bytes(z)
    for row in grid.cells:
        for c in row:
            out += scalar_to_bytes(c)
    for cm in grid.row_commitments:
        out += cm.to_bytes()
    return bytes(out)


def decode_grid(data: bytes, srs):
    r = _Reader(data, "grid section")
    rows, cols, ext = r.u32(), r.u32(), r.u32()
    try:
        dims = GridDims(rows, cols, ext)
    except GridError as exc:
        raise WireError(str(exc)) from exc
    if cols - 1 > srs.degree_bound:
        raise WireError("row polynomial degree exceeds the SRS bound")
    width = dims.extended_cols
    r.rest(width * 32 + rows * width * 32 + rows * 48)
    domain_pts = [r.scalar() for _ in range(width)]
    try:
        row_domain = EvaluationDomain(domain_pts)
    except field_poly.FieldPolyError as exc:
        raise WireError(str(exc)) from exc
    cells = [[r.scalar() for _ in range(width)] for _ in range(rows)]
    commitments = [G1Point.from_bytes(r.take(48)) for _ in range(rows)]
    polys, extended = extend_rows(row_domain, cols, cells)
    if extended != cells:
        raise WireError("grid rows are not Reed-Solomon codewords of their "
                        "first columns")
    if commit_many(srs, polys) != commitments:
        raise WireError("grid header commitments are not those of its rows")
    return DataGrid(dims, cells, row_domain, polys, commitments)


@dataclass(frozen=True)
class Fixture:
    """A setup, a grid committed under it and, once proved, the proof
    parameters (group size g, rows per group k) with one MCell encoding
    per group, in publication order and left undecoded.

    Decoding rejects a repeated SRS1, GRID or PRMS section, a missing SRS1
    or GRID, and parameters that do not fit the setup and the grid; it
    skips sections of other tags.
    """

    srs: SRS
    grid: DataGrid
    params: tuple | None = None
    mcells: tuple = ()

    def __post_init__(self):
        if self.params is None:
            return
        (g, k), d = self.params, self.srs.degree_bound
        width = self.grid.dims.extended_cols
        if not 1 <= g <= d or width % g:
            raise WireError(f"group size {g} must be between 1 and the SRS "
                            f"degree bound {d} and divide the {width} "
                            f"extended columns")
        if k < 1:
            raise WireError("rows per group must be positive")

    def to_bytes(self) -> bytes:
        sections = [("SRS1", encode_srs(self.srs)),
                    ("GRID", encode_grid(self.grid))]
        if self.params is not None:
            sections.append(("PRMS", encode_prove_params(*self.params)))
        return encode_fixture(sections + [("MCEL", m) for m in self.mcells])

    @staticmethod
    def from_bytes(data: bytes) -> "Fixture":
        single, mcells = {}, []
        for tag, payload in decode_fixture(data):
            if tag in single:
                raise WireError(f"repeated {tag!r} section")
            if tag in ("SRS1", "GRID", "PRMS"):
                single[tag] = payload
            elif tag == "MCEL":
                mcells.append(payload)
        for tag in ("SRS1", "GRID"):
            if tag not in single:
                raise WireError(f"fixture is missing its {tag!r} section")
        srs, prms = decode_srs(single["SRS1"]), single.get("PRMS")
        return Fixture(srs, decode_grid(single["GRID"], srs),
                       prms if prms is None else decode_prove_params(prms),
                       tuple(mcells))
