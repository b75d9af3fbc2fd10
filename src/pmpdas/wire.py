"""Bit-exact wire formats for retrieval objects, the storage-accounting
calculator, and the fixture file container.

All integers are little-endian. Layouts:

* BaselineCell: proof[48] || data[32]                     (80 bytes)
* GCellBlock:   rows_start, rows_end, cols_start, cols_end as u32 (16 bytes);
                row/col ranges are half-open [start, end)
* MCell:        proof[48] || GCellBlock[16] || count u32 || count * scalar[32]
* GroupedCells: GCellBlock[16] || count u32 || count * BaselineCell[80]

Fixture files: magic "PMPD", version 0x01, then tagged sections
(4-byte ASCII tag, u32 length, payload). The PRMS section is the group
size and the rows per group as two u32s.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import field_poly
from .field_poly import scalar_from_bytes, scalar_to_bytes

PROOF_BYTES = 48
SCALAR_BYTES = 32
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


def _read_scalar(data: bytes) -> int:
    try:
        return scalar_from_bytes(data)
    except field_poly.NonCanonicalScalar as exc:
        raise NonCanonicalScalarEncoding(str(exc)) from exc


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
        if len(data) != GCELL_BLOCK_BYTES:
            raise TruncatedInput("GCellBlock encoding must be 16 bytes")
        vals = [int.from_bytes(data[i:i + 4], "little")
                for i in range(0, 16, 4)]
        return GCellBlock(*vals)


@dataclass(frozen=True)
class BaselineCell:
    """One extended-grid entry with its own opening proof."""

    proof: bytes
    data: bytes

    def __post_init__(self):
        if len(self.proof) != PROOF_BYTES:
            raise WireError("baseline proof must be 48 bytes")
        if len(self.data) != SCALAR_BYTES:
            raise WireError("baseline data must be 32 bytes")

    def to_bytes(self) -> bytes:
        return self.proof + self.data

    @staticmethod
    def from_bytes(data: bytes) -> "BaselineCell":
        if len(data) != BASELINE_CELL_BYTES:
            raise TruncatedInput(
                f"baseline cell must be {BASELINE_CELL_BYTES} bytes, "
                f"got {len(data)}")
        _read_scalar(data[PROOF_BYTES:])
        return BaselineCell(data[:PROOF_BYTES], data[PROOF_BYTES:])


@dataclass(frozen=True)
class MCell:
    """Grouped retrieval object: one proof over a block region plus the
    full evaluation vectors it covers."""

    proof: bytes
    block: GCellBlock
    scalars: tuple

    def __post_init__(self):
        if len(self.proof) != PROOF_BYTES:
            raise WireError("proof must be 48 bytes")
        object.__setattr__(
            self, "scalars",
            tuple(s % field_poly.SCALAR_MODULUS for s in self.scalars))
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
        header = PROOF_BYTES + GCELL_BLOCK_BYTES + 4
        if len(data) < header:
            raise TruncatedInput("MCell header truncated")
        proof = data[:PROOF_BYTES]
        block = GCellBlock.from_bytes(data[PROOF_BYTES:PROOF_BYTES + 16])
        count = int.from_bytes(data[header - 4:header], "little")
        if count == 0:
            raise WireError("empty groups are forbidden")
        if count != block.n_rows * block.n_cols:
            raise CountMismatch("count does not match the block region")
        expected_len = header + SCALAR_BYTES * count
        if len(data) < expected_len:
            raise TruncatedInput("MCell scalar payload truncated")
        if len(data) > expected_len:
            raise WireError("trailing bytes after MCell payload")
        scalars = [
            _read_scalar(data[header + i * SCALAR_BYTES:
                              header + (i + 1) * SCALAR_BYTES])
            for i in range(count)]
        return MCell(proof, block, tuple(scalars))


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
    def encoded_count(data: bytes) -> int:
        """The cell count an encoding declares, read without decoding."""
        return int.from_bytes(
            data[GCELL_BLOCK_BYTES:GCELL_BLOCK_BYTES + 4], "little")

    @staticmethod
    def from_bytes(data: bytes) -> "GroupedCells":
        header = GCELL_BLOCK_BYTES + 4
        if len(data) < header:
            raise TruncatedInput("grouped cells header truncated")
        block = GCellBlock.from_bytes(data[:GCELL_BLOCK_BYTES])
        count = GroupedCells.encoded_count(data)
        if count != block.n_rows * block.n_cols:
            raise CountMismatch("count does not match the block region")
        expected_len = header + BASELINE_CELL_BYTES * count
        if len(data) < expected_len:
            raise TruncatedInput("grouped cells payload truncated")
        if len(data) > expected_len:
            raise WireError("trailing bytes after grouped cells payload")
        return GroupedCells(block, [
            BaselineCell.from_bytes(data[i:i + BASELINE_CELL_BYTES])
            for i in range(header, expected_len, BASELINE_CELL_BYTES)])


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
        return {
            "entries": self.entries,
            "group_size": self.group_size,
            "baseline_total_bytes": self.baseline_total_bytes,
            "grouped_object_count": self.grouped_object_count,
            "grouped_object_bytes": self.grouped_object_bytes,
            "grouped_total_bytes": self.grouped_total_bytes,
            "amortized_bytes_per_entry": self.amortized_display(),
            "grouped_wire_total_bytes": self.grouped_wire_total_bytes,
        }


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
# Fixture container

def encode_fixture(sections) -> bytes:
    """sections: iterable of (4-byte ascii tag, payload bytes)."""
    out = bytearray()
    out += FIXTURE_MAGIC
    out.append(FIXTURE_VERSION)
    for tag, payload in sections:
        tag_b = tag.encode("ascii") if isinstance(tag, str) else tag
        if len(tag_b) != 4:
            raise WireError("section tags must be 4 bytes")
        out += tag_b
        out += len(payload).to_bytes(4, "little")
        out += payload
    return bytes(out)


def decode_fixture(data: bytes):
    if len(data) < 5:
        raise TruncatedInput("fixture header truncated")
    if data[:4] != FIXTURE_MAGIC:
        raise WireError("bad fixture magic")
    if data[4] != FIXTURE_VERSION:
        raise WireError(f"unsupported fixture version {data[4]}")
    sections = []
    pos = 5
    while pos < len(data):
        if pos + 8 > len(data):
            raise TruncatedInput("fixture section header truncated")
        try:
            tag = data[pos:pos + 4].decode("ascii")
        except UnicodeDecodeError as exc:
            raise WireError("fixture section tags must be ASCII") from exc
        length = int.from_bytes(data[pos + 4:pos + 8], "little")
        pos += 8
        if pos + length > len(data):
            raise TruncatedInput(f"fixture section {tag!r} truncated")
        sections.append((tag, data[pos:pos + length]))
        pos += length
    return sections


def encode_prove_params(group_size: int, rows_per_group: int) -> bytes:
    return group_size.to_bytes(4, "little") + \
        rows_per_group.to_bytes(4, "little")


def decode_prove_params(data: bytes):
    """(group size, rows per group) from a PRMS section."""
    if len(data) != 8:
        raise WireError("proof parameters section must be 8 bytes")
    return (int.from_bytes(data[:4], "little"),
            int.from_bytes(data[4:], "little"))


def encode_srs(srs) -> bytes:
    out = bytearray()
    out += srs.degree_bound.to_bytes(4, "little")
    for pt in srs.g1_powers:
        out += pt.to_bytes()
    for pt in srs.g2_powers:
        out += pt.to_bytes()
    return bytes(out)


def decode_srs(data: bytes):
    from .curve import G1Point, G2Point
    from .kzg import SRS
    if len(data) < 4:
        raise TruncatedInput("SRS section truncated")
    d = int.from_bytes(data[:4], "little")
    if d < 1:
        raise WireError("SRS degree bound must be at least 1")
    n = d + 1
    need = 4 + n * 48 + n * 96
    if len(data) != need:
        raise TruncatedInput(f"SRS section must be {need} bytes")
    pos = 4
    g1_powers = []
    for _ in range(n):
        g1_powers.append(G1Point.from_bytes(data[pos:pos + 48]))
        pos += 48
    g2_powers = []
    for _ in range(n):
        g2_powers.append(G2Point.from_bytes(data[pos:pos + 96]))
        pos += 96
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
    from .field_poly import EvaluationDomain
    from .grid import DataGrid, GridDims, GridError, extend_rows
    from .curve import G1Point
    from .kzg import commit
    if len(data) < 12:
        raise TruncatedInput("grid section truncated")
    rows = int.from_bytes(data[:4], "little")
    cols = int.from_bytes(data[4:8], "little")
    ext = int.from_bytes(data[8:12], "little")
    try:
        dims = GridDims(rows, cols, ext)
    except GridError as exc:
        raise WireError(str(exc)) from exc
    if cols - 1 > srs.degree_bound:
        raise WireError("row polynomial degree exceeds the SRS bound")
    width = dims.extended_cols
    need = 12 + width * 32 + rows * width * 32 + rows * 48
    if len(data) != need:
        raise TruncatedInput(f"grid section must be {need} bytes")
    pos = 12
    domain_pts = []
    for _ in range(width):
        domain_pts.append(_read_scalar(data[pos:pos + 32]))
        pos += 32
    try:
        row_domain = EvaluationDomain(domain_pts)
    except field_poly.FieldPolyError as exc:
        raise WireError(str(exc)) from exc
    cells = []
    for _ in range(rows):
        row = []
        for _ in range(width):
            row.append(_read_scalar(data[pos:pos + 32]))
            pos += 32
        cells.append(row)
    commitments = []
    for _ in range(rows):
        commitments.append(G1Point.from_bytes(data[pos:pos + 48]))
        pos += 48
    polys, extended = extend_rows(row_domain, cols, cells)
    if extended != cells:
        raise WireError("grid rows are not Reed-Solomon codewords of their "
                        "first columns")
    if [commit(srs, poly) for poly in polys] != commitments:
        raise WireError("grid header commitments are not those of its rows")
    return DataGrid(dims, cells, row_domain, polys, commitments)
