"""Erasure-coded block grid with row commitments.

Data is chunked into 31-byte units so every cell is a canonical scalar,
rows are interpolated over the first `cols` domain points and evaluated
over the full extended row domain (a systematic Reed-Solomon extension),
and each row gets one KZG commitment.
"""

from __future__ import annotations

from dataclasses import dataclass

from .field_poly import (
    EvaluationDomain, evaluate_on_domain, interpolate, roots_of_unity_domain,
)
from .kzg import SRS, commit_many
from .multiproof import OpenedGroup

CHUNK_BYTES = 31


class GridError(ValueError):
    pass


@dataclass(frozen=True)
class GridDims:
    rows: int
    cols: int
    extension_factor: int = 2

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise GridError("grid needs at least one row and column")
        if self.extension_factor < 2:
            raise GridError("extension factor must be at least 2")

    @property
    def extended_cols(self) -> int:
        return self.cols * self.extension_factor

    @property
    def extended_cells(self) -> int:
        return self.rows * self.extended_cols

    @property
    def data_capacity_bytes(self) -> int:
        return self.rows * self.cols * CHUNK_BYTES


@dataclass(frozen=True, slots=True)
class Coordinate:
    """Position in the extended grid."""

    row: int
    col: int

    def __post_init__(self):
        if self.row < 0 or self.col < 0:
            raise GridError("coordinates are unsigned")


def default_row_domain(extended_cols: int) -> EvaluationDomain:
    """The n-th roots of unity in bit-reversed index order when the width
    n is a power of two, consecutive integers otherwise.

    In bit-reversed order every aligned block of g points (g a power of
    two) is a coset h*H_g of the order-g subgroup, whose vanishing
    polynomial is the binomial X^g - h^g. So each micro-domain of
    `partition_micro_domains` is checked on the SRS power [x^g]_2, the
    base of every per-cell opening too (Feist, "A universal verification
    equation for data availability sampling", 2022; the cell proofs of
    Ethereum's PeerDAS, EIP-7594, order their domain the same way). The
    first `cols` points are the order-`cols` subgroup, so the systematic
    extension of `extend_rows` interpolates over a subgroup. Any other
    domain still verifies, through its own [Z_md(x)]_2.
    """
    n = extended_cols
    if n & (n - 1) == 0:
        roots = roots_of_unity_domain(n).points
        bits = n.bit_length() - 1
        return EvaluationDomain(roots[int(f"{i:0{bits}b}"[::-1], 2)]
                                for i in range(n))
    return EvaluationDomain(range(n))


class DataGrid:
    """Immutable extended grid: cells, row polynomials, row commitments."""

    def __init__(self, dims: GridDims, cells, row_domain: EvaluationDomain,
                 row_polys, row_commitments):
        self.dims = dims
        self.cells = tuple(tuple(row) for row in cells)
        self.row_domain = row_domain
        self.row_polys = tuple(row_polys)
        self.row_commitments = tuple(row_commitments)

    def check_bounds(self, coord: Coordinate) -> None:
        if coord.row >= self.dims.rows or coord.col >= self.dims.extended_cols:
            raise GridError(f"coordinate {coord} outside the extended grid")


def bytes_to_scalars(data: bytes, count: int):
    """Chunk into 31-byte units (zero-extended little-endian scalars),
    padded with zero scalars up to `count`."""
    scalars = []
    for i in range(0, len(data), CHUNK_BYTES):
        scalars.append(int.from_bytes(data[i:i + CHUNK_BYTES], "little"))
    if len(scalars) > count:
        raise GridError("data does not fit the grid")
    scalars.extend([0] * (count - len(scalars)))
    return scalars


def build_grid(data: bytes, dims: GridDims, srs: SRS) -> DataGrid:
    if len(data) > dims.data_capacity_bytes:
        raise GridError(
            f"data of {len(data)} bytes exceeds grid capacity "
            f"{dims.data_capacity_bytes}")
    if dims.cols - 1 > srs.degree_bound:
        raise GridError("row polynomial degree exceeds the SRS bound")
    row_domain = default_row_domain(dims.extended_cols)
    scalars = bytes_to_scalars(data, dims.rows * dims.cols)
    polys, cells = extend_rows(
        row_domain, dims.cols,
        [scalars[r * dims.cols:(r + 1) * dims.cols] for r in range(dims.rows)])
    commitments = commit_many(srs, polys)
    return DataGrid(dims, cells, row_domain, polys, commitments)


def extend_rows(row_domain: EvaluationDomain, cols: int, rows):
    """Systematic Reed-Solomon extension: interpolate the first `cols`
    values of each row over the first `cols` domain points, then evaluate
    over the whole row domain. Returns (row polynomials, extended rows)."""
    base_points = EvaluationDomain(row_domain.points[:cols])
    polys = [interpolate(base_points, row[:cols]) for row in rows]
    return polys, [evaluate_on_domain(poly, row_domain) for poly in polys]


def partition_micro_domains(row_domain: EvaluationDomain, g: int):
    """Split the row domain into contiguous disjoint blocks of size g."""
    n = len(row_domain)
    if g < 1 or n % g != 0:
        raise GridError(f"group size {g} does not divide domain size {n}")
    return [EvaluationDomain(row_domain.points[j * g:(j + 1) * g],
                             offset=j * g)
            for j in range(n // g)]


def build_opened_group(grid: DataGrid, band: range,
                       md: EvaluationDomain) -> OpenedGroup:
    """Full evaluation vectors of every band row on one micro-domain."""
    if band.start < 0 or band.stop > grid.dims.rows or len(band) == 0:
        raise GridError("row band outside the grid")
    expected = grid.row_domain.points[md.offset:md.offset + md.size]
    if expected != md.points:
        raise GridError("micro-domain is not a block of this grid's partition")
    commitments = [grid.row_commitments[r] for r in band]
    values = [tuple(grid.cells[r][md.offset:md.offset + md.size])
              for r in band]
    return OpenedGroup(commitments, values, md)


def iter_groups(grid: DataGrid, g: int, rows_per_group: int = 1):
    """Yield ((band_index, md_index), band, micro-domain) over the grid."""
    if rows_per_group < 1:
        raise GridError("rows-per-group must be positive")
    mds = partition_micro_domains(grid.row_domain, g)
    rows = grid.dims.rows
    for b, start in enumerate(range(0, rows, rows_per_group)):
        band = range(start, min(start + rows_per_group, rows))
        for m, md in enumerate(mds):
            yield (b, m), band, md
