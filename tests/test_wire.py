"""Wire codecs, storage accounting, and the fixture container."""

import random

import pytest

from helpers import shared_srs
from pmpdas.field_poly import SCALAR_MODULUS, scalar_to_bytes
from pmpdas.grid import GridDims, build_grid
from pmpdas.wire import (
    BASELINE_CELL_BYTES, BaselineCell, CountMismatch, GCellBlock, GroupedCells,
    MCell, NonCanonicalScalarEncoding, TruncatedInput, WireError,
    decode_fixture, decode_grid, decode_prove_params, decode_srs,
    encode_fixture, encode_grid, encode_prove_params, encode_srs,
    storage_report,
)


def _rand_mcell(rng, n_rows=None, n_cols=None):
    n_rows = n_rows or rng.randrange(1, 4)
    n_cols = n_cols or rng.randrange(1, 6)
    r0, c0 = rng.randrange(100), rng.randrange(100)
    block = GCellBlock(r0, r0 + n_rows, c0, c0 + n_cols)
    scalars = tuple(rng.randrange(SCALAR_MODULUS)
                    for _ in range(n_rows * n_cols))
    return MCell(bytes(rng.randrange(256) for _ in range(48)), block, scalars)


def test_gcell_block_round_trip_and_bounds():
    block = GCellBlock(1, 3, 4, 8)
    assert block.n_rows == 2 and block.n_cols == 4
    assert len(block.to_bytes()) == 16
    assert GCellBlock.from_bytes(block.to_bytes()) == block
    with pytest.raises(WireError):
        GCellBlock(2, 1, 0, 4)  # decreasing row range
    with pytest.raises(WireError):
        GCellBlock(0, 2 ** 32, 0, 1)
    with pytest.raises(TruncatedInput):
        GCellBlock.from_bytes(b"\x00" * 15)


def test_baseline_cell_is_80_bytes():
    cell = BaselineCell(b"\x01" * 48, (5).to_bytes(32, "little"))
    blob = cell.to_bytes()
    assert len(blob) == BASELINE_CELL_BYTES == 80
    assert BaselineCell.from_bytes(blob) == cell
    with pytest.raises(TruncatedInput):
        BaselineCell.from_bytes(blob[:-1])
    with pytest.raises(WireError):
        BaselineCell(b"\x01" * 47, b"\x00" * 32)
    with pytest.raises(NonCanonicalScalarEncoding):
        BaselineCell.from_bytes(b"\x00" * 48 + b"\xff" * 32)


def test_mcell_round_trip():
    rng = random.Random(70)
    for _ in range(50):
        mcell = _rand_mcell(rng)
        blob = mcell.to_bytes()
        assert len(blob) == mcell.encoded_size() == \
            48 + 16 + 4 + 32 * mcell.count
        assert MCell.from_bytes(blob) == mcell


def test_mcell_count_must_cover_block():
    block = GCellBlock(0, 2, 0, 3)
    with pytest.raises(CountMismatch):
        MCell(b"\x00" * 48, block, (1, 2, 3, 4, 5))
    good = MCell(b"\x00" * 48, block, tuple(range(6)))
    blob = bytearray(good.to_bytes())
    blob[48 + 16] ^= 0x01  # count field no longer matches the region
    with pytest.raises(WireError):
        MCell.from_bytes(bytes(blob))


def test_mcell_rejects_malformed_bytes():
    rng = random.Random(71)
    mcell = _rand_mcell(rng)
    blob = mcell.to_bytes()
    with pytest.raises(TruncatedInput):
        MCell.from_bytes(blob[:-1])
    with pytest.raises(WireError):
        MCell.from_bytes(blob + b"\x00")
    with pytest.raises(TruncatedInput):
        MCell.from_bytes(blob[:20])
    bad = blob[:-32] + b"\xff" * 32  # scalar above the modulus
    with pytest.raises(NonCanonicalScalarEncoding):
        MCell.from_bytes(bad)
    with pytest.raises(WireError):
        MCell(b"\x00" * 48, GCellBlock(0, 0, 0, 0), ())


def _rand_grouped(rng, n_rows=2, n_cols=3):
    r0, c0 = rng.randrange(100), rng.randrange(100)
    block = GCellBlock(r0, r0 + n_rows, c0, c0 + n_cols)
    cells = [BaselineCell(bytes(rng.randrange(256) for _ in range(48)),
                          scalar_to_bytes(rng.randrange(SCALAR_MODULUS)))
             for _ in range(n_rows * n_cols)]
    return GroupedCells(block, cells)


def _grouped_bytes(block, cells):
    """The layout by hand: block, u32 count, then the cells."""
    return block.to_bytes() + len(cells).to_bytes(4, "little") + \
        b"".join(cell.to_bytes() for cell in cells)


def test_grouped_cells_round_trip():
    rng = random.Random(72)
    for _ in range(20):
        grouped = _rand_grouped(rng, rng.randrange(1, 4), rng.randrange(1, 6))
        blob = grouped.to_bytes()
        assert blob == _grouped_bytes(grouped.block, grouped.cells)
        assert len(blob) == 16 + 4 + 80 * len(grouped.cells)
        assert GroupedCells.from_bytes(blob) == grouped
    with pytest.raises(TruncatedInput):
        GroupedCells.from_bytes(blob[:19])
    with pytest.raises(TruncatedInput):
        GroupedCells.from_bytes(blob[:-1])
    with pytest.raises(CountMismatch):
        GroupedCells(grouped.block, grouped.cells[:-1])


def test_grouped_cells_short_count_rejected():
    grouped = _rand_grouped(random.Random(73))
    # a consistent encoding of one cell fewer than the block region holds
    with pytest.raises(CountMismatch):
        GroupedCells.from_bytes(
            _grouped_bytes(grouped.block, grouped.cells[:-1]))


def test_grouped_cells_extra_cell_rejected():
    grouped = _rand_grouped(random.Random(74))
    extra = grouped.cells + grouped.cells[-1:]
    with pytest.raises(CountMismatch):
        GroupedCells.from_bytes(_grouped_bytes(grouped.block, extra))
    with pytest.raises(WireError):
        GroupedCells.from_bytes(grouped.to_bytes() + extra[-1].to_bytes())


def test_storage_report_reference_numbers():
    report = storage_report(64, 4)
    assert report.baseline_total_bytes == 5120
    assert report.grouped_object_count == 16
    assert report.grouped_object_bytes == 176
    assert report.grouped_total_bytes == 2816
    assert report.amortized_display() == 44
    assert report.grouped_wire_total_bytes == 16 * (176 + 20)

    flat = storage_report(64, 1)
    assert flat.grouped_total_bytes == flat.baseline_total_bytes == 5120

    whole = storage_report(64, 64)
    assert whole.grouped_object_count == 1
    assert whole.grouped_total_bytes == 64 * 32 + 48


def test_storage_report_validation():
    with pytest.raises(WireError):
        storage_report(64, 3)
    with pytest.raises(WireError):
        storage_report(0, 1)
    with pytest.raises(WireError):
        storage_report(64, 0)


def test_storage_report_fractional_amortization():
    report = storage_report(10, 5)
    assert float(report.amortized_bytes_per_entry) == (5 * 32 + 48) / 5
    assert report.as_dict()["amortized_bytes_per_entry"] == 41.6


def test_fixture_container_round_trip():
    sections = [("AAAA", b"hello"), ("BBBB", b""), ("AAAA", b"again")]
    blob = encode_fixture(sections)
    assert blob[:4] == b"PMPD" and blob[4] == 1
    assert decode_fixture(blob) == sections
    with pytest.raises(WireError):
        decode_fixture(b"XXXX\x01")
    with pytest.raises(WireError):
        decode_fixture(b"PMPD\x02")
    with pytest.raises(TruncatedInput):
        decode_fixture(blob[:-1])
    with pytest.raises(TruncatedInput):
        decode_fixture(b"PMPD\x01AAAA")
    with pytest.raises(WireError):
        decode_fixture(b"PMPD\x01\xffAAA" + bytes(4))  # non-ASCII tag
    with pytest.raises(WireError):
        encode_fixture([("TOOLONG", b"")])


def test_prove_params_codec():
    blob = encode_prove_params(4, 2 ** 32 - 1)
    assert blob == bytes([4, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF])
    assert decode_prove_params(blob) == (4, 2 ** 32 - 1)
    for bad in (blob[:-1], blob + b"\x00", b""):
        with pytest.raises(WireError):
            decode_prove_params(bad)


def test_srs_and_grid_codecs():
    srs = shared_srs(3)
    srs_blob = encode_srs(srs)
    back = decode_srs(srs_blob)
    assert back.srs_id == srs.srs_id
    with pytest.raises(TruncatedInput):
        decode_srs(srs_blob[:-1])

    dims = GridDims(2, 2, 2)
    grid = build_grid(b"\x07" * 10, dims, srs)
    grid_blob = encode_grid(grid)
    restored = decode_grid(grid_blob, srs)
    assert restored.cells == grid.cells
    assert restored.row_polys == grid.row_polys
    assert restored.row_commitments == grid.row_commitments
    assert restored.row_domain.points == grid.row_domain.points
    with pytest.raises(TruncatedInput):
        decode_grid(grid_blob[:-1], srs)
