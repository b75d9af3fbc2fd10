"""Wire codecs, storage accounting, and the fixture container."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import shared_srs
from pmpdas import cli
from pmpdas.field_poly import SCALAR_MODULUS, scalar_to_bytes
from pmpdas.grid import GridDims, build_grid
from pmpdas.wire import (
    BASELINE_CELL_BYTES, DECODE_ERRORS, BaselineCell, CountMismatch, Fixture,
    GCellBlock, GroupedCells, MCell, NonCanonicalScalarEncoding,
    TruncatedInput, WireError, decode_fixture, decode_grid,
    decode_prove_params, decode_srs, encode_fixture, encode_grid,
    encode_prove_params, encode_srs, storage_report,
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
    with pytest.raises(WireError, match="data must be 32 bytes"):
        BaselineCell(b"\x01" * 48, b"\x00" * 31)
    with pytest.raises(NonCanonicalScalarEncoding):
        BaselineCell.from_bytes(b"\x00" * 48 + b"\xff" * 32)
    # the scalar is parsed and checked once, on construction
    assert cell.value == 5
    assert BaselineCell.from_bytes(blob).value == 5
    with pytest.raises(NonCanonicalScalarEncoding):
        BaselineCell(b"\x01" * 48, SCALAR_MODULUS.to_bytes(32, "little"))


def test_mcell_round_trip():
    rng = random.Random(70)
    for _ in range(50):
        mcell = _rand_mcell(rng)
        blob = mcell.to_bytes()
        assert len(blob) == 48 + 16 + 4 + 32 * mcell.count
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
    with pytest.raises(WireError, match="proof must be 48 bytes"):
        MCell(b"\x00" * 47, mcell.block, mcell.scalars)
    # a count of 0 on the bytes of an empty region
    empty = b"\x00" * 48 + GCellBlock(0, 0, 0, 0).to_bytes() + bytes(4)
    with pytest.raises(WireError, match="empty groups"):
        MCell.from_bytes(empty)


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


@pytest.fixture(scope="module")
def fixture_files(tmp_path_factory):
    """A `gen-fixture` output with a 1x2 grid, and that file proved with
    g = 2: two proof objects."""
    out = tmp_path_factory.mktemp("fixtures")
    fx, fxp = str(out / "fx.bin"), str(out / "fxp.bin")
    assert cli.main(["gen-fixture", "--output", fx,
                     "--rows", "1", "--cols", "2"]) == 0
    assert cli.main(["prove", "--fixture", fx, "--output", fxp,
                     "--group", "2"]) == 0
    return [open(path, "rb").read() for path in (fx, fxp)]


def test_fixture_file_round_trips(fixture_files):
    plain, proved = (Fixture.from_bytes(blob) for blob in fixture_files)
    assert [plain.to_bytes(), proved.to_bytes()] == fixture_files
    assert plain.params is None and plain.mcells == ()
    assert proved.params == (2, 1)
    assert [MCell.from_bytes(obj).block for obj in proved.mcells] == \
        [GCellBlock(0, 1, 0, 2), GCellBlock(0, 1, 2, 4)]
    # a section of another tag is skipped
    note = encode_fixture([("NOTE", b"x")])[5:]
    assert Fixture.from_bytes(fixture_files[1] + note).to_bytes() == \
        fixture_files[1]
    # parameters the 4 extended columns and the degree-3 SRS cannot take,
    # and a k that PRMS cannot write
    for params in ((0, 1), (3, 1), (2, 0), (4, 1), (2, 1 << 32)):
        with pytest.raises(WireError):
            Fixture(plain.srs, plain.grid, params)


def test_cut_or_extended_fixture_file_raises_only_decode_errors(
        fixture_files):
    # a cut at a section boundary after the grid leaves a shorter valid
    # file; every other cut, and every append short of a section header,
    # is a decode error
    for blob, valid_cuts in zip(fixture_files, (0, 3)):
        decoded = 0
        for n in range(len(blob)):
            try:
                value = Fixture.from_bytes(blob[:n])
            except DECODE_ERRORS:
                continue
            decoded += 1
            assert value.to_bytes() == blob[:n]
        assert decoded == valid_cuts
        for extra in range(1, 8):
            with pytest.raises(TruncatedInput):
                Fixture.from_bytes(blob + bytes(extra))


def test_grid_commitments_must_be_those_of_its_rows():
    srs = shared_srs(3)
    grid = build_grid(b"\x07" * 60, GridDims(2, 2, 2), srs)
    blob = encode_grid(grid)
    body, c0, c1 = blob[:-96], blob[-96:-48], blob[-48:]
    for header in (c1 + c0, c0 + c0):
        with pytest.raises(WireError, match="header commitments"):
            decode_grid(body + header, srs)


# ---------------------------------------------------------------------------
# Fuzzing: each decoder raises only WireError, and re-encodes what it
# accepts to the very bytes it read.

def _blocks(max_side=3):
    return st.builds(
        lambda r0, n_rows, c0, n_cols: GCellBlock(r0, r0 + n_rows,
                                                  c0, c0 + n_cols),
        st.integers(0, 2 ** 32 - 1 - max_side), st.integers(0, max_side),
        st.integers(0, 2 ** 32 - 1 - max_side), st.integers(0, max_side))


_scalars = st.integers(0, SCALAR_MODULUS - 1)
_baseline_cells = st.builds(
    BaselineCell, st.binary(min_size=48, max_size=48),
    _scalars.map(scalar_to_bytes))


@st.composite
def _mcells(draw):
    block = draw(_blocks().filter(lambda b: b.n_rows and b.n_cols))
    n = block.n_rows * block.n_cols
    return MCell(draw(st.binary(min_size=48, max_size=48)), block,
                 tuple(draw(st.lists(_scalars, min_size=n, max_size=n))))


@st.composite
def _grouped(draw):
    block = draw(_blocks(max_side=2))
    n = block.n_rows * block.n_cols
    return GroupedCells(block, draw(st.lists(_baseline_cells,
                                             min_size=n, max_size=n)))


_fixture_sections = st.lists(st.tuples(
    st.text(st.characters(max_codepoint=127), min_size=4, max_size=4),
    st.binary(max_size=40)), max_size=4)

# name -> (decode, encode, strategy of valid values)
CODECS = {
    "gcell_block": (GCellBlock.from_bytes, GCellBlock.to_bytes, _blocks()),
    "baseline_cell": (BaselineCell.from_bytes, BaselineCell.to_bytes,
                      _baseline_cells),
    "mcell": (MCell.from_bytes, MCell.to_bytes, _mcells()),
    "grouped_cells": (GroupedCells.from_bytes, GroupedCells.to_bytes,
                      _grouped()),
    "fixture": (decode_fixture, encode_fixture, _fixture_sections),
    "prove_params": (decode_prove_params,
                     lambda params: encode_prove_params(*params),
                     st.tuples(st.integers(0, 2 ** 32 - 1),
                               st.integers(0, 2 ** 32 - 1))),
}


@st.composite
def _damaged(draw, values, encode):
    """A valid encoding with bytes overwritten, cut off or appended."""
    blob = bytearray(encode(draw(values)))
    for _ in range(draw(st.integers(0, 3))):
        if blob and draw(st.booleans()):
            blob[draw(st.integers(0, len(blob) - 1))] = \
                draw(st.integers(0, 255))
    cut = draw(st.integers(0, len(blob)))
    return bytes(blob[:cut] if draw(st.booleans()) else blob) + \
        draw(st.binary(max_size=4))


@pytest.mark.parametrize("codec", sorted(CODECS))
@given(data=st.data())
@settings(max_examples=150)
def test_codec_round_trips(codec, data):
    decode, encode, values = CODECS[codec]
    value = data.draw(values)
    blob = encode(value)
    assert decode(blob) == value
    assert encode(decode(blob)) == blob


@pytest.mark.parametrize("codec", sorted(CODECS))
@given(data=st.data())
@settings(max_examples=300)
def test_decoders_raise_only_wire_errors(codec, data):
    decode, encode, values = CODECS[codec]
    blob = data.draw(st.one_of(st.binary(max_size=200),
                               _damaged(values, encode)))
    try:
        value = decode(blob)
    except WireError:
        return
    assert encode(value) == blob


# The SRS and GRID sections decode curve points, so their decoders may
# also raise CurveError, and decoded values are compared by re-encoding.
# Valid values come from precomputed setups of degree 1-3 and grids of at
# most 2x4 cells, which keeps each example to a few point decodings.
_GRID_SRS_DEGREE = 3


def _srses():
    return st.sampled_from((1, 2, 3)).map(shared_srs)


@st.composite
def _grids(draw):
    # an extension of 3 makes widths that are no power of two, whose row
    # domain is consecutive integers instead of roots of unity
    dims = GridDims(draw(st.integers(1, 2)), draw(st.integers(1, 4)),
                    draw(st.integers(2, 3)))
    data = draw(st.binary(max_size=dims.data_capacity_bytes))
    return build_grid(data, dims, shared_srs(_GRID_SRS_DEGREE))


def _decode_grid(blob):
    return decode_grid(blob, shared_srs(_GRID_SRS_DEGREE))


@st.composite
def _sized_srs_bytes(draw):
    """A degree header and random bytes of the length it implies."""
    d = draw(st.integers(1, 3))
    body = draw(st.binary(min_size=(d + 1) * 144, max_size=(d + 1) * 144))
    return d.to_bytes(4, "little") + body


@st.composite
def _sized_grid_bytes(draw):
    """A small grid header and random bytes of the length it implies."""
    rows, cols = draw(st.integers(1, 2)), draw(st.integers(1, 4))
    width = 2 * cols
    size = width * 32 + rows * width * 32 + rows * 48
    header = b"".join(v.to_bytes(4, "little") for v in (rows, cols, 2))
    return header + draw(st.binary(min_size=size, max_size=size))


@st.composite
def _overwritten(draw, values, encode):
    """A valid encoding with one to three bytes replaced, length kept."""
    blob = bytearray(encode(draw(values)))
    for _ in range(draw(st.integers(1, 3))):
        blob[draw(st.integers(0, len(blob) - 1))] = draw(st.integers(0, 255))
    return bytes(blob)


# name -> (decode, encode, strategy of valid values, strategy of bytes)
POINT_CODECS = {
    "srs": (decode_srs, encode_srs, _srses(), _sized_srs_bytes()),
    "grid": (_decode_grid, encode_grid, _grids(), _sized_grid_bytes()),
}


@pytest.mark.parametrize("codec", sorted(POINT_CODECS))
@given(data=st.data())
@settings(max_examples=20)
def test_point_codec_round_trips(codec, data):
    decode, encode, values, _ = POINT_CODECS[codec]
    blob = encode(data.draw(values))
    assert encode(decode(blob)) == blob


@pytest.mark.parametrize("codec", sorted(POINT_CODECS))
@given(data=st.data())
@settings(max_examples=100)
def test_point_decoders_raise_only_decode_errors(codec, data):
    decode, encode, values, arbitrary = POINT_CODECS[codec]
    blob = data.draw(st.one_of(st.binary(max_size=200), arbitrary,
                               _damaged(values, encode),
                               _overwritten(values, encode)))
    try:
        value = decode(blob)
    except DECODE_ERRORS:
        return
    assert encode(value) == blob


# ---------------------------------------------------------------------------
# One error convention for every decoder: a valid encoding cut by one byte
# is TruncatedInput, and one byte appended is a WireError that is not.

@pytest.mark.parametrize("codec", sorted(CODECS) + sorted(POINT_CODECS))
@given(data=st.data())
@settings(max_examples=20)
def test_short_input_is_truncated_and_long_input_trailing(codec, data):
    decode, encode, values = {**CODECS, **POINT_CODECS}[codec][:3]
    blob = encode(data.draw(values))
    with pytest.raises(TruncatedInput):
        decode(blob[:-1])
    with pytest.raises(WireError) as appended:
        decode(blob + b"\x00")
    # a fixture has no total length: the extra byte opens a section that
    # is cut short
    assert isinstance(appended.value, TruncatedInput) == (codec == "fixture")
