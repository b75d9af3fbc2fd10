"""Erasure-coded grid construction and grouping geometry."""

import random

import pytest

from helpers import shared_srs
from pmpdas.field_poly import (
    SCALAR_MODULUS, EvaluationDomain, interpolate, root_of_unity,
    roots_of_unity_domain,
)
from pmpdas.grid import (
    CHUNK_BYTES, Coordinate, GridDims, GridError, build_grid,
    build_opened_group, bytes_to_scalars, default_row_domain, iter_groups,
    partition_micro_domains,
)


def _grid(rows=2, cols=4, ext=2, seed=60):
    rng = random.Random(seed)
    dims = GridDims(rows, cols, ext)
    data = bytes(rng.randrange(256) for _ in range(dims.data_capacity_bytes))
    return data, build_grid(data, dims, shared_srs(dims.extended_cols - 1))


def test_dims_validation_and_capacity():
    dims = GridDims(4, 8, 2)
    assert dims.extended_cols == 16
    assert dims.extended_cells == 64
    assert dims.data_capacity_bytes == 4 * 8 * CHUNK_BYTES
    with pytest.raises(GridError):
        GridDims(0, 4)
    with pytest.raises(GridError):
        GridDims(4, 4, 1)  # no actual extension


def test_bytes_to_scalars_chunking():
    data = bytes(range(CHUNK_BYTES + 3))
    scalars = bytes_to_scalars(data, 4)
    assert scalars[0] == int.from_bytes(data[:CHUNK_BYTES], "little")
    assert scalars[1] == int.from_bytes(data[CHUNK_BYTES:], "little")
    assert scalars[2:] == [0, 0]
    with pytest.raises(GridError):
        bytes_to_scalars(bytes(CHUNK_BYTES * 3), 2)


def test_grid_is_systematic():
    data, grid = _grid()
    scalars = bytes_to_scalars(data, 2 * 4)
    for r in range(2):
        assert list(grid.cells[r][:4]) == scalars[r * 4:(r + 1) * 4]
        assert len(grid.cells[r]) == 8


def test_extension_is_consistent_interpolation():
    # the RS oracle: any cols-sized subset of an extended row determines
    # the same row polynomial
    _, grid = _grid()
    rng = random.Random(61)
    for r in range(2):
        idx = sorted(rng.sample(range(8), 4))
        pts = EvaluationDomain([grid.row_domain.points[i] for i in idx])
        vals = [grid.cells[r][i] for i in idx]
        assert interpolate(pts, vals) == grid.row_polys[r]


def test_commitments_cover_each_row():
    from pmpdas.kzg import commit
    _, grid = _grid()
    srs = shared_srs(7)
    for r in range(2):
        assert grid.row_commitments[r] == commit(srs, grid.row_polys[r])


def test_build_grid_rejects_oversized_data():
    dims = GridDims(1, 2, 2)
    with pytest.raises(GridError):
        build_grid(bytes(dims.data_capacity_bytes + 1), dims, shared_srs(3))


def test_build_grid_respects_srs_bound():
    dims = GridDims(1, 8, 2)
    with pytest.raises(GridError):
        build_grid(b"", dims, shared_srs(4))


def test_default_row_domain_selection():
    pow2 = default_row_domain(8)
    assert len(pow2) == 8
    assert pow2.points[0] == 1
    # bit-reversed order of the roots of unity w^0..w^7
    w = root_of_unity(8)
    assert pow2.points == tuple(pow(w, e, SCALAR_MODULUS)
                                for e in (0, 4, 2, 6, 1, 5, 3, 7))
    odd = default_row_domain(6)
    assert odd.points == tuple(range(6))

    for n in (2, 4, 8, 16, 32):
        domain = default_row_domain(n)
        for g in (1, 2, 4, 8, 16, 32)[:n.bit_length()]:
            # every block is a coset h*H_g, vanishing on X^g - h^g: one
            # g-th power each
            for md in partition_micro_domains(domain, g):
                assert len({pow(z, g, SCALAR_MODULUS) for z in md}) == 1
        for cols in (n // 2, n // 4):
            if cols:
                # the systematic columns are the order-cols subgroup
                subgroup = set(roots_of_unity_domain(cols).points)
                assert set(domain.points[:cols]) == subgroup


def test_partition_micro_domains():
    _, grid = _grid()
    mds = partition_micro_domains(grid.row_domain, 4)
    assert len(mds) == 2
    assert mds[0].offset == 0 and mds[1].offset == 4
    assert mds[0].points == grid.row_domain.points[:4]
    assert mds[1].points == grid.row_domain.points[4:]
    with pytest.raises(GridError):
        partition_micro_domains(grid.row_domain, 3)


def test_build_opened_group():
    _, grid = _grid()
    mds = partition_micro_domains(grid.row_domain, 4)
    group = build_opened_group(grid, range(0, 2), mds[1])
    assert len(group.commitments) == 2
    assert group.values == (tuple(grid.cells[0][4:8]),
                            tuple(grid.cells[1][4:8]))
    with pytest.raises(GridError):
        build_opened_group(grid, range(0, 3), mds[0])
    foreign = EvaluationDomain((100, 101, 102, 103), offset=0)
    with pytest.raises(GridError):
        build_opened_group(grid, range(0, 2), foreign)


def test_iter_groups_covers_grid_once():
    _, grid = _grid()
    seen = list(iter_groups(grid, 4))
    assert [key for key, _, _ in seen] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    covered = set()
    for _, band, md in seen:
        for r in band:
            for c in range(md.offset, md.offset + md.size):
                assert (r, c) not in covered
                covered.add((r, c))
    assert len(covered) == grid.dims.extended_cells


@pytest.mark.parametrize("rows_per_group", [0, -1])
def test_iter_groups_rejects_rows_per_group_below_one(rows_per_group):
    _, grid = _grid()
    with pytest.raises(GridError):
        list(iter_groups(grid, 4, rows_per_group))


def test_cell_lookup_bounds():
    _, grid = _grid()
    grid.check_bounds(Coordinate(1, 7))
    with pytest.raises(GridError):
        grid.check_bounds(Coordinate(2, 0))
    with pytest.raises(GridError):
        grid.check_bounds(Coordinate(0, 8))
