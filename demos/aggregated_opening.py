"""One proof for a whole group of cells.

Builds a small erasure-coded grid, aggregates the openings of one
micro-domain across both rows into a single 48-byte proof, and verifies
it while counting the operations each side performed.
"""

import random

from pmpdas import (
    GCellBlock, GridDims, OpCounters, OpenedGroup, Transcript, build_grid,
    build_opened_group, derive_gamma, gen, open_shared,
    partition_micro_domains, verify_shared,
)

rng = random.Random(7)
# rows of degree 7: a group of g = 4 cells leaves a quotient of degree 3,
# so the proof is not the identity point
dims = GridDims(rows=2, cols=8, extension_factor=2)
srs = gen(dims.extended_cols - 1, secret=rng.randrange(2 ** 128))
data = bytes(rng.randrange(256) for _ in range(dims.data_capacity_bytes))
grid = build_grid(data, dims, srs)
print(f"grid: {dims.rows} rows x {dims.extended_cols} extended columns, "
      f"{len(data)} data bytes")

# the row domain splits into micro-domains of four points each
g = 4
mds = partition_micro_domains(grid.row_domain, g)
md = mds[1]
group = build_opened_group(grid, range(dims.rows), md)
print(f"group covers columns {md.offset}..{md.offset + g - 1} of every row: "
      f"{sum(len(v) for v in group.values)} scalars")

# the challenge binds the commitments, the points, the claimed values and
# the block region
transcript = Transcript(
    srs_id=srs.srs_id,
    commitments=tuple(group.commitments),
    micro_domain=md,
    coords=tuple((r, c) for r in range(dims.rows)
                 for c in range(md.offset, md.offset + g)),
    gcell_block=GCellBlock(0, dims.rows, md.offset, md.offset + g),
    values=tuple(v for row in group.values for v in row),
)
gamma = derive_gamma(transcript)

prover = OpCounters()
proof = open_shared(srs, grid.row_polys, md, gamma, counters=prover)
print(f"\nprover:   {prover.as_dict()}  (48-byte proof)")
print(f"proof is the identity point: {proof.is_identity()}")

verifier = OpCounters()
ok = verify_shared(srs, group, proof, gamma, counters=verifier)
print(f"verifier: {verifier.as_dict()}  -> accepted: {ok}")

# a single flipped scalar is caught
bad = [list(v) for v in group.values]
bad[0][0] += 1
tampered = OpenedGroup(group.commitments, bad, md)
print(f"tampered value accepted: {verify_shared(srs, tampered, proof, gamma)}")
