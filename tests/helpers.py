"""Shared test fixtures: a known-secret setup whose secret the tests keep,
so every group-element result can be recomputed in the scalar field."""

import hashlib

from pmpdas.curve import G1Point, G2Point
from pmpdas.dasnet import group_transcript
from pmpdas.field_poly import SCALAR_MODULUS, Polynomial
from pmpdas.kzg import SRS, gen
from pmpdas.multiproof import derive_gamma
from pmpdas.wire import MCell

# The whole point of the oracle: tests know the setup secret, production
# callers never do.
ORACLE_SECRET = int.from_bytes(
    hashlib.sha256(b"known-secret-test-oracle").digest(), "big") % SCALAR_MODULUS

_SRS_CACHE: dict[int, SRS] = {}


def shared_srs(degree_bound: int) -> SRS:
    srs = _SRS_CACHE.get(degree_bound)
    if srs is None:
        srs = gen(degree_bound, ORACLE_SECRET)
        _SRS_CACHE[degree_bound] = srs
    return srs


def g1_at(value: int) -> G1Point:
    return G1Point.generator() * (value % SCALAR_MODULUS)


def g2_at(value: int) -> G2Point:
    return G2Point.generator() * (value % SCALAR_MODULUS)


def oracle_commit(p: Polynomial) -> G1Point:
    """What a commitment to p must equal: [p(secret)] in G1."""
    return g1_at(p.evaluate(ORACLE_SECRET))


# some batch combiner, for tests that need one
TEST_RHO = 0x5EED


def rho_weights(n: int, rho: int = TEST_RHO) -> list:
    """Explicit batch weights 1, rho, .., rho^(n-1) mod r: what the
    oracle's `verify_batch_independent` gives n openings for `rho`."""
    return [pow(rho, i, SCALAR_MODULUS) for i in range(n)]


def rand_scalar(rng) -> int:
    return rng.randrange(SCALAR_MODULUS)


def rand_poly(rng, degree: int) -> Polynomial:
    if degree < 0:
        return Polynomial()
    coeffs = [rand_scalar(rng) for _ in range(degree + 1)]
    coeffs[-1] = coeffs[-1] or 1
    return Polynomial(coeffs)


def shift_between_rows(ctx, location, obj: bytes, row: int, col: int,
                       delta: int) -> bytes:
    """The pmp object `obj` stored for `location` with delta*gamma added
    to the value of its band row `row` and delta taken from row `row` + 1
    at its column `col`, for gamma the challenge of `obj`'s own values:
    the gamma-combination of the rows, which the proof opens, does not
    move."""
    mcell = MCell.from_bytes(obj)
    gamma = derive_gamma(group_transcript(ctx, location, mcell.scalars))
    g = location.n_cols
    scalars = list(mcell.scalars)
    scalars[row * g + col] = (scalars[row * g + col] + delta * gamma) \
        % SCALAR_MODULUS
    scalars[(row + 1) * g + col] = (scalars[(row + 1) * g + col] - delta) \
        % SCALAR_MODULUS
    return MCell(mcell.proof, mcell.block, scalars).to_bytes()
