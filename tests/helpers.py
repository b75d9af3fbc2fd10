"""Shared test fixtures: a known-secret setup whose secret the tests keep,
so every group-element result can be recomputed in the scalar field."""

import hashlib

import oracles
from pmpdas import curve
from pmpdas.curve import G1Point, G2Point
from pmpdas.dasnet import group_transcript
from pmpdas.field_poly import (
    SCALAR_MODULUS, Polynomial, div_rem, vanishing_poly,
)
from pmpdas.fields import P, R, fp2_add, fp2_mul, fp2_sqr, fp2_sqrt
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


def small_xs(group):
    """The x coordinates the curve tests try, smallest first: 1..199 on
    G1, x0 + u for x0 in 0..199 on G2."""
    return range(1, 200) if group is G1Point else \
        ((x0, 1) for x0 in range(200))


def curve_y(group, x):
    """A y on the group's curve for x, or None."""
    if group is G1Point:
        y2 = (pow(x, 3, P) + 4) % P
        y = pow(y2, (P + 1) // 4, P)
        return y if y * y % P == y2 else None
    return fp2_sqrt(fp2_add(fp2_mul(fp2_sqr(x), x), (4, 4)))


def non_subgroup_point(group):
    """The on-curve point (x, y) at the first of `small_xs` with a y
    whose multiple by r is not the identity by the oracle ladder: a point
    outside the group's subgroup."""
    for x in small_xs(group):
        y = curve_y(group, x)
        if y is None:
            continue
        pt = group((x, y))
        if not oracles.point_mul(pt, R).is_identity():
            return pt
    raise AssertionError(f"no non-subgroup {group.__name__} found in range")


def record_calls(monkeypatch, owner, name, view) -> list:
    """Replace `owner.name` with a recorder and return the list it fills:
    each later call appends `view(*args, **kwargs)` of its arguments, then
    runs the replaced function and returns its result. A recorder never
    stands in for the code it watches, so a test that counts calls through
    one still checks the real results."""
    calls = []
    real = getattr(owner, name)

    def recorder(*args, **kwargs):
        calls.append(view(*args, **kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, recorder)
    return calls


def inject_fault(monkeypatch, owner, name, error: Exception) -> None:
    """Make every later call of `owner.name` raise `error`."""
    def faulty(*args, **kwargs):
        raise error

    monkeypatch.setattr(owner, name, faulty)


def batch_inverse_calls(monkeypatch) -> list:
    """A list that records the values of every later
    `curve._batch_inverse` call, the one inversion behind every
    normalisation."""
    return record_calls(monkeypatch, curve, "_batch_inverse",
                        lambda values: values)


def oracle_commit(p: Polynomial) -> G1Point:
    """What a commitment to p must equal: [p(secret)] in G1."""
    return g1_at(p.evaluate(ORACLE_SECRET))


def oracle_witness(polys, md, gamma: int) -> G1Point:
    """[h(secret)] in G1 for h the quotient of sum_i gamma^i p_i by the
    vanishing polynomial of the micro-domain `md`, computed entirely in
    the scalar field by polynomial division."""
    combined = Polynomial()
    w = 1
    for p in polys:
        combined = combined + p.scale(w)
        w = w * gamma % SCALAR_MODULUS
    h, _ = div_rem(combined, vanishing_poly(md))
    return g1_at(h.evaluate(ORACLE_SECRET))


def oracle_group_witness(polys, points, gamma: int) -> G1Point:
    """What an aggregated proof over the micro-domain `points` must equal:
    [h(secret)] in G1 for h = sum_i gamma^i (p_i - r_i) / Z, r_i the
    interpolant of p_i on the points and Z their vanishing polynomial,
    each evaluated at the secret by its own formula (Lagrange for r_i)."""
    s, r = ORACLE_SECRET, SCALAR_MODULUS
    z_s = 1
    for z in points:
        z_s = z_s * (s - z) % r
    num, w = 0, 1
    for p in polys:
        r_s = 0
        for j, zj in enumerate(points):
            basis = 1
            for m, zm in enumerate(points):
                if m != j:
                    basis = basis * (s - zm) * pow(zj - zm, -1, r) % r
            r_s += p.evaluate(zj) * basis
        num = (num + w * (p.evaluate(s) - r_s)) % r
        w = w * gamma % r
    return g1_at(num * pow(z_s, -1, r))


# some batch combiner, for tests that need one
TEST_RHO = 0x5EED


def rho_weights(n: int, rho: int = TEST_RHO) -> list:
    """Explicit batch weights 1, rho, .., rho^(n-1) mod r: what the
    oracle's `verify_batch_independent` gives n openings for `rho`."""
    return [pow(rho, i, SCALAR_MODULUS) for i in range(n)]


def rand_scalar(rng) -> int:
    return rng.randrange(SCALAR_MODULUS)


def rand_fp2(rng):
    return (rng.randrange(P), rng.randrange(P))


def rand_fp12(rng):
    return tuple(tuple(rand_fp2(rng) for _ in range(3)) for _ in range(2))


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
