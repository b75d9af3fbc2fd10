"""Curve group law, serialization, and pairing checks."""

import random

import pytest

import oracles
from helpers import (
    batch_inverse_calls, curve_y, non_subgroup_point, small_xs,
)
from oracles import fp12_pow
from pmpdas.curve import (
    CurveError, G1Point, G2Point, _miller_loop, fixed_base_muls,
    g1_fixed_base_msms, g1_fixed_base_tables, g1_msm, g1_msms, g2_msm,
    multi_pairing, pairing_check,
)
from pmpdas.fields import FP12_ONE, P, R, fp2_add, fp2_mul, fp2_sqr
from pmpdas.kzg import gen

# Standard compressed encodings of the subgroup generators.
G1_GEN_HEX = (
    "97f1d3a73197d7942695638c4fa9ac0fc3688c4f9774b905a14e3a3f171bac58"
    "6c55e83ff97a1aeffb3af00adb22c6bb")
G2_GEN_HEX = (
    "93e02b6052719f607dacd3a088274f65596bd0d09920b61ab5da61bbdc7f5049"
    "334cf11213945d57e5ac7d055d042b7e024aa2b2f08f0a91260805272dc51051"
    "c6e47ad4fa403b02b4510b647ae3d1770bac0326a805bbefd48056c8c121bdb8")


def test_generator_serialization_vectors():
    assert G1Point.generator().to_bytes().hex() == G1_GEN_HEX
    assert G2Point.generator().to_bytes().hex() == G2_GEN_HEX


def test_point_round_trips():
    rng = random.Random(10)
    for _ in range(8):
        k = rng.randrange(R)
        p1 = G1Point.generator() * k
        assert G1Point.from_bytes(p1.to_bytes()) == p1
        p2 = G2Point.generator() * k
        assert G2Point.from_bytes(p2.to_bytes()) == p2


def test_identity_encoding():
    inf1 = G1Point.identity()
    blob = inf1.to_bytes()
    assert blob[0] == 0xC0 and set(blob[1:]) == {0}
    assert G1Point.from_bytes(blob) == inf1
    inf2 = G2Point.identity()
    assert G2Point.from_bytes(inf2.to_bytes()) == inf2


def test_group_law_consistency():
    rng = random.Random(11)
    g = G1Point.generator()
    a, b = rng.randrange(R), rng.randrange(R)
    assert g * a + g * b == g * ((a + b) % R)
    assert g * a - g * a == G1Point.identity()
    assert -(g * a) == g * (R - a)
    h = G2Point.generator()
    assert h * a + h * b == h * ((a + b) % R)


def test_scalar_multiplication_by_group_order():
    assert G1Point.generator() * R == G1Point.identity()
    assert G2Point.generator() * R == G2Point.identity()


def _encode(group, x, flags=0x80):
    """x big-endian (c1 before c0 in Fp2) with `flags` in the top bits."""
    if group is G1Point:
        body = x.to_bytes(48, "big")
    else:
        body = x[1].to_bytes(48, "big") + x[0].to_bytes(48, "big")
    return bytes([body[0] | flags]) + body[1:]


def _largest(group, y):
    if group is G1Point:
        return y > P - y
    y0, y1 = y
    return y1 > P - y1 if y1 else y0 > P - y0


def _bad_encodings(group):
    n = 48 if group is G1Point else 96
    off_curve = next(x for x in small_xs(group) if curve_y(group, x) is None)
    cases = [
        ("empty", b"", "encoding must be"),
        ("short", b"\xc0" + bytes(n - 2), "encoding must be"),
        ("long", b"\xc0" + bytes(n), "encoding must be"),
        ("uncompressed", bytes(n), "uncompressed"),
        ("infinity-tail", b"\xc0\x01" + bytes(n - 2), "infinity"),
        ("infinity-sign", b"\xe0" + bytes(n - 1), "infinity"),
        ("all-ones", b"\xff" * n, "infinity"),
        ("x-all-ones", b"\x9f" + b"\xff" * (n - 1), "not canonical"),
        ("off-curve", _encode(group, off_curve), "not on the curve"),
    ]
    if group is G1Point:
        cases.append(("x-is-p", _encode(group, P), "not canonical"))
    else:
        cases += [("x0-is-p", _encode(group, (P, 0)), "not canonical"),
                  ("x1-is-p", _encode(group, (0, P)), "not canonical")]
    return [pytest.param(group, bad, match,
                         id=f"{group.__name__[:2]}-{name}")
            for name, bad, match in cases]


@pytest.mark.parametrize("group, bad, match",
                         _bad_encodings(G1Point) + _bad_encodings(G2Point))
def test_invalid_encodings_rejected(group, bad, match):
    with pytest.raises(CurveError, match=match):
        group.from_bytes(bad)


def test_non_subgroup_point_rejected():
    # in each group, take an on-curve point outside the r-torsion
    # subgroup, then check deserialization refuses it
    for group in (G1Point, G2Point):
        candidate = non_subgroup_point(group)
        x, y = candidate.raw
        blob = _encode(group, x, 0xA0 if _largest(group, y) else 0x80)
        assert candidate.to_bytes() == blob
        assert not candidate.in_subgroup()
        with pytest.raises(CurveError, match="subgroup"):
            group.from_bytes(blob)


def test_msm_matches_naive_sum():
    rng = random.Random(12)
    pts = [G1Point.generator() * rng.randrange(R) for _ in range(7)]
    scalars = [rng.randrange(R) for _ in range(7)]
    naive = oracles.g1_msm(pts, scalars)
    assert g1_msm(pts, scalars) == naive
    pts2 = [G2Point.generator() * rng.randrange(R) for _ in range(3)]
    sc2 = [rng.randrange(R) for _ in range(3)]
    naive2 = oracles.g2_msm(pts2, sc2)
    assert g2_msm(pts2, sc2) == naive2


def test_pairing_bilinearity():
    rng = random.Random(13)
    g1, g2 = G1Point.generator(), G2Point.generator()
    a, b = rng.randrange(1, R), rng.randrange(1, R)
    # e(aP, bQ) == e(abP, Q): product with the inverse must be one
    assert pairing_check([(g1 * a, g2 * b), (-(g1 * (a * b % R)), g2)])
    # and not one when the scalars disagree
    assert not pairing_check([(g1 * a, g2 * b), (-(g1 * (a * b % R + 1)), g2)])


def test_pairing_nondegenerate_and_r_torsion():
    e = multi_pairing([(G1Point.generator(), G2Point.generator())])
    assert e != FP12_ONE
    assert fp12_pow(e, R) == FP12_ONE


def test_multi_pairing_skips_identity_pairs():
    g1, g2 = G1Point.generator(), G2Point.generator()
    assert multi_pairing([(G1Point.identity(), g2)]) == FP12_ONE
    assert multi_pairing([(g1, G2Point.identity())]) == FP12_ONE


# ---------------------------------------------------------------------------
# A point is its affine coordinates

def _assert_affine(group, pt):
    """pt is a point of the group whose raw is None, or an on-curve pair
    of coordinates reduced mod p."""
    assert type(pt) is group
    if pt.raw is None:
        return
    x, y = pt.raw
    if group is G1Point:
        coords = (x, y)
        on_curve = (y * y - x * x * x - 4) % P == 0
    else:
        coords = x + y
        on_curve = fp2_sqr(y) == fp2_add(fp2_mul(fp2_sqr(x), x), (4, 4))
    assert len(coords) == (2 if group is G1Point else 4)
    assert all(type(c) is int and 0 <= c < P for c in coords)
    assert on_curve


@pytest.mark.parametrize("group", [G1Point, G2Point], ids=["g1", "g2"])
def test_public_apis_return_affine_points(group):
    g, o = group.generator(), group.identity()
    k = random.Random(16).randrange(R)
    five = g * 5
    results = [o, g, group.from_bytes(five.to_bytes()),
               group.from_bytes(o.to_bytes()), -five, -o, five - g,
               five - five, five + g, five + five, five + -five, o + five,
               five + o, o + o, g * 0, g * k, g * R, k * g]
    results += fixed_base_muls(five, [0, 1, k, R - 1])
    results += fixed_base_muls(o, [0, k])
    srs = gen(3, 12345)
    results += srs.g1_powers if group is G1Point else srs.g2_powers
    # the first row cancels to the identity, the second does not
    points, rows = [g, five, -g], [[k, 0, k], [k, 1, 0]]
    if group is G1Point:
        msms = [*g1_msms(points, rows), *(g1_msm(points, r) for r in rows),
                *g1_fixed_base_msms(g1_fixed_base_tables(points), rows)]
    else:
        msms = [g2_msm(points, r) for r in rows]
    assert [pt.is_identity() for pt in msms] == [True, False] * \
        (len(msms) // 2)
    for pt in results + msms:
        _assert_affine(group, pt)


@pytest.mark.parametrize("group", [G1Point, G2Point], ids=["g1", "g2"])
def test_reading_a_point_inverts_nothing(monkeypatch, group):
    g = group.generator()
    points = [g * 5, -(g * 7), group.identity()]
    if group is G1Point:
        pairs = [(pt, G2Point.generator()) for pt in points]
    else:
        pairs = [(G1Point.generator(), pt) for pt in points]
    calls = batch_inverse_calls(monkeypatch)
    for pt in points:
        pt.to_bytes()
        assert (pt == points[0]) == (pt is points[0])
        hash(pt)
        -pt
    _miller_loop(pairs)
    assert calls == []
