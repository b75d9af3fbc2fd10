"""Curve group law, serialization, and pairing checks."""

import random

import pytest

from pmpdas.curve import (
    CurveError, G1Point, G2Point, g1_msm, g2_msm, multi_pairing, pairing,
    pairing_check,
)
from pmpdas.fields import (
    FP12_ONE, P, R, fp2_add, fp2_mul, fp2_sqr, fp2_sqrt, fp12_pow,
)

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


def _small_xs(group):
    return range(1, 200) if group is G1Point else \
        ((x0, 1) for x0 in range(200))


def _y(group, x):
    """A y on the group's curve for x, or None."""
    if group is G1Point:
        y2 = (pow(x, 3, P) + 4) % P
        y = pow(y2, (P + 1) // 4, P)
        return y if y * y % P == y2 else None
    return fp2_sqrt(fp2_add(fp2_mul(fp2_sqr(x), x), (4, 4)))


def _largest(group, y):
    if group is G1Point:
        return y > P - y
    y0, y1 = y
    return y1 > P - y1 if y1 else y0 > P - y0


def _bad_encodings(group):
    n = 48 if group is G1Point else 96
    off_curve = next(x for x in _small_xs(group) if _y(group, x) is None)
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
    # in each group, find an on-curve x whose point is (overwhelmingly)
    # outside the r-torsion subgroup, then check deserialization refuses it
    for group in (G1Point, G2Point):
        for x in _small_xs(group):
            y = _y(group, x)
            if y is None:
                continue
            blob = _encode(group, x, 0xA0 if _largest(group, y) else 0x80)
            candidate = group.from_bytes(blob, subgroup_check=False)
            assert candidate.to_bytes() == blob
            if not candidate.in_subgroup():
                break
        else:
            pytest.fail(f"no non-subgroup {group.__name__} found in range")
        with pytest.raises(CurveError, match="subgroup"):
            group.from_bytes(blob)


def test_msm_matches_naive_sum():
    rng = random.Random(12)
    pts = [G1Point.generator() * rng.randrange(R) for _ in range(7)]
    scalars = [rng.randrange(R) for _ in range(7)]
    naive = G1Point.identity()
    for p, s in zip(pts, scalars):
        naive = naive + p * s
    assert g1_msm(pts, scalars) == naive
    pts2 = [G2Point.generator() * rng.randrange(R) for _ in range(3)]
    sc2 = [rng.randrange(R) for _ in range(3)]
    naive2 = pts2[0] * sc2[0] + pts2[1] * sc2[1] + pts2[2] * sc2[2]
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
    e = pairing(G1Point.generator(), G2Point.generator())
    assert e != FP12_ONE
    assert fp12_pow(e, R) == FP12_ONE


def test_multi_pairing_skips_identity_pairs():
    g1, g2 = G1Point.generator(), G2Point.generator()
    assert multi_pairing([(G1Point.identity(), g2)]) == FP12_ONE
    assert multi_pairing([(g1, G2Point.identity())]) == FP12_ONE
