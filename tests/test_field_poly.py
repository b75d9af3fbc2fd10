"""Polynomial arithmetic, division, interpolation, and domains."""

import hashlib
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmpdas import field_poly
from pmpdas.field_poly import (
    NEG_INF, SCALAR_MODULUS, EvaluationDomain, FieldPolyError,
    NonCanonicalScalar, Polynomial, div_rem, evaluate_on_domain,
    hash_to_scalar, interpolate, root_of_unity, roots_of_unity_domain,
    scalar_from_bytes, scalar_inv, scalar_to_bytes, vanishing_poly,
)

scalars = st.integers(min_value=0, max_value=SCALAR_MODULUS - 1)
polys = st.lists(scalars, max_size=12).map(Polynomial)


def test_scalar_encoding_round_trip():
    rng = random.Random(20)
    for _ in range(50):
        v = rng.randrange(SCALAR_MODULUS)
        assert scalar_from_bytes(scalar_to_bytes(v)) == v


def test_scalar_encoding_rejects_non_canonical():
    with pytest.raises(NonCanonicalScalar):
        scalar_from_bytes(SCALAR_MODULUS.to_bytes(32, "little"))
    with pytest.raises(NonCanonicalScalar):
        scalar_from_bytes(b"\xff" * 32)
    with pytest.raises(NonCanonicalScalar):
        scalar_from_bytes(b"\x00" * 31)
    with pytest.raises(FieldPolyError):
        scalar_to_bytes(SCALAR_MODULUS)
    with pytest.raises(FieldPolyError):
        scalar_to_bytes(-1)


def test_scalar_inverse():
    rng = random.Random(21)
    v = rng.randrange(1, SCALAR_MODULUS)
    assert v * scalar_inv(v) % SCALAR_MODULUS == 1
    with pytest.raises(ZeroDivisionError):
        scalar_inv(0)


def test_hash_to_scalar_rehashes_a_zero_digest(monkeypatch):
    # a first digest that reduces to 0 is hashed again with the u32
    # counter 1 appended
    zero = SCALAR_MODULUS.to_bytes(64, "big")
    digests = [zero]

    def sha512(data):
        if digests:
            return SimpleNamespace(digest=digests.pop)
        return hashlib.sha512(data)

    monkeypatch.setattr(field_poly, "hashlib", SimpleNamespace(sha512=sha512))
    expected = int.from_bytes(hashlib.sha512(
        zero + (1).to_bytes(4, "big")).digest(), "big") % SCALAR_MODULUS
    assert hash_to_scalar(b"any data") == expected != 0


def test_polynomial_normalization_and_degree():
    assert Polynomial((0, 0, 0)).is_zero()
    assert Polynomial().degree == NEG_INF
    assert Polynomial((5,)).degree == 0
    assert Polynomial((1, 2, 0)).degree == 1
    assert Polynomial((0, 0, 3)).degree == 2


@given(polys, polys, polys)
@settings(max_examples=60)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a - a == Polynomial()


@given(polys, polys)
@settings(max_examples=60)
def test_div_rem_reconstructs(num, den):
    if den.is_zero():
        with pytest.raises(ZeroDivisionError):
            div_rem(num, den)
        return
    q, r = div_rem(num, den)
    assert q * den + r == num
    assert r.degree < den.degree


@given(polys, scalars)
@settings(max_examples=60)
def test_evaluation_is_ring_homomorphism(p, z):
    q = Polynomial((3, 1))
    assert (p + q).evaluate(z) == (p.evaluate(z) + q.evaluate(z)) % SCALAR_MODULUS
    assert (p * q).evaluate(z) == p.evaluate(z) * q.evaluate(z) % SCALAR_MODULUS


def test_interpolate_inverts_evaluation():
    rng = random.Random(22)
    pts = EvaluationDomain(rng.sample(range(1000), 6))
    p = Polynomial([rng.randrange(SCALAR_MODULUS) for _ in range(6)])
    values = [p.evaluate(z) for z in pts]
    assert interpolate(pts, values) == p


def test_interpolate_validates_input():
    with pytest.raises(FieldPolyError):
        interpolate((1, 1), (2, 3))
    with pytest.raises(FieldPolyError):
        interpolate((1, 2), (3,))


def test_vanishing_poly_roots():
    pts = (3, 7, 11)
    z = vanishing_poly(pts)
    assert z.degree == 3
    assert z.coeffs[-1] == 1  # monic
    for p in pts:
        assert z.evaluate(p) == 0
    assert z.evaluate(5) != 0
    with pytest.raises(FieldPolyError):
        vanishing_poly(())


def test_domains_require_distinct_points():
    with pytest.raises(FieldPolyError):
        EvaluationDomain((1, 2, 1))
    with pytest.raises(FieldPolyError):
        EvaluationDomain((4, 4))
    with pytest.raises(FieldPolyError):
        EvaluationDomain(())
    md = EvaluationDomain((9, 10), offset=4)
    assert md.size == 2 and md.offset == 4


def test_roots_of_unity_domain():
    dom = roots_of_unity_domain(8)
    w = root_of_unity(8)
    assert pow(w, 8, SCALAR_MODULUS) == 1
    assert pow(w, 4, SCALAR_MODULUS) != 1
    assert len(set(dom.points)) == 8
    with pytest.raises(FieldPolyError):
        root_of_unity(3 * 2 ** 40)  # not a divisor of the group order


def test_interpolation_inverts_evaluate_on_domain():
    # a polynomial of degree < |dom| is the interpolant of its own values
    rng = random.Random(23)
    for dom in (roots_of_unity_domain(8), EvaluationDomain(range(5))):
        for n in range(len(dom) + 1):
            p = Polynomial([rng.randrange(SCALAR_MODULUS) for _ in range(n)])
            assert interpolate(dom, evaluate_on_domain(p, dom)) == p
