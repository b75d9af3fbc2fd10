"""Tower-field arithmetic properties."""

import random

import pytest

from helpers import rand_fp2, rand_fp12
from oracles import fp12_pow
from pmpdas import fields as F


def test_fp2_field_axioms():
    rng = random.Random(1)
    for _ in range(20):
        a, b, c = (rand_fp2(rng) for _ in range(3))
        assert F.fp2_mul(a, b) == F.fp2_mul(b, a)
        assert F.fp2_mul(F.fp2_mul(a, b), c) == F.fp2_mul(a, F.fp2_mul(b, c))
        assert F.fp2_mul(a, F.fp2_add(b, c)) == \
            F.fp2_add(F.fp2_mul(a, b), F.fp2_mul(a, c))
        assert F.fp2_sqr(a) == F.fp2_mul(a, a)
        if not F.fp2_is_zero(a):
            assert F.fp2_mul(a, F.fp2_inv(a)) == F.FP2_ONE


def test_fp2_sqrt_of_squares():
    rng = random.Random(2)
    roots = [rand_fp2(rng) for _ in range(20)]
    b = rng.randrange(1, F.P)
    # (0, b) squares to the real -b^2, whose root takes the alpha = -1
    # branch; (b, 0) has a root with c1 = 0; (0, 0) has the root zero
    largest = F.fp2_lexicographically_largest
    for a in roots + [(0, b), (b, 0), F.FP2_ZERO]:
        root = F.fp2_sqrt(F.fp2_sqr(a))
        assert root in (a, F.fp2_neg(a))
        # the sign bit of G2 compression: exactly one of a nonzero root
        # and its negation is the lexicographically largest
        assert largest(root) != largest(F.fp2_neg(root)) or a == F.FP2_ZERO
    # (1, 1) has norm 2, a non-residue mod p (p = 3 mod 8)
    assert F.P % 8 == 3
    assert F.fp2_sqrt((1, 1)) is None


def test_fp2_frobenius_is_conjugation():
    rng = random.Random(3)
    for _ in range(10):
        a = rand_fp2(rng)
        assert F.fp2_pow(a, F.P) == F.fp2_conj(a)


def test_fp12_inverse_and_square():
    rng = random.Random(4)
    for _ in range(5):
        a = rand_fp12(rng)
        assert F.fp12_mul(a, F.fp12_inv(a)) == F.FP12_ONE
        assert F.fp12_sqr(a) == F.fp12_mul(a, a)


def test_fp12_frobenius_matches_pth_power():
    rng = random.Random(5)
    a = rand_fp12(rng)
    assert F.fp12_frobenius(a) == fp12_pow(a, F.P)


def test_final_exponentiation_lands_in_r_torsion():
    rng = random.Random(6)
    for _ in range(3):
        y = F.final_exponentiation(rand_fp12(rng))
        assert fp12_pow(y, F.R) == F.FP12_ONE
        assert y != F.FP12_ONE  # random input is not in the kernel


def _tower_as_poly(a, sympy, X, domain):
    """Image of a tower element in Fp[X]/(X^12 - 2X^6 + 2) under w -> X,
    so v = X^2 and u = X^6 - 1."""
    terms = 0
    for j, half in enumerate(a):  # coefficient of w^j
        for i, (c0, c1) in enumerate(half):  # coefficient of v^i
            terms += (c0 + c1 * (X**6 - 1)) * X**(2 * i + j)
    return sympy.Poly(terms, X, domain=domain)


def test_tower_matches_polynomial_quotient_ring():
    # the u^2 = -1, v^3 = 1 + u, w^2 = v tower is Fp[X]/(X^12 - 2X^6 + 2):
    # u = w^6 - 1 and u^2 + 1 = w^12 - 2w^6 + 2
    sympy = pytest.importorskip("sympy")
    X = sympy.symbols("X")
    domain = sympy.GF(F.P)
    modulus = sympy.Poly(X**12 - 2 * X**6 + 2, X, domain=domain)

    def image(a):
        return _tower_as_poly(a, sympy, X, domain)

    rng = random.Random(7)
    for _ in range(5):
        a, b = rand_fp12(rng), rand_fp12(rng)
        assert image(F.fp12_mul(a, b)) == (image(a) * image(b)).rem(modulus)
        # a unitary element: the easy part of the final exponentiation
        f = F.fp12_mul(F.fp12_conj(a), F.fp12_inv(a))
        f = F.fp12_mul(F.fp12_frobenius_n(f, 2), f)
        assert image(F.fp12_cyclotomic_sqr(f)) == \
            (image(f) * image(f)).rem(modulus)
