"""Tower field arithmetic for BLS12-381.

Elements are plain tuples of ints reduced mod P:

* Fp    -- int
* Fp2   -- (c0, c1) meaning c0 + c1*u with u^2 = -1
* Fp6   -- (a0, a1, a2) over Fp2 with v^3 = xi, xi = 1 + u
* Fp12  -- (b0, b1) over Fp6 with w^2 = v

Keeping everything as tuples of ints (rather than classes) keeps the hot
loops in the pairing free of attribute lookups.
"""

# Base field modulus and the scalar field (curve) order.
P = 0x1A0111EA397FE69A4B1BA7B6434BACD764774B84F38512BF6730D2A0F6B0F6241EABFFFEB153FFFFB9FEFFFFFFFFAAAB
R = 0x73EDA753299D7D483339D80809A1D80553BDA402FFFE5BFEFFFFFFFF00000001

# |x| for the BLS parameter x = -0xd201000000010000.
BLS_X = 0xD201000000010000
BLS_X_BITS = bin(BLS_X)[3:]  # bits of |x| below the leading one

FP2_ZERO = (0, 0)
FP2_ONE = (1, 0)
FP6_ZERO = (FP2_ZERO, FP2_ZERO, FP2_ZERO)
FP6_ONE = (FP2_ONE, FP2_ZERO, FP2_ZERO)
FP12_ONE = (FP6_ONE, FP6_ZERO)


# ---------------------------------------------------------------------------
# Fp2

def fp2_add(a, b):
    return ((a[0] + b[0]) % P, (a[1] + b[1]) % P)


def fp2_sub(a, b):
    return ((a[0] - b[0]) % P, (a[1] - b[1]) % P)


def fp2_neg(a):
    return (-a[0] % P, -a[1] % P)


def fp2_mul(a, b):
    a0, a1 = a
    b0, b1 = b
    t0 = a0 * b0
    t1 = a1 * b1
    return ((t0 - t1) % P, ((a0 + a1) * (b0 + b1) - t0 - t1) % P)


def fp2_sqr(a):
    a0, a1 = a
    return ((a0 + a1) * (a0 - a1) % P, 2 * a0 * a1 % P)


def fp2_scalar_mul(a, k):
    return (a[0] * k % P, a[1] * k % P)


def fp2_conj(a):
    return (a[0], -a[1] % P)


def fp2_inv(a):
    a0, a1 = a
    d = pow(a0 * a0 + a1 * a1, -1, P)
    return (a0 * d % P, -a1 * d % P)


def fp2_mul_by_xi(a):
    # multiply by xi = 1 + u
    a0, a1 = a
    return ((a0 - a1) % P, (a0 + a1) % P)


def fp2_pow(a, e):
    result = FP2_ONE
    base = a
    while e:
        if e & 1:
            result = fp2_mul(result, base)
        base = fp2_sqr(base)
        e >>= 1
    return result


def fp2_is_zero(a):
    return a[0] == 0 and a[1] == 0


def fp2_sqrt(a):
    """Square root in Fp2 (p = 3 mod 4), or None if a is not a square."""
    if fp2_is_zero(a):
        return FP2_ZERO
    a1 = fp2_pow(a, (P - 3) // 4)
    alpha = fp2_mul(fp2_sqr(a1), a)
    x0 = fp2_mul(a1, a)
    if alpha == (P - 1, 0):
        x = fp2_mul((0, 1), x0)
    else:
        b = fp2_pow(fp2_add(FP2_ONE, alpha), (P - 1) // 2)
        x = fp2_mul(b, x0)
    if fp2_sqr(x) != a:
        return None
    return x


def fp2_lexicographically_largest(a):
    """True if a > -a with (c1, c0) compared most-significant-first."""
    a0, a1 = a
    if a1 != 0:
        return a1 > P - a1
    return a0 != 0 and a0 > P - a0


# ---------------------------------------------------------------------------
# Fp6

def fp6_add(a, b):
    return (fp2_add(a[0], b[0]), fp2_add(a[1], b[1]), fp2_add(a[2], b[2]))


def fp6_sub(a, b):
    return (fp2_sub(a[0], b[0]), fp2_sub(a[1], b[1]), fp2_sub(a[2], b[2]))


def fp6_neg(a):
    return (fp2_neg(a[0]), fp2_neg(a[1]), fp2_neg(a[2]))


def fp6_mul(a, b):
    a0, a1, a2 = a
    b0, b1, b2 = b
    t0 = fp2_mul(a0, b0)
    t1 = fp2_mul(a1, b1)
    t2 = fp2_mul(a2, b2)
    c0 = fp2_add(t0, fp2_mul_by_xi(
        fp2_sub(fp2_sub(fp2_mul(fp2_add(a1, a2), fp2_add(b1, b2)), t1), t2)))
    c1 = fp2_add(
        fp2_sub(fp2_sub(fp2_mul(fp2_add(a0, a1), fp2_add(b0, b1)), t0), t1),
        fp2_mul_by_xi(t2))
    c2 = fp2_add(
        fp2_sub(fp2_sub(fp2_mul(fp2_add(a0, a2), fp2_add(b0, b2)), t0), t2),
        t1)
    return (c0, c1, c2)


def fp6_sqr(a):
    return fp6_mul(a, a)


def fp6_mul_by_v(a):
    return (fp2_mul_by_xi(a[2]), a[0], a[1])


def fp6_inv(a):
    a0, a1, a2 = a
    c0 = fp2_sub(fp2_sqr(a0), fp2_mul_by_xi(fp2_mul(a1, a2)))
    c1 = fp2_sub(fp2_mul_by_xi(fp2_sqr(a2)), fp2_mul(a0, a1))
    c2 = fp2_sub(fp2_sqr(a1), fp2_mul(a0, a2))
    t = fp2_inv(fp2_add(
        fp2_mul(a0, c0),
        fp2_mul_by_xi(fp2_add(fp2_mul(a2, c1), fp2_mul(a1, c2)))))
    return (fp2_mul(c0, t), fp2_mul(c1, t), fp2_mul(c2, t))


# ---------------------------------------------------------------------------
# Fp12

def fp12_mul(a, b):
    a0, a1 = a
    b0, b1 = b
    t0 = fp6_mul(a0, b0)
    t1 = fp6_mul(a1, b1)
    c0 = fp6_add(t0, fp6_mul_by_v(t1))
    c1 = fp6_sub(fp6_sub(fp6_mul(fp6_add(a0, a1), fp6_add(b0, b1)), t0), t1)
    return (c0, c1)


def fp12_sqr(a):
    a0, a1 = a
    t = fp6_mul(a0, a1)
    c0 = fp6_sub(
        fp6_sub(fp6_mul(fp6_add(a0, a1), fp6_add(a0, fp6_mul_by_v(a1))), t),
        fp6_mul_by_v(t))
    return (c0, fp6_add(t, t))


def fp12_conj(a):
    return (a[0], fp6_neg(a[1]))


def fp12_inv(a):
    a0, a1 = a
    t = fp6_inv(fp6_sub(fp6_sqr(a0), fp6_mul_by_v(fp6_sqr(a1))))
    return (fp6_mul(a0, t), fp6_neg(fp6_mul(a1, t)))


def fp12_pow(a, e):
    result = FP12_ONE
    base = a
    while e:
        if e & 1:
            result = fp12_mul(result, base)
        base = fp12_sqr(base)
        e >>= 1
    return result


# Frobenius coefficients: gamma_i = xi^(i*(p-1)/6) for i = 1..5.
_FROB_GAMMA = [fp2_pow(fp2_mul_by_xi(FP2_ONE), i * (P - 1) // 6) for i in range(6)]


def fp12_frobenius(a):
    """Raise to the p-th power (one Frobenius application)."""
    (a0, a1, a2), (a3, a4, a5) = a
    a0 = fp2_conj(a0)
    a1 = fp2_mul(fp2_conj(a1), _FROB_GAMMA[2])
    a2 = fp2_mul(fp2_conj(a2), _FROB_GAMMA[4])
    a3 = fp2_mul(fp2_conj(a3), _FROB_GAMMA[1])
    a4 = fp2_mul(fp2_conj(a4), _FROB_GAMMA[3])
    a5 = fp2_mul(fp2_conj(a5), _FROB_GAMMA[5])
    return ((a0, a1, a2), (a3, a4, a5))


def fp12_frobenius_n(a, n):
    for _ in range(n):
        a = fp12_frobenius(a)
    return a


def _fp4_sqr(a, b):
    """(a + b*s)^2 in Fp4 = Fp2[s]/(s^2 - xi) for a, b in Fp2.

    Returns the four unreduced integer coordinates of the two Fp2 halves.
    """
    a0, a1 = a
    b0, b1 = b
    t00 = (a0 + a1) * (a0 - a1)
    t01 = 2 * a0 * a1
    t10 = (b0 + b1) * (b0 - b1)
    t11 = 2 * b0 * b1
    s0 = a0 + b0
    s1 = a1 + b1
    return (t00 + t10 - t11, t01 + t10 + t11,
            (s0 + s1) * (s0 - s1) - t00 - t10, 2 * s0 * s1 - t01 - t11)


def fp12_cyclotomic_sqr(a):
    """Square an element of the cyclotomic subgroup (Granger-Scott, PKC 2010).

    Viewing Fp12 as a cubic extension of Fp4, the square of a unitary
    element needs three Fp4 squarings (nine Fp2 squarings) instead of the
    twelve Fp2 multiplications of `fp12_sqr`. Only valid when a^(p^6+1) = 1,
    i.e. after the easy part of the final exponentiation.
    """
    (z0, z4, z3), (z2, z1, z5) = a
    # each output is 3*t - 2*z (or 3*t + 2*z) for its Fp4-square half t
    t0, t1, t2, t3 = _fp4_sqr(z0, z1)
    n0 = ((3 * t0 - 2 * z0[0]) % P, (3 * t1 - 2 * z0[1]) % P)
    n1 = ((3 * t2 + 2 * z1[0]) % P, (3 * t3 + 2 * z1[1]) % P)
    t0, t1, t2, t3 = _fp4_sqr(z2, z3)
    n4 = ((3 * t0 - 2 * z4[0]) % P, (3 * t1 - 2 * z4[1]) % P)
    n5 = ((3 * t2 + 2 * z5[0]) % P, (3 * t3 + 2 * z5[1]) % P)
    t0, t1, t2, t3 = _fp4_sqr(z4, z5)
    # the second half is multiplied by xi = 1 + u
    n2 = ((3 * (t2 - t3) + 2 * z2[0]) % P, (3 * (t2 + t3) + 2 * z2[1]) % P)
    n3 = ((3 * t0 - 2 * z3[0]) % P, (3 * t1 - 2 * z3[1]) % P)
    return ((n0, n4, n3), (n2, n1, n5))


def _cyclotomic_exp_x(a):
    """a^x for the (negative) BLS parameter x; a must lie in the cyclotomic
    subgroup so that squaring is `fp12_cyclotomic_sqr` and inversion is
    conjugation."""
    result = a
    for bit in BLS_X_BITS:
        result = fp12_cyclotomic_sqr(result)
        if bit == "1":
            result = fp12_mul(result, a)
    return fp12_conj(result)


def final_exponentiation(f):
    """f^(3 * (p^12 - 1) / r).

    The extra factor 3 comes from the addition-chain identity used for the
    hard part; since gcd(3, r) = 1 the result is still a bilinear,
    non-degenerate pairing and all product/equality checks are unaffected.
    """
    # Easy part: f^((p^6 - 1)(p^2 + 1)).
    f = fp12_mul(fp12_conj(f), fp12_inv(f))
    f = fp12_mul(fp12_frobenius_n(f, 2), f)
    # Hard part via 3*(p^4 - p^2 + 1)/r = (x-1)^2 (x+p)(x^2+p^2-1) + 3,
    # evaluated with x-exponentiations and Frobenius maps.
    inv_f = fp12_conj(f)  # valid: f is now in the cyclotomic subgroup
    m = fp12_mul(_cyclotomic_exp_x(f), inv_f)          # f^(x-1)
    m = fp12_mul(_cyclotomic_exp_x(m), fp12_conj(m))   # f^((x-1)^2)
    m = fp12_mul(_cyclotomic_exp_x(m), fp12_frobenius(m))  # ^(x+p)
    m = fp12_mul(
        fp12_mul(_cyclotomic_exp_x(_cyclotomic_exp_x(m)),
                 fp12_frobenius_n(m, 2)),
        fp12_conj(m))                                  # ^(x^2+p^2-1)
    return fp12_mul(m, fp12_mul(fp12_cyclotomic_sqr(f), f))  # * f^3
