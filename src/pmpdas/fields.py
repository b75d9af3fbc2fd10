"""Tower field arithmetic for BLS12-381.

Elements are plain tuples of ints reduced mod P:

* Fp    -- int
* Fp2   -- (c0, c1) meaning c0 + c1*u with u^2 = -1
* Fp6   -- (a0, a1, a2) over Fp2 with v^3 = xi, xi = 1 + u
* Fp12  -- (b0, b1) over Fp6 with w^2 = v

Keeping everything as tuples of ints (rather than classes) keeps the hot
loops in the pairing free of attribute lookups; the Fp12 products unpack
them into plain ints and reduce each output coefficient once.
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

def fp6_neg(a):
    return (fp2_neg(a[0]), fp2_neg(a[1]), fp2_neg(a[2]))


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
#
# The Fp12 products are straight-line integer code with lazy reduction
# (Aranha, Karabina, Longa, Gebotys and Lopez, EUROCRYPT 2011): the Fp2
# and Fp6 products inside them stay unreduced ints, their sums and
# differences are plain int additions, and each of the twelve output
# coefficients is reduced mod P once. An Fp6 element
# (x0 + x1*u) + (x2 + x3*u)*v + (x4 + x5*u)*v^2 is flattened to x0 .. x5.

def _fp6_mul_ints(a0, a1, a2, a3, a4, a5, b0, b1, b2, b3, b4, b5):
    """The flattened product of two flattened Fp6 elements, as six
    unreduced ints; the inputs may be unreduced too. Karatsuba over Fp6
    and over each Fp2 product: 18 integer multiplications."""
    # v_i = A_i * B_i
    t0 = a0 * b0
    t1 = a1 * b1
    v0 = t0 - t1
    v1 = (a0 + a1) * (b0 + b1) - t0 - t1
    t0 = a2 * b2
    t1 = a3 * b3
    v2 = t0 - t1
    v3 = (a2 + a3) * (b2 + b3) - t0 - t1
    t0 = a4 * b4
    t1 = a5 * b5
    v4 = t0 - t1
    v5 = (a4 + a5) * (b4 + b5) - t0 - t1
    # c0 = v_0 + xi * ((A1 + A2)(B1 + B2) - v_1 - v_2)
    x0, x1, y0, y1 = a2 + a4, a3 + a5, b2 + b4, b3 + b5
    t0 = x0 * y0
    t1 = x1 * y1
    m0 = t0 - t1 - v2 - v4
    m1 = (x0 + x1) * (y0 + y1) - t0 - t1 - v3 - v5
    # c1 = (A0 + A1)(B0 + B1) - v_0 - v_1 + xi * v_2
    x0, x1, y0, y1 = a0 + a2, a1 + a3, b0 + b2, b1 + b3
    t0 = x0 * y0
    t1 = x1 * y1
    n0 = t0 - t1 - v0 - v2 + v4 - v5
    n1 = (x0 + x1) * (y0 + y1) - t0 - t1 - v1 - v3 + v4 + v5
    # c2 = (A0 + A2)(B0 + B2) - v_0 - v_2 + v_1
    x0, x1, y0, y1 = a0 + a4, a1 + a5, b0 + b4, b1 + b5
    t0 = x0 * y0
    t1 = x1 * y1
    return (v0 + m0 - m1, v1 + m0 + m1, n0, n1,
            t0 - t1 - v0 - v4 + v2,
            (x0 + x1) * (y0 + y1) - t0 - t1 - v1 - v5 + v3)


def fp12_mul(a, b):
    """a * b by Karatsuba over Fp6: three unreduced Fp6 products."""
    ((a0, a1), (a2, a3), (a4, a5)), ((a6, a7), (a8, a9), (a10, a11)) = a
    ((b0, b1), (b2, b3), (b4, b5)), ((b6, b7), (b8, b9), (b10, b11)) = b
    t0, t1, t2, t3, t4, t5 = _fp6_mul_ints(a0, a1, a2, a3, a4, a5,
                                           b0, b1, b2, b3, b4, b5)
    u0, u1, u2, u3, u4, u5 = _fp6_mul_ints(a6, a7, a8, a9, a10, a11,
                                           b6, b7, b8, b9, b10, b11)
    s0, s1, s2, s3, s4, s5 = _fp6_mul_ints(
        a0 + a6, a1 + a7, a2 + a8, a3 + a9, a4 + a10, a5 + a11,
        b0 + b6, b1 + b7, b2 + b8, b3 + b9, b4 + b10, b5 + b11)
    # (t + v*u) + (s - t - u)*w, with v*u = (xi*(u4, u5), (u0, u1), (u2, u3))
    return ((((t0 + u4 - u5) % P, (t1 + u4 + u5) % P),
             ((t2 + u0) % P, (t3 + u1) % P),
             ((t4 + u2) % P, (t5 + u3) % P)),
            (((s0 - t0 - u0) % P, (s1 - t1 - u1) % P),
             ((s2 - t2 - u2) % P, (s3 - t3 - u3) % P),
             ((s4 - t4 - u4) % P, (s5 - t5 - u5) % P)))


def fp12_sqr(a):
    """(A + B*w)^2 = (A + B)(A + v*B) - t - v*t + 2t*w for t = A*B:
    complex squaring, two unreduced Fp6 products."""
    ((a0, a1), (a2, a3), (a4, a5)), ((b0, b1), (b2, b3), (b4, b5)) = a
    t0, t1, t2, t3, t4, t5 = _fp6_mul_ints(a0, a1, a2, a3, a4, a5,
                                           b0, b1, b2, b3, b4, b5)
    s0, s1, s2, s3, s4, s5 = _fp6_mul_ints(
        a0 + b0, a1 + b1, a2 + b2, a3 + b3, a4 + b4, a5 + b5,
        a0 + b4 - b5, a1 + b4 + b5, a2 + b0, a3 + b1, a4 + b2, a5 + b3)
    return ((((s0 - t0 - t4 + t5) % P, (s1 - t1 - t4 - t5) % P),
             ((s2 - t2 - t0) % P, (s3 - t3 - t1) % P),
             ((s4 - t4 - t2) % P, (s5 - t5 - t3) % P)),
            ((2 * t0 % P, 2 * t1 % P),
             (2 * t2 % P, 2 * t3 % P),
             (2 * t4 % P, 2 * t5 % P)))


def fp12_mul_by_line(f, c0, c1, c2):
    """f * (c0 + c1*v + c2*v*w) for c0, c1, c2 in Fp2: the sparse product
    of the Miller loop, by Karatsuba over Fp6 with the line's halves
    L0 = c0 + c1*v and L1 = c2*v. B*L1 is three Fp2 products."""
    ((a0, a1), (a2, a3), (a4, a5)), ((b0, b1), (b2, b3), (b4, b5)) = f
    l0, l1 = c0
    l2, l3 = c1
    l4, l5 = c2
    t0, t1, t2, t3, t4, t5 = _fp6_mul_ints(a0, a1, a2, a3, a4, a5,
                                           l0, l1, l2, l3, 0, 0)
    s0, s1, s2, s3, s4, s5 = _fp6_mul_ints(
        a0 + b0, a1 + b1, a2 + b2, a3 + b3, a4 + b4, a5 + b5,
        l0, l1, l2 + l4, l3 + l5, 0, 0)
    # u = B*c2, so that B*L1 = v*u
    k = l4 + l5
    x, y = b0 * l4, b1 * l5
    u0, u1 = x - y, (b0 + b1) * k - x - y
    x, y = b2 * l4, b3 * l5
    u2, u3 = x - y, (b2 + b3) * k - x - y
    x, y = b4 * l4, b5 * l5
    u4, u5 = x - y, (b4 + b5) * k - x - y
    # (t + v*(v*u)) + (s - t - v*u)*w, with v*u = (xi*(u4, u5), (u0, u1),
    # (u2, u3)) and v*(v*u) = (xi*(u2, u3), xi*(u4, u5), (u0, u1))
    w0, w1 = u4 - u5, u4 + u5
    return ((((t0 + u2 - u3) % P, (t1 + u2 + u3) % P),
             ((t2 + w0) % P, (t3 + w1) % P),
             ((t4 + u0) % P, (t5 + u1) % P)),
            (((s0 - t0 - w0) % P, (s1 - t1 - w1) % P),
             ((s2 - t2 - u0) % P, (s3 - t3 - u1) % P),
             ((s4 - t4 - u2) % P, (s5 - t5 - u3) % P)))


def fp12_conj(a):
    return (a[0], fp6_neg(a[1]))


def fp12_inv(a):
    """(A - B*w) / (A^2 - v*B^2)."""
    ((a0, a1), (a2, a3), (a4, a5)), ((b0, b1), (b2, b3), (b4, b5)) = a
    s0, s1, s2, s3, s4, s5 = _fp6_mul_ints(a0, a1, a2, a3, a4, a5,
                                           a0, a1, a2, a3, a4, a5)
    t0, t1, t2, t3, t4, t5 = _fp6_mul_ints(b0, b1, b2, b3, b4, b5,
                                           b0, b1, b2, b3, b4, b5)
    (d0, d1), (d2, d3), (d4, d5) = fp6_inv(
        (((s0 - t4 + t5) % P, (s1 - t4 - t5) % P),
         ((s2 - t0) % P, (s3 - t1) % P),
         ((s4 - t2) % P, (s5 - t3) % P)))
    c = _fp6_mul_ints(a0, a1, a2, a3, a4, a5, d0, d1, d2, d3, d4, d5)
    e = _fp6_mul_ints(b0, b1, b2, b3, b4, b5, d0, d1, d2, d3, d4, d5)
    return (((c[0] % P, c[1] % P), (c[2] % P, c[3] % P),
             (c[4] % P, c[5] % P)),
            ((-e[0] % P, -e[1] % P), (-e[2] % P, -e[3] % P),
             (-e[4] % P, -e[5] % P)))


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
