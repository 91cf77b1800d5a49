"""Schoolbook polynomial algebra on ascending coefficient tuples, for the tests.

``coinrace.polynomial.Poly`` is a value type with no arithmetic.  Tests that
need a sum or a product of polynomials build it here, from the definitions,
and compare coefficient tuples (``Poly.coeffs``) or wrap the result in ``Poly``.
A scalar is a constant tuple: ``ref_mul((2,), a)`` doubles ``a`` and
``ref_mul((-1,), a)`` negates it.
"""


def ref_strip(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def ref_add(a, b):
    n = max(len(a), len(b))
    return ref_strip(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
    )


def ref_mul(a, b):
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return ref_strip(out)
