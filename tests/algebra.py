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


def ref_expand_counts(counts):
    """Ascending monomial coefficients of each turn's form, from its (p, 1-p) counts.

    ``counts`` maps a turn k to (j0, c), the form sum_i c[i] p^(j0+i) (1-p)^(k-j0-i),
    as ``coinrace.oracle.brute_force_hit_pmf`` and ``coinrace.stopping.win_turn_slots``
    state it.  Each term is expanded with one row of (1-p)^r, built from the row
    before by one Pascal step, so turns must come with r = k - h never going
    backwards: a later win has no more heads.  The oracle's counts always do.
    """
    row = [1]  # ascending coefficients of (1 - p)^r, r = len(row) - 1
    out = {}
    for k in sorted(counts):
        j0, c = counts[k]
        top = j0 + len(c) - 1
        if len(row) > k - top + 1:
            raise ValueError(f"row of (1-p)^r went backwards at turn {k}")
        acc = [0] * (k + 1)
        for h in range(top, j0 - 1, -1):
            while len(row) <= k - h:
                row = [a - b for a, b in zip([*row, 0], [0, *row])]
            acc[h:] = [a + c[h - j0] * b for a, b in zip(acc[h:], row)]
        out[k] = ref_strip(acc)
    return out


def ref_split(b):
    """Integer Bernstein coefficients of both halves of [0, 1], by a de Casteljau triangle of lists.

    Row r of the triangle holds sum_i C(r, i) b_(j+i), 2^r times the de
    Casteljau row at 1/2; the halves' true coefficients are row[r][0] / 2^r
    and row[r][-1] / 2^r, so both come back scaled by 2^d, d = len(b) - 1.
    """
    d = len(b) - 1
    row = list(b)
    left, right = [], []
    for r in range(d + 1):
        left.append(row[0] << (d - r))
        right.append(row[-1] << (d - r))
        row = [x + y for x, y in zip(row, row[1:])]
    right.reverse()
    return left, right
