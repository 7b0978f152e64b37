import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vanlat.intmat import IntMatrix
from vanlat.oracle import float_signature
from vanlat.signature import Signature, exact_signature


def test_examples():
    assert exact_signature(IntMatrix.identity(2)) == Signature(2, 0, 0)
    assert exact_signature(IntMatrix.from_rows([[0, 1], [1, 0]])) == Signature(1, 1, 0)
    for a in (-7, -1, 0, 1, 3, 12):
        m = IntMatrix.from_rows([[a, 1], [1, 0]])
        assert exact_signature(m) == Signature(1, 1, 0)


def test_degenerate_forms_report_radical():
    assert exact_signature(IntMatrix.zeros(3, 3)) == Signature(0, 0, 3)
    m = IntMatrix.from_rows([[1, 1, 0], [1, 1, 0], [0, 0, -2]])
    assert exact_signature(m) == Signature(1, 1, 1)
    assert exact_signature(IntMatrix(())) == Signature(0, 0, 0)


def test_rejects_non_symmetric():
    with pytest.raises(ValueError):
        exact_signature(IntMatrix.from_rows([[0, 1], [2, 0]]))
    with pytest.raises(ValueError):
        exact_signature(IntMatrix.from_rows([[1, 2, 3]]))


def test_sgn_and_totals():
    sig = exact_signature(IntMatrix.diagonal([5, -2, 0, 7]))
    assert sig == Signature(2, 1, 1)
    assert sig.sgn == 1
    assert sig.rank_total == 4


def _random_symmetric(rng, n, bound=10):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = rng.randint(-bound, bound)
        for j in range(i + 1, n):
            v = rng.randint(-bound, bound)
            rows[i][j] = rows[j][i] = v
    return IntMatrix.from_rows(rows)


def _random_unimodular(rng, n):
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            c = rng.randint(-2, 2)
            for k in range(n):
                m[a][k] += c * m[b][k]
    return IntMatrix.from_rows(m)


def test_agrees_with_float_oracle_small():
    rng = random.Random(11)
    for _ in range(200):
        m = _random_symmetric(rng, rng.randrange(0, 7))
        assert exact_signature(m) == float_signature(m)


def test_sylvester_invariance_random_congruence():
    rng = random.Random(5)
    for _ in range(150):
        n = rng.randrange(0, 7)
        m = _random_symmetric(rng, n)
        p = _random_unimodular(rng, n)
        assert exact_signature(p.transpose() * m * p) == exact_signature(m)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 5), st.integers(0, 2 ** 63))
def test_inertia_counts_fill_the_rank(n, seed):
    rng = random.Random(seed)
    m = _random_symmetric(rng, n)
    sig = exact_signature(m)
    assert sig.rank_total == n
    assert sig.n_zero == n - _rank(m)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 2 ** 63))
def test_zero_diagonal_block_form(p, q, seed):
    # [[0, B], [B^T, 0]] has a zero diagonal, so elimination must start with
    # the congruence step that adds one basis vector to another
    rng = random.Random(seed)
    b = [[rng.choice((0, 0, 1, -1, 3)) for _ in range(q)] for _ in range(p)]
    n = p + q
    rows = [[0] * n for _ in range(n)]
    for i in range(p):
        for j in range(q):
            rows[i][p + j] = rows[p + j][i] = b[i][j]
    r = _rank(IntMatrix.from_rows(b, width=q))
    assert exact_signature(IntMatrix.from_rows(rows, width=n)) == \
        Signature(r, r, n - 2 * r)


def _rank(m):
    from fractions import Fraction
    rows = [[Fraction(x) for x in r] for r in m.rows]
    rank = 0
    for col in range(m.ncols):
        piv = next((r for r in range(rank, m.nrows) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(m.nrows):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank
