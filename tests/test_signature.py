import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vanlat.intmat import IntMatrix, eliminate
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
    sig = exact_signature(IntMatrix.from_rows([[5, 0, 0, 0], [0, -2, 0, 0],
                                               [0, 0, 0, 0], [0, 0, 0, 7]]))
    assert sig == Signature(2, 1, 1)
    assert sig.sgn == 1
    assert sig.n_plus + sig.n_minus + sig.n_zero == 4


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
    assert sig.n_plus + sig.n_minus + sig.n_zero == n
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


def _single_block_signature(m):
    """Reference: the whole form eliminated as one block, as
    ``exact_signature`` did before it split the form into components."""
    a = m.to_lists()
    active = list(range(m.nrows))
    n_plus = n_minus = 0
    prev = 1
    while active:
        piv = next((i for i in active if a[i][i]), None)
        if piv is None:
            pair = next(((i, j) for i in active for j in active if a[i][j]),
                        None)
            if pair is None:
                break
            piv, j = pair
            a[piv] = [x + y for x, y in zip(a[piv], a[j])]
            for r in active:
                a[r][piv] += a[r][j]
        active.remove(piv)
        eliminate(a, piv, active, prev)
        if (a[piv][piv] > 0) == (prev > 0):
            n_plus += 1
        else:
            n_minus += 1
        prev = a[piv][piv]
    return Signature(n_plus, n_minus, len(active))


_entry = st.sampled_from((0, 0, 0, 1, -1, 2, -3))


@st.composite
def _block(draw):
    """A small symmetric block: random, of rank one (degenerate), zero,
    or with a zero diagonal."""
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(("random", "rank-one", "zero", "zero-diagonal")))
    if kind == "rank-one":
        v = draw(st.lists(_entry, min_size=n, max_size=n))
        c = draw(st.sampled_from((1, -1, 2)))
        return [[c * x * y for y in v] for x in v]
    rows = [[0] * n for _ in range(n)]
    if kind == "zero":
        return rows
    for i in range(n):
        if kind == "random":
            rows[i][i] = draw(_entry)
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = draw(_entry)
    return rows


@st.composite
def _permuted_block_diagonal(draw):
    """``P^T diag(B_1, ..., B_k) P`` for a random permutation ``P``, so
    each component is spread over scattered indices."""
    blocks = draw(st.lists(_block(), max_size=5))
    n = sum(len(b) for b in blocks)
    rows = [[0] * n for _ in range(n)]
    pos = 0
    for b in blocks:
        for i, row in enumerate(b):
            rows[pos + i][pos:pos + len(b)] = row
        pos += len(b)
    perm = draw(st.permutations(range(n)))
    return IntMatrix.from_rows([[rows[perm[r]][perm[c]] for c in range(n)]
                                for r in range(n)], width=n)


@settings(max_examples=300, deadline=None, database=None)
@given(_permuted_block_diagonal())
def test_component_split_matches_single_block_elimination(m):
    assert exact_signature(m) == _single_block_signature(m)


@settings(max_examples=100, deadline=None, database=None)
@given(st.integers(0, 7), st.integers(0, 2 ** 63))
def test_component_split_matches_single_block_on_dense_forms(n, seed):
    m = _random_symmetric(random.Random(seed), n, bound=2)
    assert exact_signature(m) == _single_block_signature(m)


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
