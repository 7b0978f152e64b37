import ast
import copy
import pathlib
import pickle
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vanlat
from conftest import triple_loop
from vanlat import intmat
from vanlat.intmat import (SPARSE_MIN_COLS, IntMatrix, direct_sum, first_difference,
                           row_reduce, squares_to_identity)
from vanlat.signature import exact_signature


def test_construction_rejects_ragged():
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2], [3]])


def test_construction_rejects_non_integers():
    # entries are checked where they enter, in from_rows, not on every
    # matrix an operation builds
    for bad in (1.5, True, "1"):
        with pytest.raises(ValueError, match="non-integer entry %r" % (bad,)):
            IntMatrix.from_rows([[1, 2], [3, bad]])
        with pytest.raises(ValueError, match="non-integer entry"):
            IntMatrix.from_rows([[1, 0], [0, bad]])


def test_big_entries_are_exact():
    big = 10 ** 60
    m = IntMatrix.from_rows([[big, 1], [0, big]])
    assert (m * m)[0, 1] == 2 * big
    assert m.det() == big * big


def test_mul_identity_and_shapes():
    m = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    assert IntMatrix.identity(2) * m == m
    assert m * IntMatrix.identity(3) == m
    with pytest.raises(ValueError):
        m * m


def test_adding_a_non_matrix_raises_type_error():
    # an operand that is not an IntMatrix is refused by Python's operator
    # protocol, as ``1 + m`` and ``m * 1.5`` are
    m = IntMatrix.from_rows([[1, 2], [3, 4]])
    assert m + m - m == m
    for op in (lambda: m + 1, lambda: m - 1, lambda: 1 + m, lambda: 1 - m,
               lambda: m + 1.5, lambda: m - [[1, 2], [3, 4]], lambda: m * 1.5):
        with pytest.raises(TypeError, match="unsupported operand"):
            op()


@pytest.mark.parametrize("n", [2, SPARSE_MIN_COLS])
def test_scaling_commutes_and_refuses_a_float(n):
    # ``k * m`` reaches ``__rmul__``, which is ``__mul__``: the same matrix
    # as ``m * k`` for an int (a bool included), and a float is refused by
    # the operator protocol
    m = IntMatrix.from_rows([[r - c if (r + c) % 3 else 0 for c in range(n)]
                             for r in range(n)])
    for k in (-2, 0, 3, True):
        assert k * m == m * k
        assert (k * m).to_lists() == [[k * x for x in row] for row in m.to_lists()]
    with pytest.raises(TypeError, match="unsupported operand"):
        2.0 * m


def test_transpose_involution():
    m = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    assert m.transpose().transpose() == m
    assert m.transpose()[0, 1] == 4


def test_det_examples():
    assert IntMatrix.from_rows([[-1, 1], [0, -1]]).det() == 1
    assert IntMatrix.from_rows([[2, -1], [-1, 2]]).det() == 3
    assert IntMatrix.identity(0).det() == 1
    assert IntMatrix.from_rows([[1, 2], [2, 4]]).det() == 0


def test_unimodular_inverse_examples():
    m = IntMatrix.from_rows([[-1, 1], [0, -1]])
    assert m.unimodular_inverse() == IntMatrix.from_rows([[-1, -1], [0, -1]])
    with pytest.raises(ValueError, match=r"not unimodular \(det = 2\)"):
        IntMatrix.from_rows([[2, 0], [0, 1]]).unimodular_inverse()
    with pytest.raises(ValueError, match=r"not unimodular \(det = 0\)"):
        IntMatrix.from_rows([[1, 2], [2, 4]]).unimodular_inverse()
    with pytest.raises(ValueError, match=r"not unimodular \(det = 0\)"):
        IntMatrix.zeros(3, 3).unimodular_inverse()
    with pytest.raises(ValueError, match=r"not unimodular \(det = -2\)"):
        IntMatrix.from_rows([[0, 1, 0], [2, 0, 0], [0, 0, 1]]).unimodular_inverse()


def test_non_square_errors_name_the_operation():
    m = IntMatrix.zeros(2, 3)
    with pytest.raises(ValueError, match="^inverse of a non-square matrix$"):
        m.unimodular_inverse()
    with pytest.raises(ValueError, match="^determinant of a non-square matrix$"):
        m.det()


def _random_unimodular(rng, n):
    # product of elementary row additions and swaps: det stays +-1
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        a, b = rng.randrange(n), rng.randrange(n)
        if a == b:
            continue
        c = rng.randint(-3, 3)
        for k in range(n):
            m[a][k] += c * m[b][k]
        if rng.random() < 0.3:
            m[a], m[b] = m[b], m[a]
    return IntMatrix.from_rows(m)


def test_unimodular_inverse_roundtrip_random():
    rng = random.Random(2024)
    for _ in range(200):
        n = rng.randrange(0, 7)
        m = _random_unimodular(rng, n)
        assert m.det() in (1, -1)
        assert m * m.unimodular_inverse() == IntMatrix.identity(n)
        assert m.unimodular_inverse() * m == IntMatrix.identity(n)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                min_size=3, max_size=3),
       st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                min_size=3, max_size=3))
def test_det_is_multiplicative(a_rows, b_rows):
    a = IntMatrix.from_rows(a_rows)
    b = IntMatrix.from_rows(b_rows)
    assert (a * b).det() == a.det() * b.det()


def _cofactor_det(rows):
    if not rows:
        return 1
    return sum((-1) ** c * rows[0][c]
               * _cofactor_det([r[:c] + r[c + 1:] for r in rows[1:]])
               for c in range(len(rows)))


_entries = st.one_of(st.integers(-3, 3), st.integers(-10 ** 60, 10 ** 60))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 5).flatmap(
           lambda n: st.lists(st.lists(_entries, min_size=n, max_size=n),
                              min_size=n, max_size=n)),
       st.booleans(), st.integers(-2, 2))
def test_det_matches_cofactor_expansion(rows, singular, scale):
    # a singular draw overwrites the last row with a multiple of the first
    n = len(rows)
    if singular and n:
        rows[-1] = [scale * x for x in rows[0]] if n > 1 else [0]
    m = IntMatrix.from_rows(rows)
    want = _cofactor_det(rows)
    assert m.det() == want
    if singular and n:
        assert want == 0


def _whole_det(rows):
    """Oracle: the determinant by one reduction of the whole matrix."""
    m = [list(r) for r in rows]
    pivots, d, sign = row_reduce(m, len(m))
    return sign * d if len(pivots) == len(m) else 0


def _pattern_components(rows):
    """Oracle: the components of the pattern of ``A + A^T`` by union-find."""
    parent = list(range(len(rows)))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i
    for r, row in enumerate(rows):
        for c, x in enumerate(row):
            if x:
                parent[root(r)] = root(c)
    groups = {}
    for i in range(len(rows)):
        groups.setdefault(root(i), []).append(i)
    return sorted(groups.values())


_small = st.integers(-4, 4)


@st.composite
def _block(draw):
    """A square block: dense, coupled only below or only above the
    diagonal (so ``A`` and ``A + A^T`` have different components),
    singular, or a 1x1 zero."""
    kind = draw(st.sampled_from(["dense", "lower", "upper", "singular", "zero"]))
    if kind == "zero":
        return [[0]]
    k = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(_small, min_size=k, max_size=k),
                         min_size=k, max_size=k))
    if kind in ("lower", "upper"):
        for r in range(k):
            for c in range(k):
                if (c > r) if kind == "lower" else (c < r):
                    rows[r][c] = 0
    elif kind == "singular":
        rows[-1] = [draw(_small) * x for x in rows[0]] if k > 1 else [0]
    return rows


@st.composite
def _permuted_blocks(draw):
    """``(rows, blocks)``: ``Q^T diag(B_i) Q`` for a permutation ``Q`` and
    the index sets that the blocks occupy in it."""
    blocks = draw(st.lists(_block(), max_size=5))
    n = sum(len(b) for b in blocks)
    perm = draw(st.permutations(range(n)))
    rows = [[0] * n for _ in range(n)]
    placed = []
    pos = 0
    for b in blocks:
        at = [perm[pos + i] for i in range(len(b))]
        for i, r in enumerate(at):
            for j, c in enumerate(at):
                rows[r][c] = b[i][j]
        placed.append(sorted(at))
        pos += len(b)
    return rows, placed


def _check_det_split(rows, blocks):
    comps = intmat.components(rows)
    assert comps == _pattern_components(rows)
    # every component lies inside one block
    block_of = {i: k for k, b in enumerate(blocks) for i in b}
    assert all(len({block_of[i] for i in comp}) == 1 for comp in comps)
    want = _whole_det(rows)
    assert IntMatrix.from_rows(rows, width=len(rows)).det() == want
    product = 1
    for b in blocks:
        product *= _whole_det([[rows[r][c] for c in b] for r in b])
    assert want == product


@settings(max_examples=200, deadline=None)
@given(_permuted_blocks())
@example(([], []))
@example(([[0]], [[0]]))
@example(([[0, 0], [5, 1]], [[0, 1]]))
@example(([[3, 0, 0, 0], [0, 2, 0, 1], [0, 0, -1, 0], [0, 1, 0, 1]],
          [[0], [1, 3], [2]]))
@example(([[3, 0, 0, 0, 0], [0, 2, 0, 1, 0], [0, 0, 0, 0, 0],
           [0, 1, 0, 1, 0], [0, 0, 0, 0, -1]], [[0], [1, 3], [2], [4]]))
def test_det_by_components_matches_whole_reduction(case):
    _check_det_split(*case)


def test_det_reduces_only_components_above_1x1(monkeypatch):
    # 1x1 components 3 and -1, taken as their entries, the 2x2 block
    # [[2, 1], [1, 1]] of rows 1 and 3 and a 3x3 block of determinant 4 on
    # rows 4-6: only the two blocks are reduced, and a zero singleton makes
    # the determinant 0
    reduced = []

    def counting(m, ncols):
        reduced.append(len(m))
        return row_reduce(m, ncols)
    monkeypatch.setattr(intmat, "row_reduce", counting)
    rows = [[3, 0, 0, 0, 0, 0, 0], [0, 2, 0, 1, 0, 0, 0], [0, 0, -1, 0, 0, 0, 0],
            [0, 1, 0, 1, 0, 0, 0], [0, 0, 0, 0, 2, 1, 0], [0, 0, 0, 0, 1, 2, 1],
            [0, 0, 0, 0, 0, 1, 2]]
    assert IntMatrix.from_rows(rows).det() == -12
    assert reduced == [2, 3]
    singular = [row + [0] for row in rows] + [[0] * 8]
    assert IntMatrix.from_rows(singular).det() == 0
    assert reduced == [2, 3, 2, 3]


@st.composite
def _two_by_two(draw):
    # the block [[a, b], [c, d]] at rows and columns i < j of the n x n
    # identity, n on both sides of SPARSE_MIN_COLS, with small entries or
    # entries up to 10**40
    n = draw(st.sampled_from([2, 5, 17]))
    i, j = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                unique=True)))
    entry = st.one_of(st.integers(-3, 3), st.integers(-10 ** 40, 10 ** 40))
    return draw(st.lists(entry, min_size=4, max_size=4)), n, i, j


@settings(max_examples=150, deadline=None)
@given(_two_by_two())
@example(([0, 5, -7, 3], 2, 0, 1))  # a zero first pivot: the rows swap
@example(([0, 0, -7, 3], 5, 1, 3))  # a zero first column: det 0
@example(([10 ** 40, -10 ** 40, 10 ** 40, -1], 17, 0, 16))
def test_det_of_a_2x2_component_is_a_d_minus_b_c(case):
    (a, b, c, d), n, i, j = case
    rows = [[int(r == col) for col in range(n)] for r in range(n)]
    rows[i][i], rows[i][j], rows[j][i], rows[j][j] = a, b, c, d
    assert IntMatrix.from_rows(rows).det() == a * d - b * c


def test_a_walk_over_rows_alone_is_caught(monkeypatch):
    # a walk that follows only the nonzeros of each row misses entries
    # below the diagonal that point back to an earlier index.  Its
    # components still come out in block triangular order, so the
    # determinant alone would not show the fault; the components do.
    def rows_only(rows):
        seen = [False] * len(rows)
        out = []
        for start in range(len(rows)):
            if not seen[start]:
                seen[start] = True
                comp = [start]
                for r in comp:
                    for c, x in enumerate(rows[r]):
                        if x and not seen[c]:
                            seen[c] = True
                            comp.append(c)
                out.append(sorted(comp))
        return out
    monkeypatch.setattr(intmat, "components", rows_only)
    with pytest.raises(AssertionError):
        _check_det_split([[0, 0], [5, 1]], [[0, 1]])


_wide = st.one_of(st.integers(-3, 3), st.integers(-10 ** 40, 10 ** 40))


@st.composite
def _factors(draw):
    # a matrix without rows has no columns either, so a row-less left
    # factor forces a row-less right factor
    n, k, m = (draw(st.integers(0, 6)) for _ in range(3))
    if n == 0:
        k = 0

    def operand(nrows, ncols):
        sparse = draw(st.booleans())
        entry = st.one_of(*[st.just(0)] * 4, _wide) if sparse else _wide
        return IntMatrix.from_rows(draw(st.lists(
            st.lists(entry, min_size=ncols, max_size=ncols),
            min_size=nrows, max_size=nrows)))
    return operand(n, k), operand(k, m)


@settings(max_examples=200, deadline=None)
@given(_factors())
@example((IntMatrix(()), IntMatrix(())))
@example((IntMatrix(((), (), ())), IntMatrix(())))
@example((IntMatrix.zeros(2, 3), IntMatrix(((), (), ()))))
def test_mul_matches_triple_loop(factors):
    a, b = factors
    assert (a * b).rows == triple_loop(a, b)


@st.composite
def _row(draw, ncols):
    # zero, one nonzero, exactly at the sparse threshold, one past it,
    # full, or any count in between, at random columns; small entries or
    # entries up to 10**40
    quarter = ncols // intmat.SPARSE_FILL
    count = draw(st.sampled_from([0, 1, quarter, quarter + 1, ncols])
                 | st.integers(0, ncols))
    bound = draw(st.sampled_from([3, 10 ** 40]))
    rnd = random.Random(draw(st.integers(0, 2 ** 32)))
    row = [0] * ncols
    for c in rnd.sample(range(ncols), count):
        row[c] = rnd.choice((-1, 1)) * rnd.randint(1, bound)
    return row


@st.composite
def _wide_factors(draw):
    # a right factor at least SPARSE_MIN_COLS wide, so that its rows are
    # stored sparse, dense, or both within one product
    n, k = draw(st.integers(1, 5)), draw(st.integers(1, 40))
    m = draw(st.integers(intmat.SPARSE_MIN_COLS, 40))
    left = [draw(_row(k)) for _ in range(n)]
    right = [draw(_row(m)) for _ in range(k)]
    return IntMatrix.from_rows(left, width=k), IntMatrix.from_rows(right)


@settings(max_examples=100, deadline=None)
@given(_wide_factors())
def test_mul_matches_triple_loop_on_wide_sparse_and_dense_rows(factors):
    a, b = factors
    assert (a * b).rows == triple_loop(a, b)


@st.composite
def _combination(draw):
    # weight rows over right rows of any width, below SPARSE_MIN_COLS all
    # stored as tuples and from there on each sparse or dense, and a scale
    # that multiplies the weight rows
    k = draw(st.integers(1, 6))
    m = draw(st.integers(1, 40))
    weights = [draw(_row(k)) for _ in range(draw(st.integers(0, 4)))]
    rows = [tuple(draw(_row(m))) for _ in range(k)]
    return weights, rows, draw(st.sampled_from([1, -1, 3]))


_DENSE = tuple(range(1, 17))  # 16 nonzeros in 16 columns: stored whole
_SPARSE = (5,) + (0,) * 15  # 1 nonzero in 16 columns: stored by its column


@settings(max_examples=100, deadline=None)
@given(_combination())
@example(([[1]], [_DENSE], 1))  # a dense first term is copied ...
@example(([[-1]], [_DENSE], 1))  # ... or scaled
@example(([[10 ** 40]], [_DENSE], 1))
@example(([[1]], [_DENSE], -1))  # a weight of 1 times scale -1 is -1
@example(([[2, 3]], [_SPARSE, _DENSE], 1))  # sparse first, then dense
@example(([[2, 3]], [_DENSE, _SPARSE], 1))  # dense first, then sparse
@example(([[0, 0], [1, 1]], [_SPARSE, _DENSE], 1))  # a left row of zeros
@example(([[1, 2], [0, 1]], [_DENSE, _DENSE], -1))
@example(([[1, -1]], [_SPARSE, _SPARSE], 1))  # sparse terms that cancel
def test_combine_rows_matches_the_sum_of_terms(case):
    # weights and rows as stored, each weight row, times the scale, once as
    # a tuple and once as a dict of its nonzeros
    weights, rows, scale = case
    width = len(rows[0])
    stored = [intmat.store_row(row, width) for row in rows]
    want = [[scale * sum(w * row[c] for w, row in zip(ws, rows))
             for c in range(width)] for ws in weights]
    weights = [[scale * w for w in ws] for ws in weights]
    for left in ([tuple(ws) for ws in weights],
                 [{t: w for t, w in enumerate(ws) if w} for ws in weights]):
        got = intmat.combine_rows(left, stored, width)
        assert [list(intmat.dense_row(intmat.store_row(acc, width), width))
                for acc in got] == want
        assert all(type(acc) in (list, dict) for acc in got)


def test_combine_rows_leaves_its_input_rows_alone():
    # a dense first term of weight 1 starts the sum as a copy, and a
    # sparse first term as a fresh dict, so no later term may write into
    # an input row
    rows = [_DENSE, {0: 5}]
    got, = intmat.combine_rows([[1, 1]], rows, 16)
    assert rows == [_DENSE, {0: 5}]
    assert got == [6] + list(_DENSE[1:])
    got, = intmat.combine_rows([{1: 1, 0: 1}], rows, 16)
    assert rows == [_DENSE, {0: 5}]
    assert got == [6] + list(_DENSE[1:])
    got, = intmat.combine_rows([{1: 2}], [{}, {0: 5}], 16)
    assert got == {0: 10}


@st.composite
def _summands(draw):
    # two matrices of one shape at widths on both sides of SPARSE_MIN_COLS,
    # their rows stored as dicts or tuples by their fill; a row of the
    # second is drawn alone, or is the negated row of the first plus at
    # most a quarter of the width nonzero, so that the sum cancels to a
    # row stored sparse
    width = draw(st.sampled_from([0, 15, 16, 17, 64]))

    def drawn_row():
        return draw(_row(width)) if width else []
    first = [drawn_row() for _ in range(draw(st.integers(0, 4)))]
    second = []
    for row in first:
        other = drawn_row()
        if width and draw(st.booleans()):
            other = [-x for x in row]
            for c in draw(st.lists(st.integers(0, width - 1), unique=True,
                                   max_size=width // intmat.SPARSE_FILL)):
                other[c] += draw(_wide)
        second.append(other)
    return first, second, width


_QUARTER = [0] * 15 + [7]  # 1 nonzero in 16 columns: stored as a dict


@settings(max_examples=150, deadline=None)
@given(_summands())
@example(([], [], 0))
@example(([[], []], [[], []], 0))
@example(([_QUARTER, _DENSE], [list(_DENSE), _QUARTER], 16))  # dict + tuple, tuple + dict
@example(([_QUARTER], [[-x for x in _QUARTER]], 16))  # two dicts that cancel
@example(([list(_DENSE)], [[-x for x in _DENSE[:-1]] + [0]], 16))  # tuples to a dict
def test_add_sub_neg_are_the_entrywise_sums(case):
    first, second, width = case
    a, b = IntMatrix(first, width), IntMatrix(second, width)
    la, lb = a.to_lists(), b.to_lists()
    want = {"+": [[x + y for x, y in zip(r, s)] for r, s in zip(la, lb)],
            "-": [[x - y for x, y in zip(r, s)] for r, s in zip(la, lb)],
            "neg": [[-x for x in r] for r in la]}
    for op, got in (("+", a + b), ("-", a - b), ("neg", -a)):
        assert got.to_lists() == want[op]
        # each row is stored as its entries choose, however it was summed
        assert got == IntMatrix(want[op], width)


@st.composite
def _sweep(draw):
    # square weight rows on both sides of SPARSE_MIN_COLS, with a scale,
    # a unit and the start of the rows not yet replaced
    n = draw(st.integers(0, 24))
    weights = [draw(_row(n)) for _ in range(n)]
    return (weights, draw(st.sampled_from([1, -1, 3])),
            draw(st.sampled_from([1, -1, 2])), draw(st.sampled_from([0, 1, -1, 2])))


@settings(max_examples=100, deadline=None)
@given(_sweep())
@example(([[2, -1], [-1, 2]], -1, 1, 1))  # the A_2 monodromy
@example(([[2, -1], [-1, 2]], -1, -1, 0))  # its var
@example(([[1, 1], [0, 1]], 1, -1, 1))  # a one-entry term cancels the unit
@example(([[int(r == c) for c in range(16)] for r in range(16)], 1, -1, 1))  # in dicts
# row 0, a dict, starts its sum as a dict from the row not yet replaced
# and switches to a list at the dense replaced row 15
@example(([[1] + [0] * 14 + [1]] + [[0] * 16] * 14 + [[1] * 16], 1, 1, 1))
def test_sweep_rows_matches_the_dense_sweep(case):
    # from the last row k to the first, row k becomes unit * e_k + scale *
    # sum_t weights[k][t] * row_t, where a row not yet replaced is start * e_t;
    # the weight rows as stored, all tuples and all dicts
    weights, scale, unit, start = case
    n = len(weights)
    rows = [[start * (c == t) for c in range(n)] for t in range(n)]
    for k in reversed(range(n)):
        rows[k] = [unit * (c == k) + scale * sum(w * row[c] for w, row in zip(weights[k], rows))
                   for c in range(n)]
    for left in ([intmat.store_row(ws, n) for ws in weights], [tuple(ws) for ws in weights],
                 [{t: w for t, w in enumerate(ws) if w} for ws in weights]):
        assert intmat.sweep_rows(left, n, scale, unit, start) == IntMatrix(rows, n)


def test_storage_threshold():
    # a row of at least 16 columns with at most a quarter of them nonzero
    # is stored as the dict of its nonzeros, any other row as a tuple,
    # whichever form it is given in
    at = (0, 5, 0, 0) * 4  # 4 nonzeros in 16 columns: exactly a quarter
    past = at[:-1] + (1,)  # one past a quarter
    store = intmat.store_row
    assert store(at, 16) == {1: 5, 5: 5, 9: 5, 13: 5}
    assert store(list(at), 16) == {1: 5, 5: 5, 9: 5, 13: 5}
    assert store(past, 16) == past
    assert store((0,) * 16, 16) == {}
    assert store((1,) * 16, 16) == (1,) * 16
    assert store({1: 5, 5: 5, 9: 5, 13: 5, 2: 0}, 16) == {1: 5, 5: 5, 9: 5, 13: 5}
    assert store({1: 5, 5: 5, 9: 5, 13: 5, 15: 1}, 16) == past
    # 15 columns: every row a tuple, however sparse
    assert store((0, 1) + (0,) * 13, 15) == (0, 1) + (0,) * 13
    assert store({1: 1}, 15) == (0, 1) + (0,) * 13
    assert store({}, 15) == (0,) * 15
    # 40 columns: a quarter is 10 nonzeros
    assert type(store((1,) * 10 + (0,) * 30, 40)) is dict
    assert type(store((1,) * 11 + (0,) * 29, 40)) is tuple
    # a matrix stores each of its rows so
    m = IntMatrix([at, past, {0: 0}, list(at)], 16)
    assert [type(r) for r in m.stored_rows] == [dict, tuple, dict, dict]
    assert m.rows == (at, past, (0,) * 16, at)
    assert all(type(r) is tuple for r in IntMatrix.identity(15).stored_rows)
    assert all(type(r) is dict for r in IntMatrix.identity(16).stored_rows)
    with pytest.raises(ValueError, match="pass ncols"):
        IntMatrix([{3: 1}])


@pytest.mark.parametrize("n", [15, 20])
def test_a_column_out_of_range_raises_in_either_storage(n):
    # identity(15) stores tuple rows, identity(20) dict rows
    m = IntMatrix.identity(n)
    assert m[0, -n] == m[n - 1, -1] == 1 and m[0, n - 1] == 0
    for c in (25, n, -n - 1):
        with pytest.raises(IndexError):
            m[0, c]


@st.composite
def _sparse_square(draw):
    # a square matrix on either side of the width threshold, with rows of
    # every fill, drawn as dense lists
    n = draw(st.sampled_from([0, 1, 3, 15, 16, 17, 24]))
    rows = [draw(_row(n)) for _ in range(n)]
    for r in range(n):  # small entries keep the determinant quick
        rows[r] = [x % 7 - 3 if x else 0 for x in rows[r]]
    return rows


@settings(max_examples=60, deadline=None)
@given(_sparse_square())
@example([])
@example([[0] * 16 for _ in range(16)])
def test_built_dense_and_built_sparse_agree(rows):
    # the same matrix built from tuples and from dicts of its nonzeros,
    # with zero values thrown in, is one value: its storage follows from
    # its entries alone
    n = len(rows)
    dense = IntMatrix([tuple(row) for row in rows], n)
    sparse = IntMatrix([{**{c: 0 for c in range(0, n, 5)},
                         **{c: x for c, x in enumerate(row) if x}}
                        for row in rows], n)
    assert dense == sparse and hash(dense) == hash(sparse)
    assert dense.stored_rows == sparse.stored_rows
    assert dense.diagonal() == sparse.diagonal() == tuple(
        rows[r][r] for r in range(n))
    assert dense.rows == sparse.rows == tuple(map(tuple, rows))
    assert str(dense) == str(sparse) == str(rows)
    assert dense.to_lists() == sparse.to_lists() == rows
    assert (dense * sparse).rows == (sparse * dense).rows == triple_loop(dense, dense)
    assert (dense * 3).rows == (sparse * 3).rows
    assert dense.transpose() == sparse.transpose()
    assert dense.transpose().rows == tuple(zip(*rows))
    assert dense.det() == sparse.det()
    symmetric = dense + dense.transpose()
    assert symmetric == sparse + sparse.transpose()
    assert symmetric.is_symmetric() and (sparse + sparse.transpose()).is_symmetric()
    assert exact_signature(symmetric) == exact_signature(sparse + sparse.transpose())
    # false verdicts too: an entry changed off the diagonal, a skew
    # matrix, and a skew one with a nonzero diagonal entry, each built
    # from tuples and from dicts
    skew = dense - dense.transpose()
    assert skew.is_symmetric(-1)
    changed, diagonal = symmetric.to_lists(), skew.to_lists()
    if n > 1:
        changed[0][n - 1] += 1
        assert not IntMatrix(changed, n).is_symmetric()
    if n:
        diagonal[n - 1][n - 1] += 1
        assert not IntMatrix(diagonal, n).is_symmetric(-1)
    for lists in (changed, skew.to_lists(), diagonal):
        for m in (IntMatrix(lists, n),
                  IntMatrix([{c: x for c, x in enumerate(row) if x} for row in lists], n)):
            for sign in (1, -1):
                assert m.is_symmetric(sign) == (m == sign * m.transpose())
    # a column is read alike from a row of either storage, and one past
    # either end raises
    for r, row in enumerate(rows):
        assert [dense[r, c] for c in range(-n, n)] == row + row
        for c in (n, n + 9, -n - 1):
            with pytest.raises(IndexError):
                dense[r, c]


@pytest.mark.parametrize("width", [2, 3, SPARSE_MIN_COLS + 1])
def test_diagonal_of_a_non_square_matrix_stops_at_the_shorter_side(width):
    wide = IntMatrix([[r * width + c for c in range(width)] for r in range(2)])
    assert wide.diagonal() == (0, width + 1)
    assert wide.transpose().diagonal() == (0, width + 1)


@st.composite
def _near_involutions(draw):
    # an involution, a signed permutation of order two conjugated by a
    # few elementary unimodular matrices, at widths on either side of
    # the sparse threshold; then maybe one entry changed, or a column of
    # zeros added, so that both verdicts and non-square shapes are drawn
    n = draw(st.integers(0, 24))
    rnd = random.Random(draw(st.integers(0, 2 ** 32)))
    rows = [[0] * n for _ in range(n)]
    free = list(range(n))
    rnd.shuffle(free)
    while free:
        i = free.pop()
        if free and rnd.random() < 0.5:
            j = free.pop()
            rows[i][j] = rows[j][i] = rnd.choice((-1, 1))
        else:
            rows[i][i] = rnd.choice((-1, 1))
    for _ in range(draw(st.integers(0, 3)) if n > 1 else 0):
        # rows -> E * rows * E^-1 for E = I + t * e_ij
        i, j = rnd.sample(range(n), 2)
        t = rnd.randint(-3, 3)
        rows[i] = [x + t * y for x, y in zip(rows[i], rows[j])]
        for row in rows:
            row[j] -= t * row[i]
    change = draw(st.sampled_from(["none", "entry", "column"]))
    if n and change == "entry":
        rows[rnd.randrange(n)][rnd.randrange(n)] += rnd.choice((-1, 1))
    elif n and change == "column":
        rows = [row + [0] for row in rows]
    return rows


@settings(max_examples=200, deadline=None)
@given(_near_involutions())
@example([])
@example([[1]])
@example([[0, 1], [1, 0]])
@example([[1, 0]])
@example([[int(r == c) for c in range(16)] for r in range(16)])
@example([[int(r == c) for c in range(16)] + [0] for r in range(16)])
@example([[1, 1], [0, 1]])  # the square misses at row 0
@example([[1, 0], [0, 2]])  # the square misses only at row 1
@example([[int(r == c) * (1 + (r == 15)) for c in range(16)] for r in range(16)])
def test_is_involution_matches_the_square(rows):
    # the same matrix built from tuples and from dicts of its nonzeros,
    # and the one square test on its plain tuple and list rows
    n, width = len(rows), len(rows[0]) if rows else 0
    want = None
    for m in (IntMatrix([tuple(row) for row in rows], width),
              IntMatrix([{c: x for c, x in enumerate(row) if x} for row in rows],
                        width)):
        if m.is_square:
            want = m * m == IntMatrix.identity(n)
            assert m.is_involution() == want
        else:
            assert not m.is_involution()
    if n == width:
        assert squares_to_identity(tuple(map(tuple, rows))) == want
        assert squares_to_identity([list(row) for row in rows]) == want


@pytest.mark.parametrize("rows, want", [
    ([], True),                             # rank 0 is an involution
    ([[1, 1], [0, 1]], False),              # misses at row 0
    ([[-1, 0], [0, 2]], False),             # misses only at row 1
    ([[0, 1, 0], [1, 0, 0], [0, 0, 1]], True),
    ([[int(r == c) for c in range(16)] for r in range(16)], True),
])
def test_squares_to_identity_squares_every_row_in_one_kernel_call(
        monkeypatch, rows, want):
    # plain tuples, plain lists, and the stored rows of both storages
    calls = []
    kernel = intmat.combine_rows

    def counting(weight_rows, *args):
        calls.append(len(weight_rows))
        return kernel(weight_rows, *args)
    monkeypatch.setattr(intmat, "combine_rows", counting)
    n = len(rows)
    for plain in (tuple(map(tuple, rows)), [list(row) for row in rows]):
        calls.clear()
        assert squares_to_identity(plain) == want
        assert calls == [n]
    for stored in ([tuple(row) for row in rows],
                   [{c: x for c, x in enumerate(row) if x} for row in rows]):
        calls.clear()
        assert IntMatrix(stored, n).is_involution() == want
        assert calls == [n]


@pytest.mark.parametrize("rows, width, want", [
    ([], 0, True),
    ([[0, 1], [1, 0]], 2, True),
    ([[1, 1], [0, 1]], 2, False),
    ([{c: 1 for c in (r, 17 - r)} if r in (0, 17) else {r: 1} for r in range(18)],
     18, False),
    ([[1, 0]], 2, False),
])
def test_is_involution_keeps_its_verdict(monkeypatch, rows, width, want):
    # every call gives the same verdict, and a non-square matrix is never
    # squared; a copy or a pickle round trip answers the same, and is equal
    # to the original, with the same hash
    calls = []
    square = intmat.squares_to_identity

    def counting(rows):
        calls.append(rows)
        return square(rows)
    monkeypatch.setattr(intmat, "squares_to_identity", counting)
    m = IntMatrix(rows, width)
    fresh = IntMatrix(rows, width)
    assert [m.is_involution() for _ in range(3)] == [want] * 3
    for twin in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
        assert twin == m == fresh and hash(twin) == hash(m) == hash(fresh)
        assert twin.is_involution() == want
    if len(rows) != width:
        assert calls == []


def test_direct_sum_of_nothing_and_of_empty_blocks():
    assert direct_sum([]) == IntMatrix(())
    assert direct_sum([()]) == IntMatrix(())
    one = ((7,),)
    assert direct_sum([(), one, ()]) == IntMatrix(one)


def test_direct_sum_of_mixed_blocks():
    a = ((1,),)
    b = ((2, 3), (4, 5))
    c = ((-6,),)
    assert direct_sum([a, b, c]) == IntMatrix.from_rows(
        [[1, 0, 0, 0], [0, 2, 3, 0], [0, 4, 5, 0], [0, 0, 0, -6]])
    assert direct_sum([b, a]) == IntMatrix.from_rows(
        [[2, 3, 0], [4, 5, 0], [0, 0, 1]])


@st.composite
def _square_blocks(draw):
    # the stored rows of square blocks of rank 1-6, entries in -3..3 and
    # some rows zero, of total rank 12-20, so that the sum is built on
    # either side of SPARSE_MIN_COLS; then up to two empty blocks
    left = draw(st.integers(12, 20))
    blocks = []
    while left:
        k = draw(st.integers(1, min(6, left)))
        left -= k
        rows = [draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))
                if draw(st.booleans()) else [0] * k for _ in range(k)]
        blocks.append(IntMatrix.from_rows(rows).stored_rows)
    for at in draw(st.lists(st.integers(0, len(blocks)), max_size=2)):
        blocks.insert(at, ())
    return blocks


@settings(deadline=None)
@given(_square_blocks())
@example([((1,),)] * (SPARSE_MIN_COLS - 1))
@example([((1,),)] * SPARSE_MIN_COLS)
@example([((0, 0), (0, 0))] * (SPARSE_MIN_COLS // 2))
def test_direct_sum_is_the_dense_block_placement(blocks):
    n = sum(map(len, blocks))
    dense = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for r, row in enumerate(b):
            dense[at + r][at:at + len(b)] = row
        at += len(b)
    assert direct_sum(blocks) == IntMatrix.from_rows(dense)


def test_first_difference_in_reading_order():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    assert first_difference(a, a) is None
    assert first_difference(a, IntMatrix.from_rows([[1, 2], [0, 0]])) == (1, 0)
    assert first_difference(a, IntMatrix.from_rows([[1, 0], [0, 4]])) == (0, 1)


@pytest.mark.parametrize("other", [[[1, 2], [3, 4], [5, 6]], [[1, 2, 0], [3, 4, 0]]])
def test_first_difference_of_different_shapes_raises(other):
    # the first rows agree, so the walk over them would find no difference
    a, b = IntMatrix.from_rows([[1, 2], [3, 4]]), IntMatrix.from_rows(other)
    for x, y in ((a, b), (b, a)):
        with pytest.raises(ValueError, match="^shape mismatch: "):
            first_difference(x, y)


def test_str_format():
    assert str(IntMatrix.from_rows([[-1, 1], [0, -1]])) == "[[-1, 1], [0, -1]]"
    assert str(IntMatrix(())) == "[]"


def test_no_inexact_arithmetic_outside_the_oracles():
    # every load-bearing path is exact integer arithmetic; only the
    # independent oracles may use rationals or floating point
    banned = {"fractions", "decimal", "numpy"}
    offenders = []
    for path in sorted(pathlib.Path(vanlat.__file__).parent.glob("*.py")):
        if path.name == "oracle.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            offenders += ["%s: %s" % (path.name, name) for name in names
                          if name.split(".")[0] in banned]
    assert offenders == []


@st.composite
def _flow_rows(draw):
    # rows of widths 0-40 at every fill, with negative entries and
    # entries past 64 bits
    width = draw(st.integers(0, 40))
    rows = [draw(_row(width)) if width else [] for _ in range(draw(st.integers(0, 4)))]
    big = draw(st.sampled_from([1, -1, 2 ** 64, -3 ** 90]))
    return [[x * big for x in row] for row in rows], width


@settings(max_examples=200, deadline=None)
@given(_flow_rows())
def test_row_text_is_the_flow_text_of_the_dense_row(case):
    # a row is written from its storage: a dict row from its nonzeros
    rows, width = case
    for row in rows:
        want = str(list(row))
        assert intmat.row_text(tuple(row), width) == want
        assert intmat.row_text({c: x for c, x in enumerate(row) if x}, width) == want
        assert intmat.row_text(intmat.store_row(row, width), width) == want


@settings(max_examples=200, deadline=None)
@given(_flow_rows())
def test_str_is_the_flow_text_of_the_dense_rows(case):
    rows, width = case
    assert str(IntMatrix(rows, width)) == str(rows)
