"""Exact arbitrary-precision integer matrices.

Everything in this package runs on plain Python integers, so there is no
overflow at any magnitude.  Matrices are immutable: all operations return
new values.

Operator convention used throughout the package: the matrix ``M`` of a
linear map sends the ``i``-th basis vector to ``sum_j M[j][i] * f_j``,
i.e. images are the *columns* of ``M``.
"""

from dataclasses import dataclass
from itertools import compress

# A right-hand row is added by its nonzero columns alone when it has at
# least SPARSE_MIN_COLS columns and at most one in SPARSE_FILL of them is
# nonzero; a shorter or denser row is added whole, where one list
# comprehension over the row beats indexing its entries one by one.
SPARSE_MIN_COLS = 16
SPARSE_FILL = 4


@dataclass(frozen=True)
class IntMatrix:
    """An immutable integer matrix stored as a tuple of row tuples."""

    rows: tuple[tuple[int, ...], ...]

    # -- construction ------------------------------------------------------

    @classmethod
    def from_rows(cls, rows, width=None):
        """Build from any iterable of row iterables, checking row widths
        and entries; operations and internal builders, whose rows are
        tuples of ints of one width, call the constructor directly.

        ``width`` is checked against a matrix with rows and pins nothing.
        """
        m = cls(tuple(tuple(row) for row in rows))
        widths = {len(r) for r in m.rows}
        if len(widths) > 1:
            raise ValueError("ragged rows: %s" % sorted(widths))
        for row in m.rows:
            c = non_integer_at(row)
            if c is not None:
                raise ValueError("non-integer entry %r" % (row[c],))
        if width is not None and m.rows and m.ncols != width:
            raise ValueError("expected %d columns, got %d" % (width, m.ncols))
        return m

    @classmethod
    def identity(cls, n):
        return cls(tuple((0,) * i + (1,) + (0,) * (n - 1 - i)
                         for i in range(n)))

    @classmethod
    def zeros(cls, nrows, ncols):
        return cls(tuple((0,) * ncols for _ in range(nrows)))

    @classmethod
    def diagonal(cls, entries):
        entries = list(entries)
        n = len(entries)
        return cls.from_rows([entries[i] if i == j else 0 for j in range(n)]
                             for i in range(n))

    # -- shape and access --------------------------------------------------

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0]) if self.rows else 0

    @property
    def is_square(self):
        return self.nrows == self.ncols

    def __getitem__(self, key):
        r, c = key
        return self.rows[r][c]

    def to_lists(self):
        return [list(r) for r in self.rows]

    # -- algebra -----------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, int):
            return IntMatrix(tuple(tuple(other * x for x in r) for r in self.rows))
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch: %dx%d times %dx%d"
                             % (self.nrows, self.ncols, other.nrows, other.ncols))
        # each output row is a combination of the rows of ``other``, one
        # term per nonzero entry of the row of ``self``.  Each row of
        # ``other`` is classed once per product: a term costs that row's
        # nonzeros if it is wide and sparse, else its width, so a product
        # costs O(nnz(self) * ncols) at most and less on sparse ``other``
        width, right = other.ncols, other.rows
        supports = row_supports(right, width)
        return IntMatrix(tuple(map(tuple, combine_rows(self.rows, right, supports,
                                                       width))))

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __add__(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape mismatch in addition")
        return IntMatrix(tuple(tuple(a + b for a, b in zip(ra, rb))
                               for ra, rb in zip(self.rows, other.rows)))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return IntMatrix(tuple(tuple(-x for x in r) for r in self.rows))

    def transpose(self):
        if not self.rows:
            return IntMatrix(())
        return IntMatrix(tuple(zip(*self.rows)))

    def is_symmetric(self):
        return self.is_square and self.rows == tuple(zip(*self.rows))

    def det(self):
        """Exact determinant, taken over the components of the nonzero pattern.

        The rows and columns of each connected component of the pattern
        of ``A + A^T`` (see :func:`components`) meet no other component,
        so permuting rows and columns together (which keeps the
        determinant) makes ``A`` block diagonal, and the determinant is
        the product of the components' determinants.  A 1x1 component's
        determinant is its entry.  A larger one is reduced alone by
        :func:`row_reduce`, which ends with its pivot minor ``d``: at full
        rank its determinant is ``d`` times the sign of the row swaps, and
        a rank-deficient component makes the whole determinant 0.  A dense
        matrix is one component, so the split costs one O(nu^2) scan; a
        sparse one, such as a braid word's basis change, is reduced in
        small blocks.
        """
        if not self.is_square:
            raise ValueError("determinant of a non-square matrix")
        out = 1
        for comp in components(self.rows):
            if len(comp) == 1:
                out *= self.rows[comp[0]][comp[0]]
                continue
            block = [[self.rows[r][c] for c in comp] for r in comp]
            pivots, d, sign = row_reduce(block, len(comp))
            if len(pivots) < len(comp):
                return 0
            out *= sign * d
        return out

    def unimodular_inverse(self):
        """Exact integer inverse; requires ``|det| == 1``.

        One reduction of ``[A | I]`` yields both the determinant and
        ``d * A^-1`` in the right half.
        """
        if not self.is_square:
            raise ValueError("inverse of a non-square matrix")
        n = self.nrows
        aug = [list(row) + [int(i == j) for j in range(n)]
               for i, row in enumerate(self.rows)]
        pivots, d, sign = row_reduce(aug, n)
        det = sign * d if len(pivots) == n else 0
        if det not in (1, -1):
            raise ValueError("matrix is not unimodular (det = %d)" % det)
        return IntMatrix(tuple(tuple(x * d for x in row[n:]) for row in aug))

    def __str__(self):
        return str(list(map(list, self.rows)))


def row_supports(rows, width):
    """For each of ``rows``, its nonzero columns if :func:`combine_rows`
    should add it by those columns alone, or ``None`` if it should add
    the whole row.

    A row is added by columns when it has at least ``SPARSE_MIN_COLS``
    columns and at most one in ``SPARSE_FILL`` of them is nonzero, so a
    dense row costs one C-level count and a short one nothing.
    """
    if width < SPARSE_MIN_COLS:
        return [None] * len(rows)
    cols = range(width)
    return [tuple(compress(cols, row))
            if (width - row.count(0)) * SPARSE_FILL <= width else None
            for row in rows]


def combine_rows(weight_rows, rows, supports, width, scale=1):
    """``scale * sum_t weights[t] * rows[t]`` for each ``weights`` of
    ``weight_rows``, as new lists of ``width`` ints.

    The one row-combination kernel, behind every product and the
    monodromy sweep.  It takes all the left rows of a product in one
    call, so that the many small products of the package pay for the
    call once.  Only the nonzero weights are visited.  A row
    whose support (from :func:`row_supports`) is a tuple of columns adds
    only those entries; a row whose support is ``None`` is added whole,
    and when it is the first term it starts the sum as a copy of the
    row, or the row scaled, rather than being added to zeros.  A left
    row with no nonzero weight gives zeros.  Each sum is accumulated in
    a fresh list, so a term may read a row that the caller is about to
    replace.  A term costs the nonzeros of a sparse row or the width of
    a dense one.
    """
    out = []
    indices = range(len(rows))
    for weights in weight_rows:
        acc = None
        for t in compress(indices, weights):
            w, row, cols = scale * weights[t], rows[t], supports[t]
            if cols is not None:
                if acc is None:
                    acc = [0] * width
                for c in cols:
                    acc[c] += w * row[c]
            elif acc is None:
                acc = list(row) if w == 1 else [w * y for y in row]
            else:
                acc = [x + w * y for x, y in zip(acc, row)]
        out.append([0] * width if acc is None else acc)
    return out


def non_integer_at(row):
    """Position of the first entry of ``row`` that is not an integer, or None.

    Booleans are not integers here.  A row of plain ints is passed
    without a Python-level loop.
    """
    if {int}.issuperset(map(type, row)):
        return None
    return next((c for c, x in enumerate(row)
                 if not isinstance(x, int) or isinstance(x, bool)), None)


def first_difference(a: IntMatrix, b: IntMatrix) -> tuple[int, int] | None:
    """First ``(row, col)``, in reading order, where ``a`` and ``b`` differ,
    or ``None``."""
    if a.rows == b.rows:
        return None
    return next((r, c) for r, (x, y) in enumerate(zip(a.rows, b.rows))
                for c, (u, v) in enumerate(zip(x, y)) if u != v)


def block_diagonal(blocks) -> IntMatrix:
    """Direct sum of square matrices, each placed on the diagonal after
    the ones before it; zero elsewhere."""
    return IntMatrix(block_diagonal_rows([b.rows for b in blocks]))


def block_diagonal_rows(blocks) -> tuple[tuple[int, ...], ...]:
    """Rows of :func:`block_diagonal` of square blocks given by their rows."""
    n = sum(map(len, blocks))
    rows = []
    for b in blocks:
        left, right = (0,) * len(rows), (0,) * (n - len(rows) - len(b))
        rows.extend([left + row + right for row in b])
    return tuple(rows)


def components(rows):
    """Index sets of the connected components of the nonzero pattern of
    ``A + A^T``, for the square matrix ``A`` given by its ``rows``, each
    set in increasing order and the sets ordered by their least index.

    Entry ``(r, c)`` joins ``r`` and ``c`` whether it sits above or below
    the diagonal, so one pass over the rows builds the adjacency lists of
    the symmetrised pattern, and a walk over them collects the
    components.  On a symmetric matrix these are the components of its
    own pattern.
    """
    adjacent = [[] for _ in rows]
    cols = range(len(rows))
    for r, row in enumerate(rows):
        for c in compress(cols, row):
            if c != r:
                adjacent[r].append(c)
                adjacent[c].append(r)
    seen = [False] * len(rows)
    out = []
    for start in range(len(rows)):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        for r in comp:  # grows while it is walked
            for c in adjacent[r]:
                if not seen[c]:
                    seen[c] = True
                    comp.append(c)
        out.append(sorted(comp))
    return out


def eliminate(m, k, c, rows, prev):
    """One fraction-free (Bareiss) step: clear column ``c`` of ``rows``.

    Each row ``i`` of the list-of-lists ``m`` named in ``rows`` becomes
    ``(m[i] * p - m[i][c] * m[k]) // prev`` with pivot ``p = m[k][c]``.
    ``prev`` is the pivot of the previous step (1 before the first), and
    Sylvester's identity makes every division exact: entries stay minors
    of the starting matrix.  Rows the step would leave unchanged are
    skipped.
    """
    pk = m[k]
    p = pk[c]
    for i in rows:
        ri = m[i]
        f = ri[c]
        if f or p != prev:
            m[i] = [(x * p - f * y) // prev for x, y in zip(ri, pk)]


def row_reduce(m, ncols):
    """Fraction-free Gauss-Jordan on the first ``ncols`` columns of ``m``.

    Reduces the list-of-lists ``m`` in place to ``d`` times its reduced
    row echelon form, taking as pivot the first nonzero entry at or
    below the current row.  Returns ``(pivots, d, sign)``: the pivot
    column of each leading row, the last pivot (the determinant of the
    pivot rows and columns in their final order, 1 if there is none),
    and the sign of the row permutation.  Columns past ``ncols`` are
    carried along.
    """
    pivots = []
    prev = sign = 1
    for c in range(ncols):
        k = len(pivots)
        if k == len(m):
            break
        piv = next((r for r in range(k, len(m)) if m[r][c]), None)
        if piv is None:
            continue
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        eliminate(m, k, c, (r for r in range(len(m)) if r != k), prev)
        prev = m[k][c]
        pivots.append(c)
    return pivots, prev, sign
