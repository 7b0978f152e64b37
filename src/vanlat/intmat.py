"""Exact arbitrary-precision integer matrices.

Everything in this package runs on plain Python integers, so there is no
overflow at any magnitude.  Matrices are immutable: all operations return
new values.  Each row is stored once, when its matrix is built: a wide row
with few nonzeros as the dict of its nonzero entries, any other row as a
tuple (:func:`store_row`), and every kernel reads and writes the rows as
stored, so a sparse matrix costs its nonzeros, not its area.  One row
kernel sums every product and sweeps monodromy and var, in one loop over
a weight row's nonzero terms, dict or tuple, with a flag for whether the
sum so far is a dict.

A determinant is taken component by component of the nonzero pattern,
each larger component by forward-only fraction-free (Bareiss)
elimination (:func:`bareiss_det`); the one inverse, which no library path
takes, is the determinant times the adjugate, cofactor by cofactor.

Operator convention used throughout the package: the matrix ``M`` of a
linear map sends the ``i``-th basis vector to ``sum_j M[j][i] * f_j``,
i.e. images are the *columns* of ``M``.
"""

from itertools import compress, repeat
from operator import add, countOf, neg

# A row is stored as a dict of its nonzero entries, ``{col: value}``, when
# it has at least SPARSE_MIN_COLS columns and at most one in SPARSE_FILL of
# them is nonzero, and as a tuple of all its entries otherwise: a kernel
# term over a sparse row costs its nonzeros, and over a short or dense row
# one list comprehension beats indexing its entries one by one.
SPARSE_MIN_COLS = 16
SPARSE_FILL = 4


def store_row(row, width):
    """The stored form of ``row``, a sequence of ``width`` ints or a dict
    ``{col: value}`` of some of them (zero values allowed).

    The choice between the two storages depends on the row's entries and
    ``width`` alone, so equal rows of equal width are stored alike.  A
    dict that is returned is ``row`` itself when it holds no zero value.
    """
    if type(row) is dict:
        if 0 in row.values():
            row = {c: v for c, v in row.items() if v}
        return row if _sparse(len(row), width) else dense_row(row, width)
    if _sparse(width - row.count(0), width):
        return {c: row[c] for c in compress(range(width), row)}
    return row if type(row) is tuple else tuple(row)


def _sparse(nonzeros, width):
    """The storage rule: whether a row of ``width`` columns with this
    many nonzero entries is stored as a dict."""
    return width >= SPARSE_MIN_COLS and nonzeros * SPARSE_FILL <= width


def dense_row(row, width):
    """A stored row as a tuple of all its ``width`` entries."""
    if type(row) is not dict:
        return row
    out = [0] * width
    for c, v in row.items():
        out[c] = v
    return tuple(out)


def row_text(row, width):
    """The flow text ``[a, b, ...]`` of a stored row of ``width`` entries,
    as ``str`` writes the list of its dense row; a dict row is written
    from its nonzeros, with no dense row built."""
    if type(row) is not dict:
        return str(list(row))
    out = ["0"] * width
    for c, v in row.items():
        out[c] = str(v)
    return "[%s]" % ", ".join(out)


def row_items(row):
    """``(col, value)`` for each nonzero entry of a stored row, a dict's in
    its own order and a tuple's left to right."""
    if type(row) is dict:
        return row.items()
    return zip(compress(range(len(row)), row), filter(None, row))


class IntMatrix:
    """An immutable integer matrix; each row is stored once, as
    :func:`store_row` chooses from its fill when the matrix is built.

    ``stored_rows`` holds the rows as stored, tuples and dicts, which no
    caller may change; ``rows`` is the dense tuple-of-tuples view, built
    on each access for text and for callers outside the package.  Since
    the storage of a row follows from its entries, equality and hashing
    compare the stored rows.  No verdict is kept: each level's analysis
    asks once whether its sigma is an involution.
    """

    __slots__ = ("stored_rows", "ncols")

    def __init__(self, rows, ncols=None):
        """Rows are tuples, lists or dicts ``{col: value}``, each stored as
        :func:`store_row` chooses; ``ncols`` is taken from the first row
        when not given, and is 0 without rows."""
        rows = tuple(rows)
        if not rows:
            ncols = 0
        elif ncols is None:
            if type(rows[0]) is dict:
                raise ValueError("a dict row does not give the width: pass ncols")
            ncols = len(rows[0])
        kinds = set(map(type, rows))
        if ncols >= SPARSE_MIN_COLS or dict in kinds:
            rows = tuple([store_row(row, ncols) for row in rows])
        elif list in kinds:
            rows = tuple(map(tuple, rows))
        _set_stored_rows(self, rows)
        _set_ncols(self, ncols)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    def __reduce__(self):  # copy and pickle through the constructor
        return IntMatrix, (self.stored_rows, self.ncols)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_rows(cls, rows, width=None):
        """Build from any iterable of row iterables, checking row widths
        and entries; operations and internal builders, whose rows are
        ints of one width, call the constructor directly.

        ``width`` is checked against a matrix with rows and pins nothing.
        """
        rows = [tuple(row) for row in rows]
        widths = set(map(len, rows))
        if len(widths) > 1:
            raise ValueError("ragged rows: %s" % sorted(widths))
        for row in rows:
            c = non_integer_at(row)
            if c is not None:
                raise ValueError("non-integer entry %r" % (row[c],))
        m = cls(rows)
        if width is not None and rows and m.ncols != width:
            raise ValueError("expected %d columns, got %d" % (width, m.ncols))
        return m

    @classmethod
    def identity(cls, n):
        return cls([{i: 1} for i in range(n)], n)

    @classmethod
    def zeros(cls, nrows, ncols):
        return cls([{} for _ in range(nrows)], ncols)

    # -- shape and access --------------------------------------------------

    @property
    def nrows(self):
        return len(self.stored_rows)

    @property
    def is_square(self):
        return self.nrows == self.ncols

    @property
    def rows(self):
        """The rows as a hashable tuple of dense row tuples."""
        return tuple(map(dense_row, self.stored_rows, repeat(self.ncols)))

    def __getitem__(self, key):
        r, c = key
        row = self.stored_rows[r]
        if type(row) is dict:
            if not -self.ncols <= c < self.ncols:
                raise IndexError("column %d out of range for width %d" % (c, self.ncols))
            return row.get(c if c >= 0 else c + self.ncols, 0)
        return row[c]

    def to_lists(self):
        return [list(r) for r in self.rows]

    def diagonal(self):
        """The entries ``(a[0][0], a[1][1], ...)``, read off the stored rows."""
        return tuple(row.get(r, 0) if type(row) is dict else row[r]
                     for r, row in enumerate(self.stored_rows[:self.ncols]))

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.ncols == other.ncols and self.stored_rows == other.stored_rows

    def __hash__(self):
        return hash((self.ncols, tuple(frozenset(r.items()) if type(r) is dict else r
                                       for r in self.stored_rows)))

    def __repr__(self):
        return "IntMatrix(rows=%r)" % (self.rows,)

    # -- algebra -----------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, int):
            scale = other.__mul__
            return IntMatrix([{c: scale(v) for c, v in r.items()} if type(r) is dict
                              else tuple(map(scale, r)) for r in self.stored_rows],
                             self.ncols)
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch: %dx%d times %dx%d"
                             % (self.nrows, self.ncols, other.nrows, other.ncols))
        # each output row is a combination of the rows of ``other``, one
        # term per nonzero entry of the row of ``self``, costing the
        # nonzeros of a sparse row of ``other`` or the width of a dense one
        return IntMatrix(combine_rows(self.stored_rows, other.stored_rows,
                                      other.ncols), other.ncols)

    __rmul__ = __mul__  # called only with a left operand that is no IntMatrix

    def __add__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape mismatch in addition")
        return IntMatrix(map(_add_rows, self.stored_rows, other.stored_rows),
                         self.ncols)

    def __sub__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self * -1

    def transpose(self):
        """The transpose, from the columns of :func:`transposed`."""
        return IntMatrix(transposed(self.stored_rows, self.ncols), self.nrows)

    def is_symmetric(self, sign=1):
        """Whether the matrix is ``sign`` times its transpose (``sign=-1``
        asks for a skew-symmetric one), with no matrix built: tuple rows
        are compared with the columns ``zip`` gives, any others by each
        stored nonzero against its mirror entry, which covers the zeros."""
        if not self.is_square:
            return False
        rows = self.stored_rows
        if dict not in set(map(type, rows)):
            cols = zip(*rows)
            if sign == -1:
                cols = (tuple(map(neg, col)) for col in cols)
            return rows == tuple(cols)
        for r, row in enumerate(rows):
            for c, v in row_items(row):
                mirror = rows[c]
                if (mirror.get(r, 0) if type(mirror) is dict else mirror[r]) != sign * v:
                    return False
        return True

    def is_involution(self):
        """Whether the matrix squares to the identity, by one kernel call
        of :func:`squares_to_identity` on each call; a non-square one does
        not, and is not squared."""
        return self.nrows == self.ncols and squares_to_identity(self.stored_rows)

    def det(self):
        """Exact determinant, taken over the components of the nonzero pattern.

        The rows and columns of each connected component of the pattern
        of ``A + A^T`` (see :func:`components`) meet no other component,
        so permuting rows and columns together (which keeps the
        determinant) makes ``A`` block diagonal, and the determinant is
        the product of the components' determinants.  A 1x1 component's
        determinant is its entry; a larger one is eliminated alone, by
        forward-only Bareiss (:func:`bareiss_det`).  A dense matrix is one
        component, so the split costs one O(nu^2) scan; a sparse one, such
        as a braid word's basis change, is eliminated in small blocks.
        """
        if not self.is_square:
            raise ValueError("determinant of a non-square matrix")
        out = 1
        rows, diagonal = self.stored_rows, self.diagonal()
        for comp in components(rows):
            out *= (diagonal[comp[0]] if len(comp) == 1
                    else bareiss_det(submatrix(rows, comp)))
        return out

    def unimodular_inverse(self):
        """Exact integer inverse; requires ``|det| == 1``.

        The inverse is ``det`` times the adjugate: its entry ``(i, j)`` is
        ``(-1)^(i+j)`` times the determinant, by :meth:`det`, of the matrix
        without row ``j`` and column ``i``.  That is nu^2 determinants,
        O(nu^5) on a dense matrix.  No library path calls this name: it
        exists only because the benchmark's tracer under ``bench/`` wraps
        it (ROADMAP.md, item 11).
        """
        if not self.is_square:
            raise ValueError("inverse of a non-square matrix")
        det = self.det()
        if det not in (1, -1):
            raise ValueError("matrix is not unimodular (det = %d)" % det)
        rows, n = self.rows, self.nrows

        def minor(j, i):  # without row j and column i
            return IntMatrix([row[:i] + row[i + 1:] for r, row in enumerate(rows)
                              if r != j], n - 1)
        return IntMatrix([[(-1) ** (i + j) * det * minor(j, i).det() for j in range(n)]
                          for i in range(n)], n)

    def __str__(self):
        return "[%s]" % ", ".join(map(row_text, self.stored_rows, repeat(self.ncols)))


# each slot is written once, by the constructor, through these setters,
# past the __setattr__ that refuses
_set_stored_rows = IntMatrix.stored_rows.__set__
_set_ncols = IntMatrix.ncols.__set__


def _add_rows(a, b):
    """The sum of two stored rows of one width, as a row to store."""
    if type(a) is dict:
        a, b = b, a
    if type(a) is dict:
        out = dict(a)
        for c, v in b.items():
            out[c] = out.get(c, 0) + v
        return out
    if type(b) is dict:
        out = list(a)
        for c, v in b.items():
            out[c] += v
        return out
    return tuple(map(add, a, b))


def transposed(rows, width):
    """The ``width`` columns of the matrix of ``rows``, stored rows or the
    kernel's sums: by ``zip`` when no row is a dict, else each column as
    the dict of the entries the rows hold in it."""
    if dict not in set(map(type, rows)):
        return list(zip(*rows))
    cols = [{} for _ in range(width)]
    for r, row in enumerate(rows):
        for c, v in row_items(row):
            cols[c][r] = v
    return cols


def combine_rows(weight_rows, rows, width, _sweep=None):
    """``sum_t weights[t] * rows[t]`` for each ``weights`` of
    ``weight_rows``, as new rows to store (see :func:`store_row`).

    The one row-combination kernel, behind every product and
    :func:`sweep_rows`, takes all the left rows of a product in one call.
    Weight rows and ``rows`` are stored rows.  One loop visits the
    nonzero weights of either storage, a dict's keys or a tuple's columns
    by ``itertools.compress``, and reads each weight by its column; a
    local flag says whether the sum so far is a dict.  A dict row adds
    its nonzeros into a dict while the weight row is a dict and every
    term so far is a dict, else into a list of ``width`` entries, which a
    tuple weight row's many terms would fill anyway; the first dense term
    turns a dict sum into a list and clears the flag.  A dict sum keeps
    the zeros that cancellation leaves, which :func:`store_row` drops when
    the sum is stored.  A first term starts the sum as a copy of its row,
    or the row times its weight; a left row with no nonzero weight gives
    an empty dict.  Each sum is built fresh, so a term may read a row that
    the caller is about to replace.

    With ``_sweep = (scale, start, unit)`` it runs the sweep of
    :func:`sweep_rows` on ``rows``, all ``None`` at first, a ``None`` row
    standing for ``start * e_t`` (one entry), each weight times ``scale``,
    and returns the new rows as made, last row first.
    """
    out, k, scale = [], len(rows), 1
    if _sweep is not None:
        scale, start, unit = _sweep
        weight_rows = reversed(weight_rows)
    indices = range(k)
    for weights in weight_rows:
        acc, in_dict = None, False
        by_dict = type(weights) is dict
        for t in weights if by_dict else compress(indices, weights):
            w, row = scale * weights[t], rows[t]
            if type(row) is dict:
                if acc is None and by_dict:
                    acc = dict(row) if w == 1 else {c: w * v for c, v in row.items()}
                    in_dict = True
                elif in_dict:
                    get = acc.get
                    for c, v in row.items():
                        acc[c] = get(c, 0) + w * v
                else:
                    acc = [0] * width if acc is None else acc
                    for c, v in row.items():
                        acc[c] += w * v
            elif row is None:
                if start:
                    if acc is None:
                        in_dict, acc = by_dict, {} if by_dict else [0] * width
                    acc[t] = (acc.get(t, 0) if in_dict else acc[t]) + start * w
            elif acc is None or in_dict:
                sparse, acc = acc, list(row) if w == 1 else [w * y for y in row]
                if in_dict:
                    in_dict = False
                    for c, v in sparse.items():
                        acc[c] += v
            else:
                acc = [x + w * y for x, y in zip(acc, row)]
        acc = {} if acc is None else acc
        if _sweep is not None:
            k -= 1
            acc[k] = (acc.get(k, 0) if type(acc) is dict else acc[k]) + unit
            acc = rows[k] = store_row(acc, width)
        out.append(acc)
    return out


def sweep_rows(weight_rows, width, scale, unit, start):
    """The triangular sweep: from the last row ``k`` to the first, row
    ``k`` becomes ``unit * e_k + scale * sum_t weight_rows[k][t] * row_t``,
    with ``row_t`` the new row for ``t > k`` and ``start * e_t`` for ``t <=
    k``, and is stored at once, so a sparse row is summed sparse.  The
    kernel takes ``scale`` with the sweep's other constants, as no product
    scales."""
    return IntMatrix(combine_rows(weight_rows, [None] * width, width,
                                  _sweep=(scale, start, unit))[::-1], width)


def squares_to_identity(rows):
    """The one involution test: whether the square matrix of ``rows``,
    stored rows or plain int sequences, squares to the identity.  One
    kernel call squares every row, and each emitted row is tested against
    its unit row, zeros and all, as the kernel sums it; no row is
    stored."""
    n = len(rows)
    for r, row in enumerate(combine_rows(rows, rows, n)):
        if not (row.get(r) == 1 and countOf(row.values(), 0) == len(row) - 1
                if type(row) is dict else row[r] == 1 and row.count(0) == n - 1):
            return False
    return True


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
    or ``None``; only the first differing row is read in full.  Matrices
    of different shapes raise ValueError."""
    if a == b:
        return None
    if a.nrows != b.nrows or a.ncols != b.ncols:
        raise ValueError("shape mismatch: %dx%d against %dx%d"
                         % (a.nrows, a.ncols, b.nrows, b.ncols))
    r, x, y = next((r, x, y) for r, (x, y) in enumerate(zip(a.stored_rows,
                                                           b.stored_rows))
                   if x != y)
    x, y = dense_row(x, a.ncols), dense_row(y, b.ncols)
    return r, next(c for c, (u, v) in enumerate(zip(x, y)) if u != v)


def direct_sum(blocks) -> IntMatrix:
    """Direct sum of square blocks given by their rows, tuples or dicts as
    stored: each block is placed on the diagonal after the ones before
    it, and every other entry is zero.

    Below ``SPARSE_MIN_COLS`` columns every row is a tuple padded with
    zeros; from there on each row is built as the dict of its nonzero
    entries, shifted to its block's columns, and stored by its fill.
    """
    n = sum(map(len, blocks))
    rows = []
    for b in blocks:
        at = len(rows)
        if n < SPARSE_MIN_COLS:
            left, right = (0,) * at, (0,) * (n - at - len(b))
            rows.extend([left + row + right for row in b])
        else:
            rows.extend([{at + c: v for c, v in row_items(row)} for row in b])
    return IntMatrix(rows, n)


def submatrix(rows, index):
    """The entries of the stored ``rows`` at rows and columns ``index``,
    as a list of lists."""
    out = []
    for r in index:
        row = rows[r]
        out.append([row.get(c, 0) for c in index] if type(row) is dict
                   else [row[c] for c in index])
    return out


def components(rows):
    """Index sets of the connected components of the nonzero pattern of
    ``A + A^T``, for the square matrix ``A`` given by its ``rows``, each
    set in increasing order and the sets ordered by their least index.

    Entry ``(r, c)`` joins ``r`` and ``c`` whether it sits above or below
    the diagonal, so one pass over the rows builds the adjacency lists of
    the symmetrised pattern, and a walk over them collects the
    components.  A row may be a sequence of entries, whose nonzero
    columns ``itertools.compress`` finds, or a stored dict, whose keys
    are its nonzero columns.  On a symmetric matrix these are the
    components of its own pattern.
    """
    adjacent = [[] for _ in rows]
    cols = range(len(rows))
    for r, row in enumerate(rows):
        for c in (row if type(row) is dict else compress(cols, row)):
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


def eliminate(m, k, rows, prev):
    """One fraction-free (Bareiss) step: clear column ``k`` of ``rows``.

    Each row ``i`` of the list-of-lists ``m`` named in ``rows`` becomes
    ``(m[i] * p - m[i][k] * m[k]) // prev`` with pivot ``p = m[k][k]``.
    ``prev`` is the pivot of the previous step (1 before the first), and
    Sylvester's identity makes every division exact: entries stay minors
    of the starting matrix.  Rows the step would leave unchanged are
    skipped.
    """
    pk = m[k]
    p = pk[k]
    for i in rows:
        ri = m[i]
        f = ri[k]
        if f or p != prev:
            m[i] = [(x * p - f * y) // prev for x, y in zip(ri, pk)]


def bareiss_det(m):
    """The determinant of the square list-of-lists ``m``, by forward-only
    fraction-free elimination (Bareiss 1968), which overwrites ``m``.

    Step ``k`` takes as pivot the first nonzero entry of column ``k`` at
    or below row ``k``, swaps its row up and clears the column below it
    (:func:`eliminate`), so the last pivot is the determinant up to the
    sign of the swaps.  A column with no pivot makes the determinant 0.
    """
    n = len(m)
    prev = sign = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if m[r][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        eliminate(m, k, range(k + 1, n), prev)
        prev = m[k][k]
    return sign * prev
