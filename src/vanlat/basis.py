"""Moves on distinguished bases: reflections, monodromy, braid moves, flips.

The braid move at position ``j`` replaces basis thimbles ``j, j+1`` by

    new_j   = old_{j+1} + sgn * <old_{j+1}, old_j> * old_j
    new_j+1 = old_j

with ``sgn = (-1)^(p(p+1)/2)`` for parity ``p``; everything else is fixed.
Every move returns both the transformed lattice and the unimodular basis
change whose columns express the new basis in the old one, so operator
identities can be tested as congruences and conjugations, both on
:class:`BasisChange`.

Every word computes the new pairing matrix twice, by closed-form update
rules move by move and by congruence through the composite basis change,
and insists the two agree exactly; the tests check the same per move.
The composite change of a word of ``L`` moves is the identity outside
at most ``2 * L`` columns, so every product keeps that sparse factor on
the left, at O((nu + L) * nu) rather than a dense O(nu^3), and its
determinant is taken over the components of its sparse pattern.  The
word builds the transpose of that change from its columns, and the
transports run the row kernel on rows, so a word builds three matrices:
the closed-form gram, ``P^T`` and the congruence; ``P`` itself is built
only where it is read.
"""

import re
import sys
from dataclasses import dataclass
from functools import cache, cached_property
from math import inf

from .intmat import IntMatrix, combine_rows, dense_row, sweep_rows, transposed
from .lattice import ThimbleLattice, diagonal_sign, mirror_sign, require_valid


@dataclass(frozen=True)
class BraidMove:
    """One move: kind 'a' (forward), 'A' (inverse) or 'f' (orientation flip)."""

    kind: str
    j: int  # 1-based position

    def __post_init__(self):
        if self.kind not in ("a", "A", "f"):
            raise ValueError("unknown move kind %r" % (self.kind,))
        if self.j < 1:
            raise ValueError("move position must be >= 1")

    def __str__(self):
        return "%s%d" % (self.kind, self.j)

    def last_position(self, nu: int) -> int:
        """Largest position of this kind at rank ``nu``."""
        return nu if self.kind == "f" else nu - 1


@dataclass(frozen=True)
class BraidWord:
    """A finite sequence of braid moves, applied left to right."""

    moves: tuple[BraidMove, ...]

    def __str__(self):
        return " ".join(str(m) for m in self.moves)

    def __len__(self):
        return len(self.moves)

    def first_out_of_range(self, nu: int) -> BraidMove | None:
        """The first move whose position does not exist at rank ``nu``."""
        return next((m for m in self.moves if m.j > m.last_position(nu)), None)


_TOKEN = re.compile(r"([aAf])([0-9]+)$")


def parse_braid_word(text: str) -> BraidWord:
    """Parse a word like ``"a1 A2 f3"``; raises ValueError on bad tokens."""
    moves = []
    for tok in text.split():
        m = _TOKEN.match(tok)
        if not m:
            raise ValueError("malformed braid token %r" % (tok,))
        moves.append(BraidMove(m.group(1), int(m.group(2))))
    return BraidWord(tuple(moves))


@dataclass(frozen=True)
class BasisChange:
    """Unimodular matrix ``P`` whose columns are the new basis in the old one.

    The change is kept as ``columns = P^T``, whose rows are the columns of
    ``P``, as a braid word builds them; the determinant is taken on
    ``P^T``, which has the same one, and two changes are equal when their
    ``P^T`` are.  ``matrix = P`` is built from it on first read.

    A product costs, for each nonzero of its left factor, the nonzeros of
    the matching row of its right factor when that row is stored sparse,
    and the row's width when it is stored dense (see
    :func:`~vanlat.intmat.combine_rows`).  ``P`` is the identity outside
    a few columns, so its rows and those of ``P^T`` are stored sparse
    from rank 16 on, while the pairings and maps moved here may be
    dense; both rules below keep ``P`` or ``P^T`` on the left of every
    product and never invert.  They run the row kernel on the stored
    rows and its sums, transpose those by :func:`~vanlat.intmat.transposed`,
    and build one matrix from them: the congruence, or the side ``old P``
    that ``P * new`` is compared with.
    """

    columns: IntMatrix

    def __post_init__(self):
        if self.columns.det() not in (1, -1):
            raise ValueError("basis change must be unimodular")

    @cached_property
    def matrix(self) -> IntMatrix:
        """``P``, the transpose of ``columns``."""
        return self.columns.transpose()

    def _times_p(self, rows):
        """The rows of ``m P`` for the rows of ``m``, stored or summed, as
        the transpose of ``P^T m^T``."""
        n = self.columns.ncols
        return transposed(combine_rows(self.columns.stored_rows,
                                       transposed(rows, n), n), n)

    def congruence(self, m: IntMatrix) -> IntMatrix:
        """``P^T m P``, the new matrix of a pairing or of a map into the
        dual, formed as ``(P^T m) P``."""
        pt_m = combine_rows(self.columns.stored_rows, m.stored_rows, m.ncols)
        return IntMatrix(self._times_p(pt_m), m.ncols)

    def conjugates(self, old: IntMatrix, new: IntMatrix) -> bool:
        """Whether ``new = P^-1 old P``, the new matrix of an endomorphism,
        tested as ``P * new == old P``."""
        return self.matrix * new == IntMatrix(self._times_p(old.stored_rows),
                                              old.ncols)


def picard_lefschetz(lat: ThimbleLattice, j: int) -> IntMatrix:
    """Matrix of the reflection in basis thimble ``j`` (1-based).

    Sends ``y`` to ``y + sgn * <y, delta_j> * delta_j``; in the stored
    convention this adds ``sgn`` times row ``j`` of the gram matrix to row
    ``j`` of the identity.
    """
    if not 1 <= j <= lat.nu:
        raise ValueError("index %d out of range 1..%d" % (j, lat.nu))
    k = j - 1
    s = diagonal_sign(lat.parity)
    rows = list(IntMatrix.identity(lat.nu).stored_rows)
    rows[k] = [s * g for g in dense_row(lat.gram.stored_rows[k], lat.nu)]
    rows[k][k] += 1
    return IntMatrix(rows, lat.nu)


def monodromy(lat: ThimbleLattice) -> IntMatrix:
    """Composite of all basis reflections, first basis element outermost.

    Builds ``PL_1 * (PL_2 * (... * PL_nu))`` from the inside out.  Left
    multiplication by ``PL_{k+1}`` only changes row ``k``, which becomes
    ``e_k + sgn * sum_c gram[k][c] * row_c`` with ``row_c = e_c`` for ``c <=
    k``: a step of :func:`~vanlat.intmat.sweep_rows` from start 1.  A
    reflection costs what its gram row selects, at most O(nu^2); on an
    A_k tower every row stays sparse, so the sweep costs O(nu).
    """
    require_valid(lat)
    return sweep_rows(lat.gram.stored_rows, lat.nu, diagonal_sign(lat.parity), 1, 1)


def _replace_pair(g, k, top, bottom, parity):
    """Install new rows ``k, k+1`` and mirror them into columns ``k, k+1``.

    The 2x2 block on the diagonal keeps its diagonal and negates the rest;
    it is set after the one pass that mirrors every row, itself included.
    """
    eps, j = mirror_sign(parity), k + 1
    a, b, g[k], g[j] = g[k], g[j], top, bottom
    for row, x, y in zip(g, top, bottom):
        row[k], row[j] = eps * x, eps * y
    top[k], top[j] = a[k], -a[j]
    bottom[k], bottom[j] = -b[k], b[j]


def _alpha_step(g, cols, k, parity):
    coeff = diagonal_sign(parity) * g[k][k + 1]  # sgn * <old_{k+1}, old_k>
    a, b = g[k], g[k + 1]
    _replace_pair(g, k, [y + coeff * x for x, y in zip(a, b)], list(a), parity)
    c, d = cols[k], cols[k + 1]
    cols[k], cols[k + 1] = _plus(d, coeff, c, len(g)), c


def _alpha_inverse_step(g, cols, k, parity):
    # inverse reflection coefficient: s for odd parity, -s for even
    c_inv = mirror_sign(parity) * diagonal_sign(parity)
    coeff = c_inv * g[k + 1][k]  # c_inv * <old_k, old_{k+1}>
    a, b = g[k], g[k + 1]
    _replace_pair(g, k, list(b), [x + coeff * y for x, y in zip(a, b)], parity)
    c, d = cols[k], cols[k + 1]
    cols[k], cols[k + 1] = d, _plus(c, coeff, d, len(g))


def _flip_step(g, cols, k, parity):
    for row in g:
        row[k] = -row[k]
    g[k] = [-x for x in g[k]]
    cols[k] = {r: -v for r, v in cols[k].items()}


def _plus(x, w, y, n):
    """``x + w * y`` for columns of the basis change, kept as dicts of
    their entries and summed by the row kernel; a zero that the sum holds
    is dropped when ``P^T`` is stored."""
    acc, = combine_rows(({0: 1, 1: w},), (x, y), n)
    return acc


_STEPS = {"a": _alpha_step, "A": _alpha_inverse_step, "f": _flip_step}


@cache
def _str_limit_bits(digits):
    """The bit length of ``10 ** digits``: an int with more bits has more
    than ``digits`` decimal digits, so ``str()`` refuses it under that limit."""
    return (10 ** digits).bit_length()


def apply_braid_word(lat: ThimbleLattice,
                     word: BraidWord) -> tuple[ThimbleLattice, BasisChange]:
    """Apply a word left to right, accumulating the total basis change.

    Each move rewrites rows and columns ``k, k+1`` of one working gram by
    the closed-form rules, at O(nu), and updates two columns of the
    composite change ``P``, kept as dicts of their entries; they are the
    rows of ``P^T``, which is built from them once, sparse, and is all the
    :class:`BasisChange` keeps.  The closed-form gram is then checked once
    against the congruence ``P^T G P``, which costs O(nnz(P) * nu) for the
    sparse ``P`` of a short word, and ``P`` must have determinant +-1,
    taken over the components of the pattern of ``P^T`` (see
    ``IntMatrix.det``).  Both checks stay exact and independent of the
    closed-form rules.

    Entries can grow without bound along a word, each move adding a
    product with the move's coefficient.  A coefficient longer than
    ``str()`` may write under ``sys.get_int_max_str_digits()`` is
    converted with ``str()`` at any move, which raises the same
    ``ValueError`` as writing the result would, before the entries grow
    further.
    """
    require_valid(lat)
    bad = word.first_out_of_range(lat.nu)
    if bad is not None:
        raise ValueError("index %d out of range 1..%d"
                         % (bad.j, bad.last_position(lat.nu)))
    # 0 is no limit; Pythons before 3.10.7 have neither the limit nor its getter
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    max_bits = _str_limit_bits(limit) if limit else inf
    g = lat.gram.to_lists()
    cols = [{c: 1} for c in range(lat.nu)]
    for move in word.moves:
        k = move.j - 1
        if move.kind != "f" and g[k][k + 1].bit_length() > max_bits:
            str(g[k][k + 1])  # past the limit: raises ValueError
        _STEPS[move.kind](g, cols, k, lat.parity)
    closed = IntMatrix(g, lat.nu)
    change = BasisChange(IntMatrix(cols, lat.nu))
    congruent = change.congruence(lat.gram)
    if closed != congruent:
        raise AssertionError(
            "closed-form gram update disagrees with congruence: %s vs %s"
            % (closed, congruent))
    return ThimbleLattice(lat.parity, closed), change


def braid_alpha(lat: ThimbleLattice, j: int) -> tuple[ThimbleLattice, BasisChange]:
    """Forward braid move at position ``j`` (1 <= j <= nu-1): the word
    ``a<j>`` through :func:`apply_braid_word`.

    No library path calls this name, nor the two moves below: they exist
    only because the benchmark's tracer under ``bench/`` wraps them, and
    they go when the tracer counts braid words instead (ROADMAP.md, items
    1 and 11).
    """
    return apply_braid_word(lat, BraidWord((BraidMove("a", j),)))


def braid_alpha_inverse(lat: ThimbleLattice, j: int) -> tuple[ThimbleLattice, BasisChange]:
    """Inverse braid move, the word ``A<j>``; exact group inverse of
    :func:`braid_alpha`, and like it kept only for the tracer."""
    return apply_braid_word(lat, BraidWord((BraidMove("A", j),)))


def orientation_flip(lat: ThimbleLattice, j: int) -> tuple[ThimbleLattice, BasisChange]:
    """Negate basis thimble ``j``, the word ``f<j>``: row and column ``j``
    of the gram flip sign.  Kept only for the tracer, like
    :func:`braid_alpha`."""
    return apply_braid_word(lat, BraidWord((BraidMove("f", j),)))
