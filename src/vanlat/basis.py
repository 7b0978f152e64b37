"""Moves on distinguished bases: reflections, monodromy, braid moves, flips.

The braid move at position ``j`` replaces basis thimbles ``j, j+1`` by

    new_j   = old_{j+1} + sgn * <old_{j+1}, old_j> * old_j
    new_j+1 = old_j

with ``sgn = (-1)^(p(p+1)/2)`` for parity ``p``; everything else is fixed.
Every move returns both the transformed lattice and the unimodular basis
change whose columns express the new basis in the old one, so operator
identities can be tested as congruences and conjugations.

Each move computes the new pairing matrix twice, by closed-form update
rules and by congruence through the basis change, and insists the two
agree exactly.
"""

import re
from dataclasses import dataclass

from .intmat import IntMatrix
from .lattice import ThimbleLattice, diagonal_sign, require_valid


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


@dataclass(frozen=True)
class BraidWord:
    """A finite sequence of braid moves, applied left to right."""

    moves: tuple[BraidMove, ...]

    def __str__(self):
        return " ".join(str(m) for m in self.moves)

    def __len__(self):
        return len(self.moves)


_TOKEN = re.compile(r"([aAf])(\d+)$")


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
    """Unimodular matrix whose columns are the new basis in the old one."""

    matrix: IntMatrix

    def __post_init__(self):
        if self.matrix.det() not in (1, -1):
            raise ValueError("basis change must be unimodular")

    @classmethod
    def identity(cls, n):
        return cls(IntMatrix.identity(n))

    def then(self, later: "BasisChange") -> "BasisChange":
        """Composite change: first self, then ``later`` in the new basis."""
        return BasisChange(self.matrix * later.matrix)

    def inverse(self) -> "BasisChange":
        return BasisChange(self.matrix.unimodular_inverse())


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
    rows = [list(r) for r in IntMatrix.identity(lat.nu).rows]
    for c in range(lat.nu):
        rows[k][c] += s * lat.gram[k, c]
    return IntMatrix.from_rows(rows)


def monodromy(lat: ThimbleLattice) -> IntMatrix:
    """Composite of all basis reflections, first basis element outermost.

    Builds ``PL_1 * (PL_2 * (... * PL_nu))`` from the inside out.  Left
    multiplication by ``PL_{k+1}`` only changes row ``k``, which gains
    ``sgn * sum_c gram[k][c] * row_c``, so each reflection costs one
    O(nu^2) row update and the whole product O(nu^3).
    """
    require_valid(lat)
    s = diagonal_sign(lat.parity)
    rows = [[int(i == j) for j in range(lat.nu)] for i in range(lat.nu)]
    for k in reversed(range(lat.nu)):
        acc = rows[k]
        for c, w in enumerate(lat.gram.row(k)):
            if w:
                sw = s * w
                acc = [x + sw * y for x, y in zip(acc, rows[c])]
        rows[k] = acc
    return IntMatrix.from_rows(rows)


def _mirror(parity: int) -> int:
    return 1 if parity % 2 == 1 else -1


def _finish_move(lat, new_rows, cols):
    """Check closed-form rows against the congruence route and package up."""
    change = BasisChange(IntMatrix.from_rows(cols).transpose())
    closed = IntMatrix.from_rows(new_rows)
    p = change.matrix
    congruent = p.transpose() * lat.gram * p
    if closed != congruent:
        raise AssertionError(
            "closed-form gram update disagrees with congruence: %s vs %s"
            % (closed, congruent))
    return ThimbleLattice(lat.parity, closed), change


def braid_alpha(lat: ThimbleLattice, j: int) -> tuple[ThimbleLattice, BasisChange]:
    """Forward braid move at position ``j`` (1 <= j <= nu-1)."""
    if not 1 <= j <= lat.nu - 1:
        raise ValueError("index %d out of range 1..%d" % (j, lat.nu - 1))
    k = j - 1
    g = lat.gram
    s = diagonal_sign(lat.parity)
    eps = _mirror(lat.parity)
    coeff = s * g[k, k + 1]  # sgn * <old_{k+1}, old_k>

    n = [list(r) for r in g.rows]
    n[k + 1][k] = -g[k + 1, k]
    n[k][k + 1] = eps * n[k + 1][k]
    for r in range(lat.nu):
        if r in (k, k + 1):
            continue
        n[k][r] = g[k + 1, r] + s * g[k, k + 1] * g[k, r]
        n[r][k] = eps * n[k][r]
        n[k + 1][r] = g[k, r]
        n[r][k + 1] = eps * n[k + 1][r]

    cols = [[0] * lat.nu for _ in range(lat.nu)]
    for i in range(lat.nu):
        cols[i][i] = 1
    cols[k] = [0] * lat.nu
    cols[k][k] = coeff
    cols[k][k + 1] = 1
    cols[k + 1] = [0] * lat.nu
    cols[k + 1][k] = 1
    return _finish_move(lat, n, cols)


def braid_alpha_inverse(lat: ThimbleLattice, j: int) -> tuple[ThimbleLattice, BasisChange]:
    """Inverse braid move; exact group inverse of :func:`braid_alpha`."""
    if not 1 <= j <= lat.nu - 1:
        raise ValueError("index %d out of range 1..%d" % (j, lat.nu - 1))
    k = j - 1
    g = lat.gram
    s = diagonal_sign(lat.parity)
    eps = _mirror(lat.parity)
    # inverse reflection coefficient: equals s for odd parity, -s for even
    c_inv = s if lat.parity % 2 == 1 else -s
    coeff = c_inv * g[k + 1, k]  # c_inv * <old_k, old_{k+1}>

    n = [list(r) for r in g.rows]
    n[k + 1][k] = -g[k + 1, k]
    n[k][k + 1] = eps * n[k + 1][k]
    for r in range(lat.nu):
        if r in (k, k + 1):
            continue
        n[k][r] = g[k + 1, r]
        n[r][k] = eps * n[k][r]
        n[k + 1][r] = g[k, r] + c_inv * g[k + 1, k] * g[k + 1, r]
        n[r][k + 1] = eps * n[k + 1][r]

    cols = [[0] * lat.nu for _ in range(lat.nu)]
    for i in range(lat.nu):
        cols[i][i] = 1
    cols[k] = [0] * lat.nu
    cols[k][k + 1] = 1
    cols[k + 1] = [0] * lat.nu
    cols[k + 1][k] = 1
    cols[k + 1][k + 1] = coeff
    return _finish_move(lat, n, cols)


def orientation_flip(lat: ThimbleLattice, j: int) -> tuple[ThimbleLattice, BasisChange]:
    """Negate basis thimble ``j``: row and column ``j`` of the gram flip sign."""
    if not 1 <= j <= lat.nu:
        raise ValueError("index %d out of range 1..%d" % (j, lat.nu))
    k = j - 1
    n = [list(r) for r in lat.gram.rows]
    for c in range(lat.nu):
        n[k][c] = -n[k][c]
    for r in range(lat.nu):
        n[r][k] = -n[r][k]
    cols = [[0] * lat.nu for _ in range(lat.nu)]
    for i in range(lat.nu):
        cols[i][i] = -1 if i == k else 1
    return _finish_move(lat, n, cols)


def apply_braid_word(lat: ThimbleLattice,
                     word: BraidWord) -> tuple[ThimbleLattice, BasisChange]:
    """Apply a word left to right, accumulating the total basis change."""
    change = BasisChange.identity(lat.nu)
    current = lat
    for move in word.moves:
        if move.kind == "a":
            current, step = braid_alpha(current, move.j)
        elif move.kind == "A":
            current, step = braid_alpha_inverse(current, move.j)
        else:
            current, step = orientation_flip(current, move.j)
        change = change.then(step)
    return current, change
