"""Lattices of thimbles attached to a distinguished basis.

A ``ThimbleLattice`` is a free Z-module of rank ``nu`` together with the
integer pairing matrix of an ordered basis of thimbles and a parity
parameter: the pairing is symmetric when the parity is odd and
skew-symmetric when it is even.  This module holds the lattice, its
validation, the parity's signs and the gram rows of given entries above
the diagonal, and draws nothing: random lattices are drawn in
:mod:`vanlat.gen`.

Storage convention (fixed once for the whole package):

    ``gram[r][c]`` is the pairing of basis thimble ``c`` against basis
    thimble ``r``, i.e. the *column* index is the first argument of the
    pairing.  All formulas in other modules are stated in this convention.
"""

from dataclasses import dataclass
from functools import cached_property

from .intmat import IntMatrix


def self_intersection(parity: int) -> int:
    """Self-pairing of a thimble: ``(-1)^(p(p-1)/2) * (1 + (-1)^(p-1))``.

    Zero for even parity, plus or minus 2 for odd parity.  An ``int`` for
    every integer parity, zero and negative ones included.
    """
    if parity % 2 == 0:
        return 0
    return -2 if (parity * (parity - 1)) // 2 % 2 else 2


def diagonal_sign(parity: int) -> int:
    """The sign ``(-1)^(p(p+1)/2)`` that drives the reflection formulas."""
    return -1 if (parity * (parity + 1)) // 2 % 2 else 1


def mirror_sign(parity: int) -> int:
    """``gram[c][r] / gram[r][c]``: +1 (symmetric) for odd parity, -1
    (skew-symmetric) for even, negative parities included."""
    return 1 if parity % 2 else -1


def gram_rows(size: int, parity: int, upper) -> tuple[tuple[int, ...], ...]:
    """Rows of the valid gram matrix of the given parity whose entries
    above the diagonal are the flat list ``upper``, in row-major order:
    row ``r``'s ``size - 1 - r`` entries right of the diagonal follow the
    rows above it, and the entries below mirror them."""
    eps, diagonal = mirror_sign(parity), self_intersection(parity)
    rows = [[diagonal] * size for _ in range(size)]
    start = 0
    for r in range(size):
        right = upper[start:start + size - 1 - r]
        rows[r][r + 1:] = right
        for c, v in enumerate(right, r + 1):
            rows[c][r] = eps * v
        start += size - 1 - r
    return tuple(map(tuple, rows))


@dataclass(frozen=True)
class ThimbleLattice:
    """Rank-``nu`` lattice with parity-governed pairing matrix."""

    parity: int
    gram: IntMatrix

    def __post_init__(self):
        if not self.gram.is_square:
            raise ValueError("gram matrix must be square, got %dx%d"
                             % (self.gram.nrows, self.gram.ncols))

    @property
    def nu(self) -> int:
        return self.gram.nrows

    @cached_property
    def violation(self) -> str | None:
        """:func:`validate_lattice` of this lattice, run once per lattice."""
        return validate_lattice(self)


def validate_lattice(lat: ThimbleLattice) -> str | None:
    """Return ``None`` if the lattice is well formed, else the first violation.

    Checks the parity symmetry rule and that every diagonal entry equals
    the prescribed self-pairing for the lattice parity.
    """
    g = lat.gram
    want = self_intersection(lat.parity)
    eps = mirror_sign(lat.parity)
    if g.is_symmetric(eps) and all(x == want for x in g.diagonal()):
        return None
    # something is wrong: find the first violation in reading order
    for r in range(g.nrows):
        if g[r, r] != want:
            return ("diagonal entry gram[%d][%d] = %d, expected %d for parity %d"
                    % (r, r, g[r, r], want, lat.parity))
        for c in range(r + 1, g.ncols):
            if g[r, c] != eps * g[c, r]:
                kind = "symmetric" if eps == 1 else "skew-symmetric"
                return ("entries gram[%d][%d] = %d and gram[%d][%d] = %d violate the %s rule"
                        % (r, c, g[r, c], c, r, g[c, r], kind))


def require_valid(lat: ThimbleLattice) -> None:
    if lat.violation is not None:
        raise ValueError("invalid lattice: " + lat.violation)


@dataclass(frozen=True)
class SignVector:
    """Tuple of signs ``s_1, ..., s_{p+1}``, each the int +1 or -1 (``1.0
    in (1, -1)`` holds, so the type is tested too)."""

    entries: tuple[int, ...]

    def __post_init__(self):
        for s in self.entries:
            if type(s) is not int or s not in (1, -1):
                raise ValueError("sign entries must be +1 or -1, got %r" % (s,))

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, k):
        return self.entries[k]
