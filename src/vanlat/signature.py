"""Exact inertia of integer symmetric bilinear forms.

Degenerate forms are fine: the radical shows up as ``n_zero`` rather than
as an error.
"""

from dataclasses import dataclass

from .intmat import IntMatrix, components, eliminate, submatrix


@dataclass(frozen=True)
class Signature:
    """Inertia triple of a symmetric form: positive, negative, null counts."""

    n_plus: int
    n_minus: int
    n_zero: int

    def __post_init__(self):
        if min(self.n_plus, self.n_minus, self.n_zero) < 0:
            raise ValueError("inertia counts must be non-negative")

    @property
    def sgn(self) -> int:
        return self.n_plus - self.n_minus

    def __str__(self):
        return "(%d, %d, %d)" % (self.n_plus, self.n_minus, self.n_zero)


def exact_signature(m: IntMatrix) -> Signature:
    """Inertia of a symmetric integer matrix by exact congruence elimination.

    Inertia adds over an orthogonal direct sum, so the form is first split
    into the connected components of its nonzero pattern, found by one
    scan of the stored rows (:func:`vanlat.intmat.components`, the walker
    behind ``IntMatrix.det`` too: O(nu^2) on dense rows, the nonzeros on
    sparse ones), and each component is eliminated on its own
    (see :func:`_component_inertia`), except that a 1x1 component counts
    by the sign of its entry.  A diagonal form is nu components of size
    one; a form with one component is eliminated whole.
    """
    if not m.is_square:
        raise ValueError("signature of a non-square matrix")
    if not m.is_symmetric():
        raise ValueError("signature of a non-symmetric matrix")
    n_plus = n_minus = n_zero = 0
    diagonal = m.diagonal()
    for comp in components(m.stored_rows):
        if len(comp) == 1:
            x = diagonal[comp[0]]
            p, q, z = x > 0, x < 0, x == 0
        else:
            p, q, z = _component_inertia(submatrix(m.stored_rows, comp))
        n_plus += p
        n_minus += q
        n_zero += z
    return Signature(n_plus, n_minus, n_zero)


def _component_inertia(a):
    """``(n_plus, n_minus, n_zero)`` of the symmetric list-of-lists ``a``.

    Fraction-free symmetric elimination with diagonal pivots, using the
    :func:`vanlat.intmat.eliminate` step: the active block always holds
    the Schur complement scaled by the last pivot, so a pivot counts
    positive exactly when it has the sign of the previous one (Jacobi's
    rule).  When the active block has a zero diagonal but an entry
    ``a[i][j] != 0``, the congruence adding basis vector ``j`` to ``i``
    makes ``a[i][i] = 2 * a[i][j]`` a usable pivot.  Whatever remains
    once the active block is zero is the radical.
    """
    active = list(range(len(a)))
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
    return n_plus, n_minus, len(active)
