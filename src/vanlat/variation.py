"""The triangular operator attached to a distinguished basis and its inverse.

``var_inverse`` maps the lattice to its dual: basis thimble ``i`` goes to

    sgn * dual_i  -  sum_{j < i} <delta_i, delta_j> * dual_j

with ``sgn = (-1)^(p(p+1)/2)``.  In the stored convention the matrix is
upper triangular with that sign on the diagonal, so it is always
unimodular.  Maps into the dual transform by congruence under a basis
change ``P`` (``M -> P^T M P``), which is what makes the operator itself,
as opposed to its matrix, independent of the distinguished basis.
"""

from operator import neg

from .basis import BraidWord, apply_braid_word, monodromy
from .intmat import IntMatrix, first_difference, sweep_rows
from .lattice import ThimbleLattice, diagonal_sign, mirror_sign, require_valid


def var_inverse(lat: ThimbleLattice) -> IntMatrix:
    """Upper-triangular matrix of the lattice-to-dual operator, read off
    the gram matrix's stored rows: ``sgn`` on the diagonal and ``-gram``
    to its right."""
    require_valid(lat)
    d = diagonal_sign(lat.parity)
    rows = []
    for r, row in enumerate(lat.gram.stored_rows):
        if type(row) is dict:
            upper = {c: -v for c, v in row.items() if c > r}
            upper[r] = d
        else:
            upper = (0,) * r + (d,) + tuple(map(neg, row[r + 1:]))
        rows.append(upper)
    return IntMatrix(rows, lat.nu)


def var(lat: ThimbleLattice) -> IntMatrix:
    """Exact integer inverse ``X`` of :func:`var_inverse`, upper
    triangular like it; row ``k`` of ``var_inverse * X = I`` gives

        X_k = d * e_k + d * sum_{c > k} gram[k][c] * X_c,

    run by :func:`~vanlat.intmat.sweep_rows` with start 0, so the terms
    ``c <= k`` add nothing.
    """
    require_valid(lat)
    d = diagonal_sign(lat.parity)
    return sweep_rows(lat.gram.stored_rows, lat.nu, d, d, 0)


def check_s_relation(lat: ThimbleLattice) -> str | None:
    """Verify ``S = -M + (-1)^parity * M^T`` entrywise, ``M = var_inverse``.

    Holds identically on valid lattices; a failure indicates a convention
    bug, and the first offending entry is reported.
    """
    m = var_inverse(lat)
    rhs = -m - mirror_sign(lat.parity) * m.transpose()  # (-1)^p = -mirror_sign
    s = lat.gram  # the pairing as a map into the dual, in storage convention
    if (diff := first_difference(s, rhs)) is None:
        return None
    return ("entry (%d, %d): pairing matrix has %d but "
            "-M + (-1)^%d M^T gives %d"
            % (*diff, s[diff], lat.parity, rhs[diff]))


def check_monodromy_relation(lat: ThimbleLattice) -> str | None:
    """Verify the reflection-product monodromy equals
    ``(-1)^parity * var * var_inverse^T`` exactly."""
    h = monodromy(lat)
    m = var_inverse(lat)
    rhs = -mirror_sign(lat.parity) * (var(lat) * m.transpose())
    if (diff := first_difference(h, rhs)) is None:
        return None
    return ("entry (%d, %d): monodromy has %d but "
            "(-1)^%d Var Var^{-1 T} gives %d"
            % (*diff, h[diff], lat.parity, rhs[diff]))


def var_inverse_as_operator_after_braid(lat: ThimbleLattice,
                                        word: BraidWord) -> str | None:
    """Check basis independence of the operator and monodromy under a word.

    With ``(new_lat, P) = apply_braid_word(lat, word)``, applied once, the
    matrices must satisfy ``var_inverse(new_lat) = P^T var_inverse(lat) P``
    and ``monodromy(new_lat) = P^-1 monodromy(lat) P`` exactly.
    """
    new_lat, change = apply_braid_word(lat, word)
    fresh = var_inverse(new_lat)
    transported = change.congruence(var_inverse(lat))
    if (diff := first_difference(fresh, transported)) is not None:
        return ("entry (%d, %d) after word '%s': recomputed %d, "
                "congruence-transported %d"
                % (*diff, word, fresh[diff], transported[diff]))
    if not change.conjugates(monodromy(lat), monodromy(new_lat)):
        return "monodromy not conjugation-covariant under '%s'" % word
    return None
