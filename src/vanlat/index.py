"""Signature formulas for the index of a gradient vector field.

An instance bundles levels ``i = 0 .. p``; level ``i`` carries a thimble
lattice of parity ``n + i`` with its conjugation data, and optionally a
cycle-space pairing for the difference-of-signatures route.

Level ``i`` belongs to the ``(p - i + 1)``-th defining function, so it is
paired with sign entry ``s_{p-i+1}``.

The total index combines the level-0 term with the deeper levels through
an Euler-characteristic recursion that starts at the ball (whose real
part has Euler characteristic 1); the closed formula below is exactly the
telescoped form of that recursion, and ``telescoped_index`` re-runs the
recursion step by step so the two routes can be compared on any instance.
"""

from dataclasses import dataclass, field
from functools import cached_property

from .conjugation import ConjugationData, LevelAnalysis
from .intmat import IntMatrix
from .lattice import SignVector, ThimbleLattice, diagonal_sign
from .signature import exact_signature


@dataclass(frozen=True)
class CycleData:
    """Pairing on the vanishing-cycle space with both conjugation actions."""

    form: IntMatrix
    sigma: IntMatrix
    sigma_tilde: IntMatrix

    def __post_init__(self):
        n = self.form.nrows
        if not (self.form.is_square and self.sigma.is_square
                and self.sigma_tilde.is_square
                and self.sigma.nrows == n and self.sigma_tilde.nrows == n):
            raise ValueError("cycle data matrices must be square of equal size")


@dataclass(frozen=True)
class LevelData:
    """One level of the tower: lattice, conjugation, optional cycle data.

    ``prebuilt`` hands over an analysis of the same lattice and
    conjugation that the caller has already built (to derive the cycle
    data, say), so that the level does not build a second one.
    """

    i: int
    lattice: ThimbleLattice
    conj: ConjugationData | None = None
    cycles: CycleData | None = None
    prebuilt: LevelAnalysis | None = field(default=None, compare=False,
                                           repr=False)

    def __post_init__(self):
        if self.conj is not None and self.conj.nu != self.lattice.nu:
            raise ValueError("level %d: conjugation rank %d != lattice rank %d"
                             % (self.i, self.conj.nu, self.lattice.nu))
        if self.prebuilt is not None and (self.prebuilt.lattice is not self.lattice
                                          or self.prebuilt.conj is not self.conj):
            raise ValueError("level %d: the prebuilt analysis is of another "
                             "lattice or conjugation" % self.i)

    def require_conj(self) -> ConjugationData:
        if self.conj is None:
            raise ValueError("level %d carries no conjugation data" % self.i)
        return self.conj

    @cached_property
    def analysis(self) -> LevelAnalysis:
        """The level's derived data (monodromy, companion, form, signature),
        built on first use (or handed over as ``prebuilt``) and shared by
        every route that reads it."""
        if self.prebuilt is not None:
            return self.prebuilt
        return LevelAnalysis(self.lattice, self.require_conj())


@dataclass(frozen=True)
class IcisInstance:
    """Levels 0..p with the sign tuple choosing the real perturbation."""

    n: int
    p: int
    signs: SignVector
    levels: tuple[LevelData, ...]

    def __post_init__(self):
        if len(self.signs) != self.p + 1:
            raise ValueError("expected %d signs, got %d"
                             % (self.p + 1, len(self.signs)))
        if len(self.levels) != self.p + 1:
            raise ValueError("expected %d levels, got %d"
                             % (self.p + 1, len(self.levels)))
        for want, level in enumerate(self.levels):
            if level.i != want:
                raise ValueError("levels out of order: found %d at position %d"
                                 % (level.i, want))
            if level.lattice.parity != self.n + level.i:
                raise ValueError("level %d: parity %d != n + i = %d"
                                 % (level.i, level.lattice.parity, self.n + level.i))

    def sign_for_level(self, i: int) -> int:
        """Sign entry ``s_{p-i+1}`` paired with level ``i``."""
        return self.signs[self.p - i]


def _sign_power(s: int, exponent: int) -> int:
    """``s ** exponent`` for a sign ``s``, an ``int`` for negative exponents too."""
    return s if exponent % 2 else 1


def level_index_sum(level: LevelData, n: int, s_entry: int) -> int:
    """Index sum over the level's real critical points, from signatures:

        s^(n+i) * (-1)^((n+i)(n+i+1)/2) * sgn(var_inverse * sigma)
    """
    if s_entry not in (1, -1):
        raise ValueError("sign entry must be +1 or -1")
    parity = n + level.i
    if level.lattice.parity != parity:
        raise ValueError("level %d: parity %d != n + i = %d"
                         % (level.i, level.lattice.parity, parity))
    sgn = level.analysis.signature.sgn
    return _sign_power(s_entry, parity) * diagonal_sign(parity) * sgn


def gradient_index(inst: IcisInstance) -> int:
    """Total gradient index at the singular point from level signatures.

    Level 0 enters with its sign power; each deeper level ``i`` enters
    with the recursion coefficient ``(-s)^(n+i)``, so its sign dependence
    cancels and the summand reduces to
    ``(-1)^((n+i)(n+i-1)/2) * sgn(var_inverse * sigma)``.
    """
    total = level_index_sum(inst.levels[0], inst.n, inst.sign_for_level(0))
    for level in inst.levels[1:]:
        s = inst.sign_for_level(level.i)
        coeff = _sign_power(-s, inst.n + level.i)
        total += coeff * level_index_sum(level, inst.n, s)
    return total


def smoothable_index(sum_smoothing_indices: int, chi_smoothing: int) -> int:
    """Index at a smoothable point: interior index sum, corrected by the
    Euler characteristic of the smoothing: ``sum - chi + 1``."""
    return sum_smoothing_indices - chi_smoothing + 1


def morse_recursion_step(chi_prev: int, sum_ind: int, s: int, exponent: int) -> int:
    """One Euler-characteristic step: ``chi_prev + (-s)^exponent * sum_ind``."""
    if s not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return chi_prev + _sign_power(-s, exponent) * sum_ind


def telescoped_index(inst: IcisInstance) -> int:
    """Recompute the index by running the Euler recursion level by level.

    Starting from the real ball (chi = 1), peel off one defining function
    at a time to reach the Euler characteristic of the innermost real
    smoothing, then apply the smoothable-point formula with the level-0
    index sum.  Must agree with :func:`gradient_index` on every consistent
    instance.
    """
    chi = 1
    for level in reversed(inst.levels[1:]):
        i = level.i
        s = inst.sign_for_level(i)
        sum_ind = level_index_sum(level, inst.n, s)
        # descending the tower inverts the step, so feed it the negated sum
        chi = morse_recursion_step(chi, -sum_ind, s, inst.n + i)
    sum0 = level_index_sum(inst.levels[0], inst.n, inst.sign_for_level(0))
    return smoothable_index(sum0, chi)


def sign_independence_check(variants: list[IcisInstance]) -> str | None:
    """Verify all sign variants of one germ give the same index."""
    if not variants:
        return None
    values = [(gradient_index(v), v.signs.entries) for v in variants]
    base = values[0][0]
    for val, signs in values[1:]:
        if val != base:
            return ("index %d for signs %s but %d for signs %s"
                    % (base, values[0][1], val, signs))
    return None


class EvenParityError(ValueError):
    """Raised when the cycle-space route is requested at even parity."""


def cycle_index_sum(level: LevelData, s_entry: int) -> int:
    """Index sum from the cycle-space signatures, odd parity only:

        s * (-1)^((n+i+1)/2) * (sgn Sigma_tilde - sgn Sigma) / 2

    where ``Sigma`` pairs ``x`` against ``y`` through the conjugation
    action on cycles.  The parity restriction is essential: at even
    parity the cycle space does not determine the sum (flipping the
    deeper sign changes the sum but not the cycle data), so the request
    is refused.  A pairing that is not symmetric, which its signature
    refuses, or an odd difference means the cycle data is inconsistent.
    """
    if s_entry not in (1, -1):
        raise ValueError("sign entry must be +1 or -1")
    parity = level.lattice.parity
    if parity % 2 == 0:
        raise EvenParityError(
            "cycle-space index sums are undefined at even parity (n + i = %d): "
            "the vanishing-cycle data does not determine the value" % parity)
    if level.cycles is None:
        raise ValueError("level %d carries no cycle data" % level.i)
    cyc = level.cycles
    form_s = cyc.form * cyc.sigma
    form_t = cyc.form * cyc.sigma_tilde
    try:
        diff = exact_signature(form_t).sgn - exact_signature(form_s).sgn
    except ValueError:
        raise ValueError("cycle pairings are not symmetric; "
                         "data inconsistent") from None
    if diff % 2 != 0:
        raise ValueError("signature difference %d is odd; cycle data inconsistent"
                         % diff)
    # diagonal_sign is (-1)^((parity+1)/2) at every odd parity
    return s_entry * diagonal_sign(parity) * (diff // 2)
