"""What ``verify`` catches, measured by mutants.

Each mutant is one plausible convention slip, applied in-process under
every name a vanlat module binds the function to (``conftest.rebind``),
or, for a method, on its class.  For each, the first FAIL line of
``run_verification(20240001, 70, 16)`` is pinned by its family and
instance: a row that changes means a family gained or lost power over
that slip.

Four slips ``verify`` misses: its report still ends ``PASS``.  For each,
a named check outside ``verify`` that fails under it is pinned by the
number of cases it fails, so that a family that gains the power to see
the slip shows up as a changed row.
"""

import dataclasses
import random

import pytest

from conftest import instance_path, rebind
from vanlat import conjugation, gen, index, lattice, signature, variation
from vanlat.basis import BasisChange, apply_braid_word, monodromy
from vanlat.conjugation import ConjugatePair, LevelAnalysis, MorseSpec, RealPoint
from vanlat.gen import (generate_level, random_braid_word, random_icis_instance,
                        random_lattice)
from vanlat.index import IcisInstance
from vanlat.instfile import load_instance
from vanlat.intmat import IntMatrix, components, row_items, submatrix, sweep_rows
from vanlat.lattice import diagonal_sign, require_valid
from vanlat.signature import Signature
from vanlat.suite import run_verification


def _diagonal_sign_of_p_minus_1(parity):
    # (-1)^(p(p-1)/2) for (-1)^(p(p+1)/2)
    return -1 if (parity * (parity - 1)) // 2 % 2 else 1


def _var_with_unit_1(lat):
    # the sweep's unit 1 for d
    require_valid(lat)
    d = diagonal_sign(lat.parity)
    return sweep_rows(lat.gram.stored_rows, lat.nu, d, 1, 0)


def _times_s(function):
    # s * f(level, s): s^(p+1) for s^p in the level sum, and the cycle sum
    # without its s
    return lambda level, s: s * function(level, s)


def _pairs_count_plus_1(function):
    # each conjugate pair block adds +1 to the closed form
    return lambda lat, conj: function(lat, conj) + sum(
        isinstance(point, ConjugatePair) for _, _, point in conj.morse.blocks())


def _one_by_one_sign_swapped(m):
    # a 1x1 component counted by the opposite sign of its entry
    n_plus = n_minus = n_zero = 0
    diagonal = m.diagonal()
    for comp in components(m.stored_rows):
        if len(comp) == 1:
            x = diagonal[comp[0]]
            p, q, z = x < 0, x > 0, x == 0
        else:
            p, q, z = signature._component_inertia(submatrix(m.stored_rows, comp))
        n_plus += p
        n_minus += q
        n_zero += z
    return Signature(n_plus, n_minus, n_zero)


def _level_zero_alone(inst):
    # gradient_index with the deeper levels dropped
    return index.level_index_sum(inst.levels[0], inst.sign_for_level(0))


def _deeper_levels_with_s(inst):
    # gradient_index with s for -s in each deeper level's coefficient
    total = index.level_index_sum(inst.levels[0], inst.sign_for_level(0))
    for level in inst.levels[1:]:
        s = inst.sign_for_level(level.i)
        power = index._sign_power(s, level.lattice.parity)
        total += power * index.level_index_sum(level, s)
    return total


def _sign_read_forward(inst, i):
    # sign_for_level reading s_(i+1) for s_(p-i+1)
    return inst.signs[i]


def _dict_rows_with_unit_diagonal(lat):
    # a dict row of var_inverse with 1 for d on its diagonal
    require_valid(lat)
    d = diagonal_sign(lat.parity)
    rows = []
    for r, row in enumerate(lat.gram.stored_rows):
        if type(row) is dict:
            upper = {c: -v for c, v in row.items() if c > r}
            upper[r] = 1
        else:
            upper = (0,) * r + (d,) + tuple(-x for x in row[r + 1:])
        rows.append(upper)
    return IntMatrix(rows, lat.nu)


def _inertia_swapped_from_3_rows(function):
    # n_plus and n_minus swapped on components of 3 rows or more
    def swapped(a):
        p, q, z = function(a)
        return (q, p, z) if len(a) >= 3 else (p, q, z)
    return swapped


def _rebound(original, mutate):
    """A patch of ``original`` by its mutant, under every name a vanlat
    module binds it to."""
    return lambda monkeypatch: rebind(monkeypatch, original, mutate(original))


# mutant name: (the patch that applies it, the first FAIL line of
# run_verification(20240001, 70, 16) up to its problem)
MUTANTS = {
    "diagonal_sign (-1)^(p(p-1)/2)": (
        _rebound(lattice.diagonal_sign, lambda f: _diagonal_sign_of_p_minus_1),
        "FAIL s-relation (instance 0)"),
    "var sweep unit 1": (
        _rebound(variation.var, lambda f: _var_with_unit_1),
        "FAIL monodromy-relation (instance 1)"),
    "level sum s^(p+1)": (
        _rebound(index.level_index_sum, _times_s),
        "FAIL telescoping (instance 6)"),
    "cycle sum without s": (
        _rebound(index.cycle_index_sum, _times_s),
        "FAIL cycle-route-agreement (instance 12)"),
    "1x1 components' sign": (
        _rebound(signature.exact_signature, lambda f: _one_by_one_sign_swapped),
        "FAIL block-form (instance 4)"),
    "pair counted +1 in signature_by_blocks": (
        _rebound(conjugation.signature_by_blocks, _pairs_count_plus_1),
        "FAIL block-form (instance 4)"),
    "gradient_index without deeper levels": (
        _rebound(index.gradient_index, lambda f: _level_zero_alone),
        "FAIL telescoping (instance 6)"),
    "gradient_index with s for -s on deeper levels": (
        _rebound(index.gradient_index, lambda f: _deeper_levels_with_s),
        "FAIL telescoping (instance 6)"),
    "sign_for_level reading signs[i]": (
        lambda monkeypatch: monkeypatch.setattr(IcisInstance, "sign_for_level",
                                                _sign_read_forward),
        "FAIL telescoping (instance 27)"),
    "var_inverse dict rows with 1 for d": (
        _rebound(variation.var_inverse, lambda f: _dict_rows_with_unit_diagonal),
        "FAIL cycle-route-agreement (instance 19)"),
    "inertia swapped on components of 3+ rows": (
        _rebound(signature._component_inertia, _inertia_swapped_from_3_rows),
        "FAIL cycle-route-agreement (instance 5)"),
}


def test_the_unmutated_run_passes():
    assert run_verification(20240001, 70, 16).lines[-1] == "PASS (70 instances)"


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_verify_kills_the_mutant_at_its_pinned_instance(name, monkeypatch):
    patch, first_fail = MUTANTS[name]
    patch(monkeypatch)
    result = run_verification(20240001, 70, 16)
    assert not result.ok
    assert result.lines[-1].split(":")[0] == first_fail


def _keeping_morse_indices(flip):
    # flip_last_sign with each real point keeping its Morse index m, not
    # taking parity - m
    def flipped(inst):
        out = flip(inst)
        level0 = out.levels[0]
        parity = level0.lattice.parity
        points = tuple(RealPoint(parity - pt.morse_index) if isinstance(pt, RealPoint)
                       else pt for pt in level0.conj.morse.points)
        conj = dataclasses.replace(level0.conj, morse=MorseSpec(points))
        return dataclasses.replace(
            out, levels=(dataclasses.replace(level0, conj=conj),) + out.levels[1:])
    return flipped


def _bad_sigma_not_refused():
    """``LevelAnalysis.inconsistency``: 1 when the level of
    ``bad_sigma.vl``, whose sigma is an involution, is not refused by
    both companion verdicts, else 0."""
    level = load_instance(instance_path("bad_sigma.vl")).instance.levels[0]
    verdict = LevelAnalysis(level.lattice, level.conj).inconsistency
    return int(verdict != ("companion not an involution; "
                           "companion not block lower triangular"))


def _generated_companions_failing():
    """The companion verdicts of ``LevelAnalysis.inconsistency``, taken on
    the companion of every generated level of positive rank, seeds 0-299
    at rank bound 16 and parities 1-4 in turn: the number that is no
    involution or not block lower triangular (of 283)."""
    failing = 0
    for seed in range(300):
        level = generate_level(seed, 16, 1 + seed % 4)
        if level.lattice.nu:
            tilde = LevelAnalysis(level.lattice, level.conj).companion
            lower = all(c < end for row, (_, end) in zip(tilde.stored_rows,
                                                         level.conj.morse.spans)
                        for c, _ in row_items(row))
            failing += not (tilde.is_involution() and lower)
    return failing


def _shifted_monodromies_accepted():
    """``BasisChange.conjugates``: of ten braid words on random lattices,
    the number whose change accepts the new monodromy plus the identity
    as the transported old one."""
    accepted = 0
    for seed in range(10):
        rng = random.Random(seed)
        lat = random_lattice(rng, 6, 1 + seed % 4)
        new, change = apply_braid_word(lat, random_braid_word(rng, 6))
        accepted += change.conjugates(monodromy(lat),
                                      monodromy(new) + IntMatrix.identity(6))
    return accepted


def _flipped_level0s_off_shape():
    """``LevelAnalysis.block_structure_problem`` on the flipped level 0 of
    each instance ``random_icis_instance(seed, 1 + seed % 3, seed % 3, 16)``,
    seeds 0-399, whose level 0 has no pair: the number with a problem (of
    145)."""
    off = 0
    for seed in range(400):
        inst = random_icis_instance(seed, 1 + seed % 3, seed % 3, 16)
        if not any(isinstance(pt, ConjugatePair) for pt in inst.levels[0].conj.morse.points):
            level0 = gen.flip_last_sign(inst).levels[0]
            off += LevelAnalysis(level0.lattice,
                                 level0.conj).block_structure_problem() is not None
    return off


# mutant name: (the patch that applies it, the check outside verify that
# kills it, the number of cases that check fails under it; 0 unmutated)
MISSED = {
    "_certifies_consistency returning True": (
        _rebound(conjugation._certifies_consistency,
                 lambda f: lambda form, spans: True),
        _bad_sigma_not_refused, 1),
    "companion built as monodromy * sigma": (
        lambda monkeypatch: monkeypatch.setattr(
            LevelAnalysis, "companion",
            property(lambda self: self.monodromy * self.conj.sigma)),
        _generated_companions_failing, 218),
    "BasisChange.conjugates returning True": (
        lambda monkeypatch: monkeypatch.setattr(BasisChange, "conjugates",
                                                lambda self, old, new: True),
        _shifted_monodromies_accepted, 10),
    "flip_last_sign keeping each Morse index": (
        _rebound(gen.flip_last_sign, _keeping_morse_indices),
        _flipped_level0s_off_shape, 79),
}


@pytest.mark.parametrize("name", sorted(MISSED))
def test_verify_misses_the_mutant_that_a_named_check_kills(name, monkeypatch):
    patch, check, failing = MISSED[name]
    assert check() == 0
    patch(monkeypatch)
    assert run_verification(20240001, 70, 16).lines[-1] == "PASS (70 instances)"
    assert check() == failing
