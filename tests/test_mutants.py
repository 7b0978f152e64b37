"""What ``verify`` catches, measured by mutants.

Each mutant is one plausible convention slip, applied in-process under
every name a vanlat module binds the function to (``conftest.rebind``).
For each, the first FAIL line of ``run_verification(20240001, 70, 16)``
is pinned by its family and instance: a row that changes means a family
gained or lost power over that slip.
"""

import pytest

from conftest import rebind
from vanlat import conjugation, index, lattice, signature, variation
from vanlat.conjugation import ConjugatePair
from vanlat.intmat import components, submatrix, sweep_rows
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


# mutant name: (the original, its mutant built from it, the first FAIL line
# of run_verification(20240001, 70, 16) up to its problem)
MUTANTS = {
    "diagonal_sign (-1)^(p(p-1)/2)": (
        lattice.diagonal_sign, lambda f: _diagonal_sign_of_p_minus_1,
        "FAIL s-relation (instance 0)"),
    "var sweep unit 1": (
        variation.var, lambda f: _var_with_unit_1,
        "FAIL monodromy-relation (instance 1)"),
    "level sum s^(p+1)": (
        index.level_index_sum, _times_s,
        "FAIL telescoping (instance 6)"),
    "cycle sum without s": (
        index.cycle_index_sum, _times_s,
        "FAIL cycle-route-agreement (instance 12)"),
    "1x1 components' sign": (
        signature.exact_signature, lambda f: _one_by_one_sign_swapped,
        "FAIL block-form (instance 4)"),
    "pair counted +1 in signature_by_blocks": (
        conjugation.signature_by_blocks, _pairs_count_plus_1,
        "FAIL block-form (instance 4)"),
    "gradient_index without deeper levels": (
        index.gradient_index, lambda f: _level_zero_alone,
        "FAIL telescoping (instance 6)"),
}


def test_the_unmutated_run_passes():
    assert run_verification(20240001, 70, 16).lines[-1] == "PASS (70 instances)"


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_verify_kills_the_mutant_at_its_pinned_instance(name, monkeypatch):
    original, mutate, first_fail = MUTANTS[name]
    rebind(monkeypatch, original, mutate(original))
    result = run_verification(20240001, 70, 16)
    assert not result.ok
    assert result.lines[-1].split(":")[0] == first_fail
