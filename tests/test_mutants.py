"""What ``verify`` catches, measured by mutants.

Each mutant is one plausible convention slip, applied in-process under
every name a vanlat module binds the function to (``conftest.rebind``),
or, for a method, on its class.  For each, the first FAIL line of
``run_verification(20240001, 70, 16)`` is pinned by its family and
instance: a row that changes means a family gained or lost power over
that slip.
"""

import pytest

from conftest import rebind
from vanlat import conjugation, index, lattice, signature, variation
from vanlat.conjugation import ConjugatePair
from vanlat.index import IcisInstance
from vanlat.intmat import IntMatrix, components, submatrix, sweep_rows
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
