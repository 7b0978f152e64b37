import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import a_k_level, triple_loop
from vanlat import variation
from vanlat.basis import (BraidWord, apply_braid_word, monodromy,
                          parse_braid_word)
from vanlat.gen import random_braid_word, random_lattice
from vanlat.intmat import IntMatrix
from vanlat.lattice import ThimbleLattice
from vanlat.variation import (check_monodromy_relation, check_s_relation,
                              var, var_inverse,
                              var_inverse_as_operator_after_braid)


def a2():
    return ThimbleLattice(1, IntMatrix.from_rows([[2, -1], [-1, 2]]))


def test_var_inverse_examples():
    assert var_inverse(a2()) == IntMatrix.from_rows([[-1, 1], [0, -1]])
    assert var_inverse(ThimbleLattice(1, IntMatrix.from_rows([[2]]))) == \
        IntMatrix.from_rows([[-1]])
    assert var_inverse(ThimbleLattice(2, IntMatrix.from_rows([[0]]))) == \
        IntMatrix.from_rows([[-1]])
    # diagonal sign cycles with parity mod 4: -1, -1, +1, +1
    assert var_inverse(ThimbleLattice(3, IntMatrix.from_rows([[-2]]))) == \
        IntMatrix.from_rows([[1]])
    assert var_inverse(ThimbleLattice(4, IntMatrix.from_rows([[0]]))) == \
        IntMatrix.from_rows([[1]])


def test_var_examples():
    assert var(a2()) == IntMatrix.from_rows([[-1, -1], [0, -1]])
    assert var(ThimbleLattice(1, IntMatrix.from_rows([[2]]))) == \
        IntMatrix.from_rows([[-1]])
    assert var(ThimbleLattice(1, IntMatrix(()))) == IntMatrix.identity(0)


def _assert_inverse_pair(a, b):
    # both products, summed entry by entry, are the identity
    eye = IntMatrix.identity(a.nrows).rows
    assert triple_loop(a, b) == eye
    assert triple_loop(b, a) == eye


@settings(max_examples=200, deadline=None, database=None)
@given(st.integers(-4, 6), st.integers(0, 24), st.integers(0, 5),
       st.integers(0, 2 ** 63))
def test_back_substituted_var_is_the_unimodular_inverse(parity, nu, max_entry,
                                                        seed):
    # every parity, even, zero and negative ones included; max_entry 0
    # gives the diagonal lattice; from rank 16 on, the last rows of var,
    # upper triangular, are stored as dicts
    lat = random_lattice(random.Random(seed), nu, parity, max_entry=max_entry)
    _assert_inverse_pair(var(lat), var_inverse(lat))


@pytest.mark.parametrize("k", [15, 16, 17, 64])
def test_var_of_an_a_k_tower_is_the_unimodular_inverse(k):
    # sparse gram rows on either side of the storage threshold
    lat = a_k_level(k)[0]
    _assert_inverse_pair(var(lat), var_inverse(lat))


@pytest.mark.parametrize("operator", [var_inverse, var])
def test_var_inverse_rejects_invalid_lattice(operator):
    with pytest.raises(ValueError):
        operator(ThimbleLattice(1, IntMatrix.from_rows([[2, 1], [-1, 2]])))


@pytest.mark.parametrize("check", [
    check_s_relation, check_monodromy_relation,
    lambda lat: var_inverse_as_operator_after_braid(lat, parse_braid_word("a1")),
])
def test_checks_reject_an_invalid_lattice(check):
    # each check validates through the first computation it calls
    with pytest.raises(ValueError, match="invalid lattice"):
        check(ThimbleLattice(1, IntMatrix.from_rows([[2, 1], [-1, 2]])))


def test_s_relation_examples():
    assert check_s_relation(a2()) is None
    assert check_s_relation(ThimbleLattice(1, IntMatrix.from_rows([[2]]))) is None
    assert check_s_relation(ThimbleLattice(1, IntMatrix(()))) is None


def test_monodromy_relation_examples():
    assert check_monodromy_relation(a2()) is None
    one = ThimbleLattice(1, IntMatrix.from_rows([[2]]))
    assert check_monodromy_relation(one) is None
    assert monodromy(one) == IntMatrix.from_rows([[-1]])
    assert check_monodromy_relation(ThimbleLattice(2, IntMatrix(()))) is None


def test_monodromy_relation_on_a_64_tower():
    # monodromy's sparse rows against the dense var * var_inverse^T route
    assert check_monodromy_relation(a_k_level(64)[0]) is None


def a3():
    return ThimbleLattice(1, IntMatrix.from_rows([[2, -1, 0], [-1, 2, -1],
                                                  [0, -1, 2]]))


def bumped(m, *entries):
    """``m`` with 1 added at each ``(row, col)`` in ``entries``."""
    rows = m.to_lists()
    for r, c in entries:
        rows[r][c] += 1
    return IntMatrix.from_rows(rows)


def test_s_relation_reports_the_first_differing_entry(monkeypatch):
    # a bump at (1, 2) of M shows in -M - M^T at (1, 2) and (2, 1)
    original = variation.var_inverse
    monkeypatch.setattr(variation, "var_inverse",
                        lambda lat: bumped(original(lat), (1, 2)))
    assert check_s_relation(a3()) == (
        "entry (1, 2): pairing matrix has -1 but -M + (-1)^1 M^T gives -2")


def test_monodromy_relation_reports_the_first_differing_entry(monkeypatch):
    original = variation.monodromy
    monkeypatch.setattr(variation, "monodromy",
                        lambda lat: bumped(original(lat), (2, 2), (2, 1)))
    assert check_monodromy_relation(a3()) == (
        "entry (2, 1): monodromy has 2 but (-1)^1 Var Var^{-1 T} gives 1")


def test_braid_invariance_reports_the_first_differing_entry(monkeypatch):
    # a constant bump is not transported by congruence
    original = variation.var_inverse
    monkeypatch.setattr(variation, "var_inverse",
                        lambda lat: bumped(original(lat), (1, 2)))
    word = parse_braid_word("A2 f3")
    assert var_inverse_as_operator_after_braid(a3(), word) == (
        "entry (1, 2) after word 'A2 f3': recomputed 2, "
        "congruence-transported 1")


def test_braid_invariance_reports_a_monodromy_that_is_not_covariant(monkeypatch):
    # the lattice the word produces gets a bumped monodromy; the message
    # is the one the verify report has always printed
    lat = a3()
    original = variation.monodromy
    monkeypatch.setattr(variation, "monodromy",
                        lambda l: original(l) if l is lat
                        else bumped(original(l), (0, 0)))
    assert var_inverse_as_operator_after_braid(lat, parse_braid_word("a1 A2 f3")) == (
        "monodromy not conjugation-covariant under 'a1 A2 f3'")


def test_triangularity_and_unimodularity():
    rng = random.Random(42)
    for _ in range(120):
        parity = rng.choice((1, 2, 3, 4, 5))
        nu = rng.randint(0, 8)
        lat = random_lattice(rng, nu, parity)
        m = var_inverse(lat)
        assert m.det() in (1, -1)
        for r in range(nu):
            assert abs(m[r, r]) == 1
            for c in range(r):
                assert m[r, c] == 0
        assert var(lat) * m == IntMatrix.identity(nu)


def test_relations_hold_on_random_corpus():
    rng = random.Random(1234)
    for _ in range(250):
        parity = rng.choice((1, 2, 3, 4))
        nu = rng.randint(0, 8)
        lat = random_lattice(rng, nu, parity)
        assert check_s_relation(lat) is None
        assert check_monodromy_relation(lat) is None


def test_braid_invariance_examples():
    lat = a2()
    assert var_inverse_as_operator_after_braid(lat, BraidWord(())) is None
    assert var_inverse_as_operator_after_braid(lat, parse_braid_word("a1")) is None


def test_braid_invariance_random():
    rng = random.Random(77)
    for _ in range(150):
        parity = rng.choice((1, 2, 3, 4))
        nu = rng.randint(0, 5)
        lat = random_lattice(rng, nu, parity)
        word = random_braid_word(rng, nu, max_len=12)
        assert var_inverse_as_operator_after_braid(lat, word) is None


def test_congruence_law_explicit():
    # basis independence in matrix form on the worked move
    lat = a2()
    new, change = apply_braid_word(lat, parse_braid_word("a1"))
    p = change.matrix
    assert var_inverse(new) == p.transpose() * var_inverse(lat) * p


@pytest.mark.parametrize("parity", [-4, -3, -2, -1])
def test_relations_hold_at_negative_parity(parity):
    # the parity sign is an int, so IntMatrix accepts it below zero too
    lat = random_lattice(random.Random(parity), 5, parity)
    assert check_s_relation(lat) is None
    assert check_monodromy_relation(lat) is None
