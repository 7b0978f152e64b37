import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import a_k_level, matrix_power, triple_loop
from vanlat import basis, intmat
from vanlat.basis import (BasisChange, BraidMove, BraidWord, apply_braid_word,
                          braid_alpha, braid_alpha_inverse, monodromy,
                          orientation_flip, parse_braid_word,
                          picard_lefschetz)
from vanlat.conjugation import generate_level
from vanlat.gen import random_braid_word, random_lattice
from vanlat.intmat import IntMatrix
from vanlat.lattice import ThimbleLattice, self_intersection
from vanlat.variation import var_inverse, var_inverse_as_operator_after_braid


def a2():
    return ThimbleLattice(1, IntMatrix.from_rows([[2, -1], [-1, 2]]))


def skew2():
    return ThimbleLattice(2, IntMatrix.from_rows([[0, 1], [-1, 0]]))


# -- reflections and monodromy ----------------------------------------------

def test_picard_lefschetz_a2():
    # delta_1 -> -delta_1, delta_2 -> delta_2 + delta_1 (images are columns)
    assert picard_lefschetz(a2(), 1) == IntMatrix.from_rows([[-1, 1], [0, 1]])


def test_picard_lefschetz_fixes_reflecting_thimble_even_parity():
    lat = skew2()
    for j in (1, 2):
        h = picard_lefschetz(lat, j)
        col = [h[r, j - 1] for r in range(2)]
        assert col == [1 if r == j - 1 else 0 for r in range(2)]


def test_picard_lefschetz_rank_one():
    lat = ThimbleLattice(1, IntMatrix.from_rows([[2]]))
    assert picard_lefschetz(lat, 1) == IntMatrix.from_rows([[-1]])


def test_picard_lefschetz_range():
    with pytest.raises(ValueError):
        picard_lefschetz(a2(), 0)
    with pytest.raises(ValueError):
        picard_lefschetz(a2(), 3)


def test_picard_lefschetz_determinants():
    rng = random.Random(31)
    for _ in range(100):
        parity = rng.choice((1, 2, 3, 4))
        nu = rng.randint(1, 6)
        lat = random_lattice(rng, nu, parity)
        for j in range(1, nu + 1):
            assert picard_lefschetz(lat, j).det() in (1, -1)
    one = random_lattice(rng, 1, 3)
    assert picard_lefschetz(one, 1).det() == (-1) ** 3


def test_monodromy_rank_zero_and_one():
    assert monodromy(ThimbleLattice(1, IntMatrix(()))) == IntMatrix.identity(0)
    lat = ThimbleLattice(1, IntMatrix.from_rows([[2]]))
    assert monodromy(lat) == IntMatrix.from_rows([[-1]])


def test_monodromy_a2_has_order_three():
    h = monodromy(a2())
    assert matrix_power(h, 3) == IntMatrix.identity(2)
    assert h != IntMatrix.identity(2) and matrix_power(h, 2) != IntMatrix.identity(2)


@st.composite
def _lattices(draw, min_nu=0, max_nu=10):
    parity = draw(st.integers(0, 5))
    nu = draw(st.integers(min_nu, max_nu))
    eps = 1 if parity % 2 == 1 else -1
    rows = [[self_intersection(parity) if r == c else 0 for c in range(nu)]
            for r in range(nu)]
    for r in range(nu):
        for c in range(r + 1, nu):
            rows[r][c] = draw(st.integers(-4, 4))
            rows[c][r] = eps * rows[r][c]
    return ThimbleLattice(parity, IntMatrix.from_rows(rows, width=nu))


@settings(max_examples=120, deadline=None)
@given(_lattices())
def test_monodromy_is_the_reflection_product(lat):
    # PL_1 * PL_2 * ... * PL_nu, formed left to right without IntMatrix.__mul__
    want = IntMatrix.identity(lat.nu)
    for j in range(1, lat.nu + 1):
        want = IntMatrix(triple_loop(want, picard_lefschetz(lat, j)))
    assert monodromy(lat) == want


def _wide_lattices():
    # A_k towers, direct sums of generated chunks at parities 0-3 (a
    # nonzero diagonal at odd parity brings in the c == k term), and dense
    # random lattices, whose rows turn from sparse unit rows to dense
    cases = [("A%d" % k, a_k_level(k)[0]) for k in (16, 17, 33)]
    cases += [("chunks-p%d" % p, generate_level(seed, 40, p).lattice)
              for p, seed in [(0, 7), (1, 0), (2, 7), (3, 9)]]
    cases += [("dense-p%d" % p, random_lattice(random.Random(p), 16, p))
              for p in (1, 2)]
    return [pytest.param(lat, id=name) for name, lat in cases]


@pytest.mark.parametrize("lat", _wide_lattices())
def test_monodromy_is_the_reflection_product_at_rank_16_to_40(lat):
    assert 16 <= lat.nu <= 40
    want = IntMatrix.identity(lat.nu)
    for j in range(1, lat.nu + 1):
        want = IntMatrix(triple_loop(want, picard_lefschetz(lat, j)))
    assert monodromy(lat) == want


def test_monodromy_requires_valid_lattice():
    bad = ThimbleLattice(1, IntMatrix.from_rows([[2, 1], [-1, 2]]))
    with pytest.raises(ValueError):
        monodromy(bad)


# -- braid moves -------------------------------------------------------------

def test_braid_alpha_a2_worked_example():
    new, change = braid_alpha(a2(), 1)
    assert new.gram == IntMatrix.from_rows([[2, 1], [1, 2]])
    assert change.matrix == IntMatrix.from_rows([[1, 1], [1, 0]])


def test_braid_alpha_skew_flips_pairing():
    new, _ = braid_alpha(skew2(), 1)
    assert new.gram == IntMatrix.from_rows([[0, -1], [1, 0]])


def test_braid_alpha_inverse_of_worked_example():
    mid = ThimbleLattice(1, IntMatrix.from_rows([[2, 1], [1, 2]]))
    back, _ = braid_alpha_inverse(mid, 1)
    assert back.gram == a2().gram


def test_braid_round_trip_both_orders():
    rng = random.Random(7)
    for _ in range(120):
        parity = rng.choice((1, 2, 3, 4))
        nu = rng.randint(2, 6)
        lat = random_lattice(rng, nu, parity)
        j = rng.randint(1, nu - 1)
        fwd, p1 = braid_alpha(lat, j)
        back, p2 = braid_alpha_inverse(fwd, j)
        assert back.gram == lat.gram
        assert p1.then(p2).matrix == IntMatrix.identity(nu)
        inv, q1 = braid_alpha_inverse(lat, j)
        again, q2 = braid_alpha(inv, j)
        assert again.gram == lat.gram
        assert q1.then(q2).matrix == IntMatrix.identity(nu)


def test_braid_moves_preserve_diagonal():
    rng = random.Random(13)
    for _ in range(60):
        parity = rng.choice((1, 2, 3, 4, 5))
        nu = rng.randint(2, 6)
        lat = random_lattice(rng, nu, parity)
        word = random_braid_word(rng, nu, max_len=8)
        new, _ = apply_braid_word(lat, word)
        want = self_intersection(parity)
        assert all(new.gram[k, k] == want for k in range(nu))


def test_braid_relation():
    rng = random.Random(17)
    for _ in range(80):
        parity = rng.choice((1, 2, 3, 4))
        nu = rng.randint(3, 6)
        lat = random_lattice(rng, nu, parity)
        j = rng.randint(1, nu - 2)
        left = apply_braid_word(lat, parse_braid_word("a%d a%d a%d" % (j, j + 1, j)))
        right = apply_braid_word(lat, parse_braid_word("a%d a%d a%d" % (j + 1, j, j + 1)))
        assert left[0].gram == right[0].gram
        assert left[1].matrix == right[1].matrix


def test_monodromy_is_conjugation_covariant():
    rng = random.Random(23)
    for _ in range(60):
        parity = rng.choice((1, 2, 3, 4))
        nu = rng.randint(1, 6)
        lat = random_lattice(rng, nu, parity)
        word = random_braid_word(rng, nu, max_len=6)
        new, change = apply_braid_word(lat, word)
        p = change.matrix
        assert monodromy(new) == p.unimodular_inverse() * monodromy(lat) * p


_MOVES = {"a": braid_alpha, "A": braid_alpha_inverse, "f": orientation_flip}


@st.composite
def _lattices_and_words(draw, max_len):
    lat = draw(_lattices(1, 8))
    kinds = "aAf" if lat.nu >= 2 else "f"
    moves = draw(st.lists(st.tuples(st.sampled_from(kinds), st.integers(1, lat.nu)),
                          min_size=1, max_size=max_len))
    return lat, BraidWord(tuple(
        BraidMove(kind, min(j, lat.nu if kind == "f" else lat.nu - 1))
        for kind, j in moves))


@settings(max_examples=150, deadline=None)
@given(_lattices_and_words(max_len=1))
def test_every_move_is_a_congruence(case):
    # the per-move form of the check that apply_braid_word runs once per word
    lat, word = case
    (move,) = word.moves
    new, change = _MOVES[move.kind](lat, move.j)
    p = change.matrix
    congruent = IntMatrix(triple_loop(IntMatrix(triple_loop(p.transpose(), lat.gram)), p))
    assert new.gram == congruent
    assert p.det() == -1


@settings(max_examples=100, deadline=None)
@given(_lattices_and_words(max_len=12))
def test_word_composite_is_the_product_of_its_moves(case):
    lat, word = case
    new, change = apply_braid_word(lat, word)
    current, want = lat, BasisChange(IntMatrix.identity(lat.nu))
    for move in word.moves:
        current, step = _MOVES[move.kind](current, move.j)
        want = want.then(step)
    assert new.gram == current.gram
    assert change.matrix == want.matrix


@pytest.mark.parametrize("kind", "aAf")
def test_word_check_catches_a_corrupted_step(monkeypatch, kind):
    real = basis._STEPS[kind]

    def corrupted(g, cols, k, parity):
        real(g, cols, k, parity)
        g[k][k] += 1
    monkeypatch.setitem(basis._STEPS, kind, corrupted)
    lat = random_lattice(random.Random(3), 5, 3)
    with pytest.raises(AssertionError, match="disagrees with congruence"):
        apply_braid_word(lat, parse_braid_word("a1 A3 f5 %s2" % kind))


def _rank64_word(seed=11):
    """A random rank-64 lattice and a 24-move word, eight moves of each kind."""
    rng = random.Random(seed)
    lat = random_lattice(rng, 64, 1 + seed % 4)
    kinds = list("aAf" * 8)
    rng.shuffle(kinds)
    word = BraidWord(tuple(BraidMove(kind, rng.randint(1, 64 if kind == "f" else 63))
                           for kind in kinds))
    return lat, word


def _corrupted_once(real, fired, corruption):
    """``real`` step followed, on the first move of the word, by one
    corrupted entry 32 places away from the moved rows."""
    def step(g, cols, k, parity):
        real(g, cols, k, parity)
        if not fired:
            fired.append(k)
            far = (k + 32) % 64
            if corruption == "gram-far-entry":
                g[far][(far + 8) % 64] += 1
            else:  # the columns of P are dicts of their nonzeros
                cols[k][far] = cols[k].get(far, 0) + 1
    return step


def _flip_without_column(g, cols, k, parity):
    for row in g:
        row[k] = -row[k]
    g[k] = [-x for x in g[k]]


@pytest.mark.parametrize("corruption", ["gram-far-entry", "column-entry",
                                        "flip-skips-column"])
def test_word_check_catches_a_corruption_at_rank_64(monkeypatch, corruption):
    # the sparse association of the congruence must still see one wrong
    # entry anywhere; a wrong column of P may instead break unimodularity
    lat, word = _rank64_word()
    if corruption == "flip-skips-column":
        monkeypatch.setitem(basis._STEPS, "f", _flip_without_column)
    else:
        fired = []
        for kind, real in list(basis._STEPS.items()):
            monkeypatch.setitem(basis._STEPS, kind,
                                _corrupted_once(real, fired, corruption))
    with pytest.raises((AssertionError, ValueError),
                       match="disagrees with congruence|must be unimodular"):
        apply_braid_word(lat, word)


def _nonzeros(m):
    return sum(1 for row in m.rows for x in row if x)


def test_word_check_work_follows_the_sparsity_of_p(monkeypatch):
    # a product costs the nonzeros of its left factor times the columns
    # of its right one: every left factor is sparse (so no product has two
    # dense factors), and the determinant of P is reduced in blocks no
    # larger than the largest component of its pattern
    lat, word = _rank64_word()
    reduced, products = [], []
    real_reduce, real_mul = intmat.row_reduce, IntMatrix.__mul__

    def reduce_counting(m, ncols):
        reduced.append(len(m))
        return real_reduce(m, ncols)

    def mul_counting(a, b):
        if isinstance(b, IntMatrix):
            products.append(_nonzeros(a))
        return real_mul(a, b)
    monkeypatch.setattr(intmat, "row_reduce", reduce_counting)
    monkeypatch.setattr(IntMatrix, "__mul__", mul_counting)
    _, change = apply_braid_word(lat, word)
    monkeypatch.undo()
    largest = max(map(len, intmat.components(change.matrix.rows)))
    assert 1 < largest < 64
    assert reduced and max(reduced) <= largest
    assert products and max(products) <= 2 * 64


@settings(max_examples=60, deadline=None)
@given(_lattices_and_words(max_len=12))
def test_basis_change_transports_like_the_dense_rules(case):
    # congruence against a triple-loop P^T M P; the inverse-free
    # covariance test accepts the true new monodromy and nothing shifted
    lat, word = case
    new, change = apply_braid_word(lat, word)
    p = change.matrix
    m = var_inverse(lat)
    assert change.congruence(m) == IntMatrix(
        triple_loop(IntMatrix(triple_loop(p.transpose(), m)), p))
    h = monodromy(lat)
    assert change.conjugates(h, monodromy(new))
    assert not change.conjugates(h, monodromy(new) + IntMatrix.identity(lat.nu))


def test_braid_invariance_products_are_sparse_left(monkeypatch):
    # both transports keep P or P^T on the left of every product
    lat, word = _rank64_word()
    products = []
    real_mul = IntMatrix.__mul__

    def mul_counting(a, b):
        if isinstance(b, IntMatrix):
            products.append(_nonzeros(a))
        return real_mul(a, b)
    monkeypatch.setattr(IntMatrix, "__mul__", mul_counting)
    assert var_inverse_as_operator_after_braid(lat, word) is None
    monkeypatch.undo()
    assert products and max(products) <= 2 * 64


# -- orientation flips -------------------------------------------------------

def test_flip_double_is_identity():
    lat = a2()
    once, p1 = orientation_flip(lat, 2)
    twice, p2 = orientation_flip(once, 2)
    assert twice.gram == lat.gram
    assert p1.then(p2).matrix == IntMatrix.identity(2)


def test_flip_a2_worked_example():
    new, change = orientation_flip(a2(), 2)
    assert new.gram == IntMatrix.from_rows([[2, 1], [1, 2]])
    assert change.matrix == IntMatrix.from_rows([[1, 0], [0, -1]])


def test_flip_preserves_diagonal():
    rng = random.Random(29)
    for _ in range(40):
        parity = rng.choice((1, 2, 3, 4))
        nu = rng.randint(1, 5)
        lat = random_lattice(rng, nu, parity)
        j = rng.randint(1, nu)
        new, _ = orientation_flip(lat, j)
        assert all(new.gram[k, k] == lat.gram[k, k] for k in range(nu))


# -- words -------------------------------------------------------------------

def test_empty_word_is_identity():
    lat = a2()
    new, change = apply_braid_word(lat, BraidWord(()))
    assert new.gram == lat.gram
    assert change.matrix == IntMatrix.identity(2)


def test_cancelling_words():
    lat = a2()
    for text in ("a1 A1", "a1 f1 f1 A1"):
        new, change = apply_braid_word(lat, parse_braid_word(text))
        assert new.gram == lat.gram
        assert change.matrix == IntMatrix.identity(2)


def test_parse_braid_word():
    word = parse_braid_word("a1 A2 f3")
    assert word.moves == (BraidMove("a", 1), BraidMove("A", 2), BraidMove("f", 3))
    assert str(word) == "a1 A2 f3"
    with pytest.raises(ValueError):
        parse_braid_word("b1")
    with pytest.raises(ValueError):
        parse_braid_word("a0")


def test_first_out_of_range():
    word = parse_braid_word("a1 f2 A2 f3")
    assert word.first_out_of_range(3) is None
    assert word.first_out_of_range(2) == BraidMove("A", 2)
    assert parse_braid_word("f2").first_out_of_range(1) == BraidMove("f", 2)


def test_word_position_out_of_range():
    with pytest.raises(ValueError):
        apply_braid_word(a2(), parse_braid_word("a2"))
    with pytest.raises(ValueError):
        apply_braid_word(a2(), parse_braid_word("f3"))


def test_basis_change_must_be_unimodular():
    with pytest.raises(ValueError):
        BasisChange(IntMatrix.from_rows([[2]]))
