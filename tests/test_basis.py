import operator
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (a_k_level, dynkin, inverse_word, matrix_power, rebind,
                      triple_loop, unitriangular_inverse)
from vanlat import basis, intmat
from vanlat.basis import (BasisChange, BraidMove, BraidWord, apply_braid_word,
                          monodromy, parse_braid_word, picard_lefschetz)
from vanlat.gen import generate_level, random_braid_word, random_lattice
from vanlat.intmat import IntMatrix, row_items
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
def _lattices(draw, min_nu=0, max_nu=10, min_parity=0, max_parity=5):
    parity = draw(st.integers(min_parity, max_parity))
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
@given(_lattices(max_nu=18, min_parity=-4, max_parity=6))
def test_monodromy_is_the_reflection_product(lat):
    # PL_1 * PL_2 * ... * PL_nu, formed left to right without IntMatrix.__mul__;
    # the ranks straddle SPARSE_MIN_COLS, and the parities take both signs
    # of the sweep's scale, which also scales its one-entry terms c <= k
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


def _orbit_length(m, v, bound):
    """The least ``j <= bound`` with ``m^j v = v``, by products of ``m``'s
    nonzeros with the vector, no matrix power built; None past ``bound``."""
    rows = [list(row_items(row)) for row in m.stored_rows]
    w = v
    for j in range(1, bound + 1):
        w = [sum(x * w[c] for c, x in items) for items in rows]
        if w == v:
            return j
    return None


# the Coxeter number of each simple singularity: the order of its
# monodromy, which no change of distinguished basis can move
_COXETER = {("A", 6): 7, ("D", 5): 8, ("D", 8): 14, ("E", 6): 12, ("E", 7): 18,
            ("E", 8): 30}


@pytest.mark.parametrize("kind, k", sorted(_COXETER))
def test_simple_singularity_monodromy_has_the_coxeter_order(kind, k):
    # truth from outside the pipeline: the orbit of a vector closes at h
    # and tr M = (-1)^parity (A'Campo), in the diagram's basis and after
    # each of two random words of up to 10 moves
    rng = random.Random("%s%d" % (kind, k))
    lat = dynkin(kind, k)
    for _ in range(3):
        m = monodromy(lat)
        assert sum(m.diagonal()) == -1
        for _ in range(2):
            v = [rng.randint(-3, 3) for _ in range(k)]
            assert _orbit_length(m, v, 60) == _COXETER[kind, k]
        lat, _ = apply_braid_word(lat, random_braid_word(rng, k, 10))


def test_affine_e8_monodromy_has_no_finite_orbit():
    # the negative control: E_9 is not of finite type, so no orbit closes
    rng = random.Random(9)
    v = [rng.randint(-3, 3) for _ in range(9)]
    assert _orbit_length(monodromy(dynkin("E", 9)), v, 60) is None


def test_d1000_monodromy_closes_at_its_coxeter_number():
    # the rows of M stay sparse, so 1998 products with a vector are cheap
    rng = random.Random(1000)
    v = [rng.randint(-3, 3) for _ in range(1000)]
    assert _orbit_length(monodromy(dynkin("D", 1000)), v, 2000) == 1998


@pytest.mark.parametrize("k", [250, 500])
def test_large_d_k_monodromy_keeps_its_coxeter_order_after_a_word(k):
    # a word cannot move the monodromy's conjugacy class: after a random
    # word of 8 to 11 moves the orbit of a random vector still closes at
    # exactly h = 2k - 2, and tr M = -1; the rows of M stay sparse, so the
    # orbit costs little.  In the diagram's order only the two thimbles
    # where the colour classes meet pair, and a move elsewhere swaps two
    # orthogonal thimbles, so each a or A move is drawn at that pair, whose
    # pairing stays +-1, and each flip at it or beside it
    rng = random.Random("D%d" % k)
    diagram = dynkin("D", k)
    meet = next(s for s in range(k - 1) if diagram.gram[s, s + 1]) + 1
    kinds = [rng.choice("aAf") for _ in range(rng.randint(8, 11))]
    word = BraidWord(tuple(BraidMove(kind, meet + (kind == "f") * rng.randint(-1, 1))
                           for kind in kinds))
    lat, coupled = diagram, 0
    for move in word.moves:
        coupled += move.kind != "f" and lat.gram[move.j - 1, move.j] != 0
        lat = apply_braid_word(lat, BraidWord((move,)))[0]
    assert 0 < coupled == len(kinds) - kinds.count("f")
    assert apply_braid_word(diagram, word)[0] == lat
    m = monodromy(lat)
    assert sum(m.diagonal()) == -1
    v = [rng.randint(-3, 3) for _ in range(k)]
    assert _orbit_length(m, v, 2 * k) == 2 * k - 2


def _characteristic_polynomial(m):
    """The coefficients of ``det(t I - m)``, from the top degree down, by
    Newton's identities on the power sums ``tr(m^j)``, ``j = 1..nu``, in
    exact integers."""
    power, sums = m, []
    for _ in range(m.nrows):
        sums.append(sum(power.diagonal()))
        power = power * m
    coefficients = [1]
    for k in range(1, m.nrows + 1):
        total = sum(map(operator.mul, coefficients, reversed(sums[:k])))
        assert total % k == 0
        coefficients.append(-total // k)
    return coefficients


def _times(*polynomials):
    """The product of polynomials given by their coefficients, top degree
    first."""
    out = [1]
    for q in polynomials:
        product = [0] * (len(out) + len(q) - 1)
        for i, x in enumerate(out):
            for j, y in enumerate(q):
                product[i + j] += x * y
        out = product
    return out


# cyclotomic polynomials, top degree first
_PHI = {2: [1, 1], 3: [1, 1, 1], 12: [1, 0, -1, 0, 1], 18: [1, 0, 0, -1, 0, 0, 1],
        30: [1, 1, 0, -1, -1, -1, 0, 1, 1]}


def _simple_characteristic_polynomials(kind):
    # (k, the polynomial) from the exponents m_j and the Coxeter number h,
    # the eigenvalues being exp(2 pi i m_j / h): 1 + t + ... + t^k on A_k,
    # (t^(k-1) + 1)(t + 1) on D_k, and Phi_3 Phi_12, Phi_2 Phi_18 and
    # Phi_30 on E_6, E_7 and E_8
    if kind == "A":
        return [(k, [1] * (k + 1)) for k in range(1, 31)]
    if kind == "D":
        return [(k, _times([1] + [0] * (k - 2) + [1], _PHI[2])) for k in range(4, 31)]
    return [(6, _times(_PHI[3], _PHI[12])), (7, _times(_PHI[2], _PHI[18])), (8, _PHI[30])]


@pytest.mark.parametrize("kind", "ADE")
def test_simple_singularity_monodromy_has_the_characteristic_polynomial(kind):
    # truth from outside the pipeline, in the diagram's basis and after one
    # random word of up to 10 moves, which cannot move the conjugacy class
    for k, want in _simple_characteristic_polynomials(kind):
        rng = random.Random("%s%d" % (kind, k))
        lat = dynkin(kind, k)
        assert _characteristic_polynomial(monodromy(lat)) == want, k
        moved, _ = apply_braid_word(lat, random_braid_word(rng, k, 10))
        assert _characteristic_polynomial(monodromy(moved)) == want, k


def test_monodromy_requires_valid_lattice():
    bad = ThimbleLattice(1, IntMatrix.from_rows([[2, 1], [-1, 2]]))
    with pytest.raises(ValueError):
        monodromy(bad)


# -- braid moves -------------------------------------------------------------

def test_braid_alpha_a2_worked_example():
    new, change = apply_braid_word(a2(), parse_braid_word("a1"))
    assert new.gram == IntMatrix.from_rows([[2, 1], [1, 2]])
    assert change.matrix == IntMatrix.from_rows([[1, 1], [1, 0]])


def test_braid_alpha_skew_flips_pairing():
    new, _ = apply_braid_word(skew2(), parse_braid_word("a1"))
    assert new.gram == IntMatrix.from_rows([[0, -1], [1, 0]])


def test_braid_alpha_inverse_of_worked_example():
    mid = ThimbleLattice(1, IntMatrix.from_rows([[2, 1], [1, 2]]))
    back, _ = apply_braid_word(mid, parse_braid_word("A1"))
    assert back.gram == a2().gram


def test_braid_round_trip_both_orders():
    rng = random.Random(7)
    for _ in range(120):
        parity = rng.choice((1, 2, 3, 4))
        nu = rng.randint(2, 6)
        lat = random_lattice(rng, nu, parity)
        j = rng.randint(1, nu - 1)
        fwd, p1 = apply_braid_word(lat, parse_braid_word("a%d" % j))
        back, p2 = apply_braid_word(fwd, parse_braid_word("A%d" % j))
        assert back.gram == lat.gram
        assert p1.matrix * p2.matrix == IntMatrix.identity(nu)
        inv, q1 = apply_braid_word(lat, parse_braid_word("A%d" % j))
        again, q2 = apply_braid_word(inv, parse_braid_word("a%d" % j))
        assert again.gram == lat.gram
        assert q1.matrix * q2.matrix == IntMatrix.identity(nu)


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
        assert p * monodromy(new) == monodromy(lat) * p


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
    new, change = apply_braid_word(lat, BraidWord((move,)))
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
        current, step = apply_braid_word(current, BraidWord((move,)))
        want = BasisChange((want.matrix * step.matrix).transpose())
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


def _product_weights(monkeypatch):
    """The nonzero weights of each product the row kernel sums, that is the
    nonzeros of its left factor, under every name a vanlat module binds
    the kernel to; a sweep is not a product and is not counted."""
    products = []
    real = intmat.combine_rows

    def combining(weight_rows, rows, width, *args, **kwargs):
        if "_sweep" not in kwargs:
            weight_rows = list(weight_rows)
            products.append(sum(1 for row in weight_rows for _ in intmat.row_items(row)))
        return real(weight_rows, rows, width, *args, **kwargs)
    rebind(monkeypatch, real, combining)
    return products


def test_word_check_work_follows_the_sparsity_of_p(monkeypatch):
    # a product costs the nonzeros of its left factor times the columns
    # of its right one: every left factor is sparse (so no product has two
    # dense factors), and the determinant of P is reduced in blocks no
    # larger than the largest component of its pattern
    lat, word = _rank64_word()
    reduced = []
    real_reduce = intmat.row_reduce

    def reduce_counting(m, ncols):
        reduced.append(len(m))
        return real_reduce(m, ncols)
    monkeypatch.setattr(intmat, "row_reduce", reduce_counting)
    products = _product_weights(monkeypatch)
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


def _dense_unimodular(rng, n):
    """``P = L U`` for random unit lower and upper triangular ``L`` and
    ``U`` with entries in [-1, 1], its columns then shuffled and some
    negated: a dense matrix of determinant +-1; and ``P^-1``, found by
    undoing each step: the signs and the order of the columns become
    those of the rows of ``U^-1 L^-1``."""
    lower = IntMatrix([[rng.randint(-1, 1) if c < r else int(c == r) for c in range(n)]
                       for r in range(n)], n)
    upper = IntMatrix([[rng.randint(-1, 1) if c > r else int(c == r) for c in range(n)]
                       for r in range(n)], n)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    order = rng.sample(range(n), n)
    p = IntMatrix([[signs[c] * row[c] for c in order]
                   for row in (lower * upper).rows], n)
    lu_inverse = triple_loop(IntMatrix(unitriangular_inverse(upper.rows), n),
                             IntMatrix(unitriangular_inverse(lower.rows), n))
    return p, IntMatrix([[signs[c] * x for x in lu_inverse[c]] for c in order], n)


@st.composite
def _changes_and_maps(draw, n):
    """A basis change of rank ``n``, from a word on a random lattice or
    given directly as a dense unimodular ``P``, with ``P^-1`` built
    without elimination (the change of the inverse word on the moved
    lattice, or :func:`_dense_unimodular`'s), and a dense or sparse square
    matrix, their entries drawn from one seeded ``random``."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        lat = random_lattice(rng, n, rng.randint(1, 4))
        word = random_braid_word(rng, n, max_len=24)
        moved, change = apply_braid_word(lat, word)
        p_inverse = apply_braid_word(moved, inverse_word(word))[1].matrix
    else:
        p, p_inverse = _dense_unimodular(rng, n)
        change = BasisChange(p.transpose())
    fill = draw(st.sampled_from((1, 8)))  # every entry, or about one in 8
    m = IntMatrix([[rng.randint(-9, 9) if rng.randrange(fill) == 0 else 0
                    for _ in range(n)] for _ in range(n)], n)
    return change, p_inverse, m, rng


@pytest.mark.parametrize("n", [0, 1, 15, 16, 17, 64])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_transports_are_the_triple_loop_products(n, data):
    # congruence is P^T M P and conjugates accepts P^-1 M P, both formed
    # here entry by entry, and refuses it with one entry moved; the ranks
    # straddle SPARSE_MIN_COLS
    change, p_inverse, m, rng = data.draw(_changes_and_maps(n))
    p = change.matrix
    assert change.columns == p.transpose() and p.det() in (1, -1)
    assert triple_loop(p, p_inverse) == IntMatrix.identity(n).rows
    assert change.congruence(m) == IntMatrix(
        triple_loop(IntMatrix(triple_loop(p.transpose(), m)), p), n)
    want = IntMatrix(triple_loop(IntMatrix(triple_loop(p_inverse, m)), p), n)
    assert change.conjugates(m, want)
    if n:
        r, c = rng.randrange(n), rng.randrange(n)
        bump = IntMatrix([[int((i, j) == (r, c)) for j in range(n)] for i in range(n)], n)
        assert not change.conjugates(m, want + bump)


def test_braid_invariance_products_are_sparse_left(monkeypatch):
    # both transports keep P or P^T on the left of every product
    lat, word = _rank64_word()
    products = _product_weights(monkeypatch)
    assert var_inverse_as_operator_after_braid(lat, word) is None
    monkeypatch.undo()
    assert products and max(products) <= 2 * 64


# -- orientation flips -------------------------------------------------------

def test_flip_double_is_identity():
    lat = a2()
    once, p1 = apply_braid_word(lat, parse_braid_word("f2"))
    twice, p2 = apply_braid_word(once, parse_braid_word("f2"))
    assert twice.gram == lat.gram
    assert p1.matrix * p2.matrix == IntMatrix.identity(2)


def test_flip_a2_worked_example():
    new, change = apply_braid_word(a2(), parse_braid_word("f2"))
    assert new.gram == IntMatrix.from_rows([[2, 1], [1, 2]])
    assert change.matrix == IntMatrix.from_rows([[1, 0], [0, -1]])


def test_flip_preserves_diagonal():
    rng = random.Random(29)
    for _ in range(40):
        parity = rng.choice((1, 2, 3, 4))
        nu = rng.randint(1, 5)
        lat = random_lattice(rng, nu, parity)
        j = rng.randint(1, nu)
        new, _ = apply_braid_word(lat, parse_braid_word("f%d" % j))
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


def test_word_past_the_digit_limit_raises_at_its_move(monkeypatch):
    # each round of "a1 A2" on this gram multiplies the entry lengths by
    # about 2.6; the coefficient of the 22nd move is longer than str() may
    # write, so the word stops there, while with no limit (0, or a Python
    # without the getter) the same word runs to its end
    lat = ThimbleLattice(1, IntMatrix.from_rows([[2, 3, 3], [3, 2, 3], [3, 3, 2]]))
    word = parse_braid_word(" ".join(["a1 A2"] * 11))
    with pytest.raises(ValueError, match="Exceeds the limit"):
        apply_braid_word(lat, word)
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
    new, _ = apply_braid_word(lat, word)
    assert max(abs(x).bit_length() for row in new.gram.rows for x in row) > 30000
    monkeypatch.delattr(sys, "get_int_max_str_digits")
    assert apply_braid_word(lat, word)[0].gram == new.gram


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
