import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vanlat.gen import draw_entries, random_lattice
from vanlat.intmat import IntMatrix
from vanlat.lattice import (SignVector, ThimbleLattice, diagonal_sign,
                            gram_rows, mirror_sign, self_intersection,
                            validate_lattice)


def test_self_intersection_examples():
    assert self_intersection(2) == 0
    assert self_intersection(1) == 2
    assert self_intersection(3) == -2
    assert self_intersection(0) == 0
    for parity in range(6):
        assert type(self_intersection(parity)) is int
        assert type(diagonal_sign(parity)) is int


@given(st.integers(0, 40))
def test_self_intersection_formula(parity):
    want = (-1) ** ((parity * (parity - 1)) // 2) * (1 + (-1) ** (parity - 1))
    assert self_intersection(parity) == want
    if parity % 2 == 0:
        assert self_intersection(parity) == 0
    else:
        assert abs(self_intersection(parity)) == 2


def test_validate_accepts_spec_examples():
    ok1 = ThimbleLattice(1, IntMatrix.from_rows([[2, -1], [-1, 2]]))
    assert validate_lattice(ok1) is None
    ok2 = ThimbleLattice(2, IntMatrix.from_rows([[0, 1], [-1, 0]]))
    assert validate_lattice(ok2) is None


def test_validate_reports_first_asymmetric_entry():
    bad = ThimbleLattice(1, IntMatrix.from_rows([[2, 1], [-1, 2]]))
    report = validate_lattice(bad)
    assert report is not None
    assert "[0][1]" in report and "[1][0]" in report


def test_validate_reports_bad_diagonal():
    bad = ThimbleLattice(1, IntMatrix.from_rows([[3]]))
    report = validate_lattice(bad)
    assert report is not None and "diagonal" in report
    bad_even = ThimbleLattice(2, IntMatrix.from_rows([[1]]))
    assert "diagonal" in validate_lattice(bad_even)


def test_validate_rank_zero():
    assert validate_lattice(ThimbleLattice(1, IntMatrix(()))) is None


def test_gram_must_be_square():
    with pytest.raises(ValueError):
        ThimbleLattice(1, IntMatrix.from_rows([[2, 0]]))


def test_mirror_sign_at_every_parity():
    for parity in range(-5, 6):
        want = 1 if parity % 2 else -1
        assert mirror_sign(parity) == want and type(mirror_sign(parity)) is int


@pytest.mark.parametrize("parity", [0, 1, 2, 3, -1])
def test_random_gram_rows_draws_the_upper_triangle_row_by_row(parity):
    # gram_rows reads the flat draw row by row, as the generator draws it
    rows = gram_rows(4, parity, list(range(1, 7)))
    eps, diag = mirror_sign(parity), self_intersection(parity)
    assert rows == ((diag, 1, 2, 3),
                    (eps * 1, diag, 4, 5),
                    (eps * 2, eps * 4, diag, 6),
                    (eps * 3, eps * 5, eps * 6, diag))
    assert validate_lattice(ThimbleLattice(parity, IntMatrix(rows))) is None
    assert gram_rows(0, parity, []) == ()


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 64), st.integers(1, 17), st.integers(0, 40),
       st.integers(0, 6))
@example(seed=0, n=1, count=40, parity=0)
@example(seed=1, n=2, count=40, parity=1)
@example(seed=2, n=4, count=40, parity=3)
@example(seed=3, n=8, count=40, parity=7)
@example(seed=4, n=16, count=40, parity=6)
def test_draw_entries_is_the_stdlib_draw(seed, n, count, parity):
    # the same values as random.Random's choice, randint and randrange,
    # and the same generator state after them; k = n.bit_length() matters
    # at powers of two, where k is one more than (n - 1).bit_length()
    values = tuple(range(10 * n, 11 * n))
    ours, stdlib = random.Random(seed), random.Random(seed)
    assert (draw_entries(ours.getrandbits, count, values)
            == [stdlib.choice(values) for _ in range(count)])
    assert ours.getstate() == stdlib.getstate()
    assert (draw_entries(ours.getrandbits, count, range(-5, 6))
            == [stdlib.randint(-5, 5) for _ in range(count)])
    assert ours.getstate() == stdlib.getstate()
    assert (draw_entries(ours.getrandbits, count, range(parity + 1))
            == [stdlib.randrange(0, parity + 1) for _ in range(count)])
    assert ours.getstate() == stdlib.getstate()


class _BoundedRandom(random.Random):
    """A generator whose ``getrandbits`` refuses its 1001st call, so a
    draw that never ends fails instead of hanging."""

    calls = 0

    def getrandbits(self, k):
        self.calls += 1
        if self.calls > 1000:
            raise RuntimeError("getrandbits called more than 1000 times")
        return super().getrandbits(k)


def test_draw_entries_of_an_empty_range_raises():
    # getrandbits(0) is 0, which no index of an empty range is below: the
    # draw raises before it instead of rejecting it forever
    rng = _BoundedRandom(1)
    with pytest.raises(ValueError, match="empty range"):
        draw_entries(rng.getrandbits, 3, ())
    with pytest.raises(ValueError, match="empty range"):
        random_lattice(rng, 3, 1, max_entry=-1)
    assert rng.calls == 0
    # with nothing to draw, an empty range draws nothing: rank 0 and 1
    # lattices have no entry above the diagonal
    assert draw_entries(rng.getrandbits, 0, ()) == []
    assert random_lattice(rng, 0, 1, max_entry=-1).nu == 0
    assert random_lattice(rng, 1, 1, max_entry=-1).gram.rows == ((2,),)
    assert rng.calls == 0


def test_sign_vector_validation():
    assert len(SignVector((1, -1))) == 2
    with pytest.raises(ValueError):
        SignVector((1, 0))
    # 1.0 == 1, but a float sign would print as 1.0 in every output
    with pytest.raises(ValueError, match=r"got 1\.0"):
        SignVector((1.0,))
