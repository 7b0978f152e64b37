import pytest
from hypothesis import given
from hypothesis import strategies as st

from vanlat.intmat import IntMatrix
from vanlat.lattice import (SignVector, ThimbleLattice, diagonal_sign,
                            mirror_sign, random_gram_rows, self_intersection,
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
    draws = iter(range(1, 7))
    rows = random_gram_rows(4, parity, lambda: next(draws))
    eps, diag = mirror_sign(parity), self_intersection(parity)
    assert rows == ((diag, 1, 2, 3),
                    (eps * 1, diag, 4, 5),
                    (eps * 2, eps * 4, diag, 6),
                    (eps * 3, eps * 5, eps * 6, diag))
    assert validate_lattice(ThimbleLattice(parity, IntMatrix(rows))) is None
    assert random_gram_rows(0, parity, None) == ()


def test_sign_vector_validation():
    assert len(SignVector((1, -1))) == 2
    with pytest.raises(ValueError):
        SignVector((1, 0))
