import random
from fractions import Fraction

import pytest

from vanlat.intmat import IntMatrix
from vanlat.oracle import float_signature, index_1d, index_2d, poly2
from vanlat.signature import Signature, exact_signature


# -- one-dimensional index ----------------------------------------------------

def test_index_1d_examples():
    assert index_1d([0, 0, 1]) == 1      # x^2
    assert index_1d([0, 0, 0, 1]) == 0   # x^3
    assert index_1d([0, 0, -1]) == -1    # -x^2


def test_index_1d_higher_order():
    assert index_1d([0, 0, 0, 0, 1]) == 1    # x^4
    assert index_1d([0, 0, 0, 0, -1]) == -1  # -x^4
    assert index_1d([0, 0, 0, 0, 0, 1]) == 0  # x^5


def test_index_1d_rejects_constant():
    with pytest.raises(ValueError):
        index_1d([7])


def test_index_1d_window_sum_matches_boundary_degree():
    # derivative of x^3 - 3x has zeros at -1 and +1 in the window (-2, 2);
    # the boundary degree over that window is the sum of the local indices
    from math import comb

    def shifted(coeffs, a):
        out = [0] * len(coeffs)
        for k, c in enumerate(coeffs):
            for i in range(k + 1):
                out[i] += c * comb(k, i) * a ** (k - i)
        return out

    g = [0, -3, 0, 1]  # x^3 - 3x
    local = sum(index_1d(shifted(g, zero)) for zero in (-1, 1))

    def dg(x):
        return 3 * x * x - 3
    boundary = ((1 if dg(2) > 0 else -1) - (1 if dg(-2) > 0 else -1)) // 2
    assert local == boundary == 0


# -- planar winding numbers ---------------------------------------------------

RADIAL = (poly2({(1, 0): 2}), poly2({(0, 1): 2}))
SADDLE = (poly2({(1, 0): 2}), poly2({(0, 1): -2}))
SQUARE = (poly2({(2, 0): 1, (0, 2): -1}), poly2({(1, 1): 2}))


def test_index_2d_examples():
    assert index_2d(RADIAL, 1) == 1
    assert index_2d(SADDLE, 1) == -1
    assert index_2d(SQUARE, 1) == 2


def test_index_2d_radius_invariance():
    for field, want in ((RADIAL, 1), (SADDLE, -1), (SQUARE, 2)):
        assert index_2d(field, Fraction(1, 3)) == want
        assert index_2d(field, 2) == want


def test_index_2d_cubic_field():
    cubic = (poly2({(3, 0): 1, (1, 2): -3}), poly2({(2, 1): 3, (0, 3): -1}))
    # z^3 as a plane field
    assert index_2d(cubic, 1) == 3


def test_index_2d_vanishing_at_sample_is_an_error():
    # field (x, y) shifted so it vanishes on the circle at (1, 0)
    f = (poly2({(1, 0): 1, (0, 0): -1}), poly2({(0, 1): 1}))
    with pytest.raises(ValueError, match="vanishes"):
        index_2d(f, 1)


def test_index_2d_zero_count_matches_window():
    # (x^2 - 1, y): zeros at (+-1, 0) with indices +1 and -1
    f = (poly2({(2, 0): 1, (0, 0): -1}), poly2({(0, 1): 1}))
    assert index_2d(f, 2) == 0
    assert index_2d(f, Fraction(1, 2)) == 0


def test_index_2d_sum_of_enclosed_zeros():
    # (x^2 - x, y): zeros at (0,0) index -1... check signs via winding
    f = (poly2({(2, 0): 1, (1, 0): -1}), poly2({(0, 1): 1}))
    inner = index_2d(f, Fraction(1, 2))   # encloses only (0, 0)
    outer = index_2d(f, 2)                # encloses both zeros
    assert inner == -1
    assert outer == 0


def _line_product_gradient(slopes):
    """Gradient of ``prod (y - a x)`` over the slopes ``a``, as ``poly2``s."""
    f = {(0, 0): 1}
    for a in slopes:
        g = {}
        for (i, j), c in f.items():
            g[(i, j + 1)] = g.get((i, j + 1), 0) + c
            g[(i + 1, j)] = g.get((i + 1, j), 0) - a * c
        f = g
    return (poly2({(i - 1, j): i * c for (i, j), c in f.items() if i}),
            poly2({(i, j - 1): j * c for (i, j), c in f.items() if j}))


@pytest.mark.parametrize("slopes", [(-8, 10, 14, 15), (12, 4, 16, 2),
                                    (3, 18, 10, 20)])
def test_index_2d_four_steep_lines(slopes):
    # m lines through 0 in general position: the gradient has index 1 - m;
    # the field turns a full cycle between nearby points of the circle
    assert index_2d(_line_product_gradient(slopes), 1) == 1 - len(slopes)


def test_index_2d_random_line_arrangements():
    rng = random.Random(3)
    for _ in range(40):
        slopes = rng.sample(range(-20, 21), rng.randint(2, 6))
        radius = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        assert index_2d(_line_product_gradient(slopes), radius) == 1 - len(slopes)


def test_index_2d_turns_the_field_when_it_is_vertical_at_the_base_point():
    # at (-1, 0) the first component vanishes, so the route through the
    # quarter-turned field is taken
    swapped = (poly2({(0, 1): 2}), poly2({(1, 0): 2}))  # (2y, 2x)
    assert index_2d(swapped, 1) == -1
    tangent = (poly2({(0, 1): -1}), poly2({(1, 0): 1}))  # (-y, x)
    assert index_2d(tangent, 1) == 1


def test_index_2d_vanishing_at_base_point_is_an_error():
    f = (poly2({(1, 0): 1, (0, 0): 1}), poly2({(0, 1): 1}))  # (x + 1, y)
    with pytest.raises(ValueError, match="vanishes"):
        index_2d(f, 1)


def test_index_2d_rejects_bad_radius():
    with pytest.raises(ValueError):
        index_2d(RADIAL, 0)


# -- floating signature -------------------------------------------------------

def test_float_signature_examples():
    assert float_signature(IntMatrix.identity(3)) == Signature(3, 0, 0)
    assert float_signature(IntMatrix.from_rows([[5, 0, 0], [0, -2, 0], [0, 0, 0]])
                           ) == Signature(1, 1, 1)
    assert float_signature(IntMatrix.from_rows([[7, 1], [1, 0]])) == Signature(1, 1, 0)


def test_float_signature_rejects_asymmetric():
    with pytest.raises(ValueError):
        float_signature(IntMatrix.from_rows([[0, 1], [2, 0]]))


def test_float_matches_exact_on_random_corpus():
    rng = random.Random(99)
    for _ in range(300):
        n = rng.randrange(0, 9)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = rng.randint(-10, 10)
            for j in range(i + 1, n):
                v = rng.randint(-10, 10)
                rows[i][j] = rows[j][i] = v
        m = IntMatrix.from_rows(rows)
        assert float_signature(m) == exact_signature(m)
