"""Independent ground-truth computations used by the test suite.

These deliberately avoid the machinery they are checked against: the 1-d
and 2-d gradient indices come from exact sign and winding counts at
rational sample points, and the floating signature comes from numpy
eigenvalues.  Only ``float_signature`` touches floating point at all.
"""

from fractions import Fraction

from .intmat import IntMatrix
from .signature import Signature


def _poly_eval(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _derivative(coeffs):
    return [i * c for i, c in enumerate(coeffs)][1:]


def index_1d(poly: list[int]) -> int:
    """Index at 0 of the derivative of an integer polynomial.

    Evaluates the derivative at ``+-rho`` for a rational ``rho`` chosen
    below every nonzero root (root bound), so the signs are the germ's
    own: ``(sign at +rho - sign at -rho) / 2``.
    """
    h = _derivative([Fraction(c) for c in poly])
    if not any(h):
        raise ValueError("constant polynomial: derivative vanishes identically")
    low = 0
    while h[low] == 0:
        low += 1
    u = h[low:]
    bound = max(abs(c) for c in u[1:]) / abs(u[0]) if len(u) > 1 else Fraction(0)
    rho = 1 / (2 * (1 + bound))
    for _ in range(64):
        plus, minus = _poly_eval(h, rho), _poly_eval(h, -rho)
        if plus != 0 and minus != 0:
            break
        rho /= 2
    else:
        raise ValueError("could not find nonvanishing sample points")
    sp = 1 if plus > 0 else -1
    sm = 1 if minus > 0 else -1
    return (sp - sm) // 2


# -- planar winding numbers -------------------------------------------------

def poly2(terms: dict) -> dict:
    """Normalize a bivariate polynomial given as {(i, j): coefficient}."""
    return {(int(i), int(j)): int(c) for (i, j), c in terms.items() if c}


def _poly2_eval(terms, x, y):
    return sum(c * x ** i * y ** j for (i, j), c in terms.items())


def _poly2_degree(terms):
    return max((i + j for (i, j) in terms), default=0)


def _octant(a, b):
    # sectors 0..7 counterclockwise starting at the positive x-axis
    table = {(1, 0): 0, (1, 1): 1, (0, 1): 2, (-1, 1): 3,
             (-1, 0): 4, (-1, -1): 5, (0, -1): 6, (1, -1): 7}
    sa = (a > 0) - (a < 0)
    sb = (b > 0) - (b < 0)
    if sa == 0 and sb == 0:
        return None
    return table[(sa, sb)]


def _circle_points(radius, half):
    """Exact rational points tracing the circle counterclockwise.

    Tangent half-angle parametrization over t in [-1, 1) covers the right
    half; the antipodes cover the rest, so no trigonometry is needed and
    every sample satisfies x^2 + y^2 = radius^2 exactly.
    """
    pts = []
    for k in range(half):
        t = Fraction(-1) + Fraction(2 * k, half)
        den = 1 + t * t
        pts.append((radius * (1 - t * t) / den, radius * 2 * t / den))
    return pts + [(-x, -y) for (x, y) in pts]


def index_2d(grad, radius, samples: int | None = None) -> int:
    """Winding number of a polynomial plane field around a circle.

    ``grad`` is a pair of bivariate integer polynomials in the ``poly2``
    encoding.  Sector transitions between consecutive samples must stay
    within a quarter turn; an ambiguous step triggers denser resampling
    (up to six doublings) rather than a guess, and a field vanishing at a
    sample point is an error.  At least ``8 * (degree + 1)`` samples are
    used.
    """
    px, py = grad
    radius = Fraction(radius)
    if radius <= 0:
        raise ValueError("radius must be positive")
    deg = max(_poly2_degree(px), _poly2_degree(py))
    minimum = 8 * (deg + 1)
    n = max(samples or 0, minimum)
    for _ in range(7):
        pts = _circle_points(radius, (n + 1) // 2)
        sectors = []
        for (x, y) in pts:
            s = _octant(_poly2_eval(px, x, y), _poly2_eval(py, x, y))
            if s is None:
                raise ValueError("field vanishes at sample point (%s, %s)" % (x, y))
            sectors.append(s)
        total = 0
        ambiguous = False
        for a, b in zip(sectors, sectors[1:] + sectors[:1]):
            step = (b - a + 4) % 8 - 4  # minimal signed sector difference
            if abs(step) > 2 or step == -4:
                ambiguous = True
                break
            total += step
        if not ambiguous:
            if total % 8 != 0:
                raise ValueError("winding did not close up; resample")
            return total // 8
        n *= 2
    raise ValueError("ambiguous sector transitions persist at %d samples" % n)


def float_signature(m, threshold: float = 1e-9) -> Signature:
    """Eigenvalue sign counts of a symmetric matrix, thresholded
    relative to the largest magnitude.  numpy is imported here, so the
    package and its CLI load without it."""
    import numpy as np

    if isinstance(m, IntMatrix):
        rows = m.to_lists()
    else:
        rows = [list(r) for r in m]
    n = len(rows)
    if n == 0:
        return Signature(0, 0, 0)
    arr = np.array(rows, dtype=float)
    if not np.array_equal(arr, arr.T):
        raise ValueError("float_signature needs a symmetric matrix")
    eigs = np.linalg.eigvalsh(arr)
    top = float(np.max(np.abs(eigs)))
    cut = threshold * top
    n_plus = int(np.sum(eigs > cut))
    n_minus = int(np.sum(eigs < -cut))
    return Signature(n_plus, n_minus, n - n_plus - n_minus)
