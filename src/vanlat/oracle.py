"""Independent ground-truth computations used by the test suite.

These deliberately avoid the machinery they are checked against: the 1-d
gradient index comes from exact signs at rational sample points, the 2-d
one from Sturm sequences over ``Fraction`` along a rational
parametrization of the circle, and the floating signature comes from
numpy eigenvalues.  Only ``float_signature`` touches floating point at all.
"""

from fractions import Fraction

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

    Evaluates the derivative ``h`` at ``+-rho`` for a rational ``rho``
    below every nonzero root of ``h``, so the signs are the germ's own:
    ``(sign at +rho - sign at -rho) / 2``.  Write ``h = x^low * u`` with
    ``u_0 != 0`` and ``b = max |u_i| / |u_0|`` over ``i >= 1``; then
    ``rho = 1 / (2 * (1 + b))`` gives ``|u(+-rho) - u_0| <= |u_0| * b *
    rho / (1 - rho) = |u_0| * b / (2b + 1) < |u_0| / 2``, so neither
    sample vanishes and each is evaluated once.
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
    sp = 1 if _poly_eval(h, rho) > 0 else -1
    sm = 1 if _poly_eval(h, -rho) > 0 else -1
    return (sp - sm) // 2


# -- planar winding numbers -------------------------------------------------

def poly2(terms: dict) -> dict:
    """Normalize a bivariate polynomial given as {(i, j): coefficient}."""
    return {(int(i), int(j)): int(c) for (i, j), c in terms.items() if c}


def _poly2_eval(terms, x, y):
    return sum(c * x ** i * y ** j for (i, j), c in terms.items())


def _poly2_degree(terms):
    return max((i + j for (i, j) in terms), default=0)


def _trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_rem(a, b):
    """Remainder of ``a`` on division by the nonzero ``b``."""
    a = list(a)
    while len(a) >= len(b):
        f = a[-1] / b[-1]
        for k, y in enumerate(b, len(a) - len(b)):
            a[k] -= f * y
        _trim(a)
    return a


def _on_circle(terms, radius):
    """A polynomial in ``t`` with the sign of the bivariate ``terms`` at
    ``radius * (1 - t^2, 2t) / (1 + t^2)``, the circle but ``(-radius, 0)``:
    the value there times ``(1 + t^2)^degree``."""
    d = _poly2_degree(terms)
    out = [Fraction(0)] * (2 * d + 1)
    for (i, j), c in terms.items():
        term = [c * radius ** (i + j)]
        for factor in [[1, 0, -1]] * i + [[0, 2]] * j + [[1, 0, 1]] * (d - i - j):
            term = _poly_mul(term, factor)
        for k, x in enumerate(term):
            out[k] += x
    return _trim(out)


def _cauchy_index(p, q):
    """Cauchy index of ``q / p`` over the real line, for a nonzero ``p``,
    and the gcd of ``p`` and ``q``: the sign changes of the signed
    remainder sequence ``p, q, -rem(p, q), ...`` at ``-oo`` less those at
    ``+oo`` (Sturm's theorem as generalised by Tarski), and its last
    member."""
    seq = [p]
    while q:
        seq.append(q)
        p, q = q, [-x for x in _poly_rem(p, q)]

    def changes(signs):
        return sum(a != b for a, b in zip(signs, signs[1:]))
    return (changes([(s[-1] > 0) == (len(s) % 2 == 1) for s in seq])
            - changes([s[-1] > 0 for s in seq]), seq[-1])


def index_2d(grad, radius) -> int:
    """Winding number of a polynomial plane field around a circle, exactly.

    ``grad`` is a pair ``(P, Q)`` of bivariate integer polynomials in the
    ``poly2`` encoding; along the circle each has the sign of a
    polynomial in ``t`` (see :func:`_on_circle`).  Net, the field passes
    the vertical (``P = 0``) counterclockwise twice per turn, and each
    such pass adds -1 to the Cauchy index of ``Q / P``, so the winding
    number is minus half that index, which Sturm sequences over
    ``Fraction`` count exactly.  Where ``P`` vanishes at ``(-radius, 0)``,
    the point ``t = oo``, the field is first turned by a quarter, which
    keeps its winding number.  A field that vanishes anywhere on the
    circle (a real root of the gcd of the two) is an error.
    """
    px, py = grad
    radius = Fraction(radius)
    if radius <= 0:
        raise ValueError("radius must be positive")
    p, q = _on_circle(px, radius), _on_circle(py, radius)
    if _poly2_eval(px, -radius, 0):
        index, common = _cauchy_index(p, q)
        index = -index
    elif _poly2_eval(py, -radius, 0):
        index, common = _cauchy_index(q, p)  # of the turned field (Q, -P)
    else:
        raise ValueError("field vanishes on the circle at (%s, 0)" % -radius)
    if _cauchy_index(common, _derivative(common))[0]:
        raise ValueError("field vanishes on the circle")
    return index // 2


def float_signature(m) -> Signature:
    """Eigenvalue sign counts of a symmetric ``IntMatrix``, where an eigenvalue
    of magnitude at most ``1e-9`` times the largest counts as zero.  numpy,
    from the ``test`` extra, is imported here, so the package and its CLI
    load without it."""
    import numpy as np

    rows = m.to_lists()
    n = len(rows)
    if n == 0:
        return Signature(0, 0, 0)
    arr = np.array(rows, dtype=float)
    if not np.array_equal(arr, arr.T):
        raise ValueError("float_signature needs a symmetric matrix")
    eigs = np.linalg.eigvalsh(arr)
    top = float(np.max(np.abs(eigs)))
    cut = 1e-9 * top
    n_plus = int(np.sum(eigs > cut))
    n_minus = int(np.sum(eigs < -cut))
    return Signature(n_plus, n_minus, n - n_plus - n_minus)
