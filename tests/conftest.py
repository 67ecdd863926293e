"""Shared generators for randomized exact-geometry tests.

Randomness is always drawn from explicitly seeded `random.Random` instances
so every run is reproducible.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from zerocycles.geometry import CubicForm, ProjPoint

#: All 20 degree-3 exponent vectors on 4 variables, in a fixed order.
MONOMIALS = [
    tuple(sum(1 for x in combo if x == i) for i in range(4))
    for combo in itertools.combinations_with_replacement(range(4), 3)
]


def monomial_value(exp, point):
    v = Fraction(1)
    for c, e in zip(point, exp):
        v *= Fraction(c) ** e
    return v


def form_value(surface, coords):
    """F at coordinates of any ring with + and * (Fractions, `Poly`s, algebra
    elements), monomial by monomial: an evaluator independent of the library's."""
    total = 0
    for exp, coeff in surface.terms.items():
        term = coeff
        for c, e in zip(coords, exp):
            for _ in range(e):
                term = term * c
        total = term + total
    return total


def form_gradient(surface, coords):
    """The partial derivatives of F, monomial by monomial, like `form_value`;
    a partial with no monomial is the int 0."""
    out = [0, 0, 0, 0]
    for exp, coeff in surface.terms.items():
        for m, e in enumerate(exp):
            if e:
                term = coeff * e
                for i, (c, f) in enumerate(zip(coords, exp)):
                    for _ in range(f - (i == m)):
                        term = term * c
                out[m] = term + out[m]
    return out


def random_point(rng, height=4):
    while True:
        v = [rng.randint(-height, height) for _ in range(4)]
        if any(v):
            return v


def random_surface_through(rng, points):
    """Random cubic form vanishing at the given (0, 1 or 2) integer points.

    Draws random small coefficients and then solves for one or two of them
    to force the vanishing; returns None when the correction system is
    singular (caller resamples).
    """
    coeffs = {e: Fraction(rng.randint(-3, 3)) for e in MONOMIALS}
    points = list(points)
    if not points:
        if all(v == 0 for v in coeffs.values()):
            coeffs[MONOMIALS[0]] = Fraction(1)
        return CubicForm(coeffs)
    if len(points) == 1:
        x = points[0]
        for m in MONOMIALS:
            mx = monomial_value(m, x)
            if mx == 0:
                continue
            rest = sum(c * monomial_value(e, x) for e, c in coeffs.items() if e != m)
            coeffs[m] = -rest / mx
            return CubicForm(coeffs) if any(v != 0 for v in coeffs.values()) else None
        return None
    x, y = points
    for m1, m2 in itertools.combinations(MONOMIALS, 2):
        a1, b1 = monomial_value(m1, x), monomial_value(m2, x)
        a2, b2 = monomial_value(m1, y), monomial_value(m2, y)
        det = a1 * b2 - a2 * b1
        if det == 0:
            continue
        r1 = sum(c * monomial_value(e, x) for e, c in coeffs.items() if e not in (m1, m2))
        r2 = sum(c * monomial_value(e, y) for e, c in coeffs.items() if e not in (m1, m2))
        coeffs[m1] = (-r1 * b2 + r2 * b1) / det
        coeffs[m2] = (-a1 * r2 + a2 * r1) / det
        return CubicForm(coeffs) if any(v != 0 for v in coeffs.values()) else None
    return None


def secant_instance(rng):
    """(surface, x, y) with both integer points on the surface, or None."""
    x = random_point(rng)
    y = random_point(rng)
    surface = random_surface_through(rng, [x, y])
    if surface is None:
        return None
    px, py = ProjPoint.rational(x), ProjPoint.rational(y)
    if px == py:
        return None
    return surface, px, py


def expand_along_line(surface, p, q):
    """Brute-force restriction oracle: expand S(s*p + t*q) monomial by monomial.

    Returns the univariate polynomial in t at s = 1, built with generic
    poly arithmetic rather than the finite differences the library uses.
    """
    from zerocycles.algebra import Poly

    total = Poly.zero()
    for exp, coeff in surface.terms.items():
        term = Poly([coeff])
        for pi, qi, e in zip(p, q, exp):
            for _ in range(e):
                term = term * Poly([Fraction(pi), Fraction(qi)])
        total = total + term
    return total


def from_roots(roots):
    """The monic polynomial prod(t - r) over the given rational roots."""
    from zerocycles.algebra import Poly

    p = Poly.one()
    for r in roots:
        p = p * Poly((-Fraction(r), 1))
    return p


def poly_xgcd(a, b):
    """Extended gcd of two `Poly`s: (g, u, v) with g = u*a + v*b and g monic (or 0)."""
    from zerocycles.algebra import Poly

    r0, r1 = a, b
    u0, u1 = Poly.one(), Poly.zero()
    v0, v1 = Poly.zero(), Poly.one()
    while not r1.is_zero:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    if r0.is_zero:
        return r0, u0, v0
    inv = 1 / r0.leading
    return r0.monic(), u0 * inv, v0 * inv


def element_json(a):
    """An algebra element as {"modulus": [...], "rep": [...]} coefficient strings."""
    return {"modulus": a.algebra.modulus.to_strings(), "rep": a.rep.to_strings()}


def collinear(x, y, z):
    """True iff three rational points lie on one line: all 3x3 minors vanish."""
    rows = [p.rational_coords() for p in (x, y, z)]
    for cols in itertools.combinations(range(4), 3):
        (a, b, c), (d, e, f), (g, h, i) = ([row[j] for j in cols] for row in rows)
        if a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g) != 0:
            return False
    return True


def component_point(point, tau):
    """The rational component of an algebra point at a root tau of its modulus:
    each coordinate's representative evaluated at tau."""
    return ProjPoint.rational([c.rep(Fraction(tau)) for c in point.coords])


def weierstrass_surface(a, b) -> CubicForm:
    """y^2 z = x^3 + a x z^2 + b z^3 embedded as the X3 = 0 section of a cubic."""
    terms = {(0, 2, 1, 0): 1, (3, 0, 0, 0): -1, (0, 0, 0, 3): 1}
    if Fraction(a) != 0:
        terms[(1, 0, 2, 0)] = -Fraction(a)
    if Fraction(b) != 0:
        terms[(0, 0, 3, 0)] = -Fraction(b)
    return CubicForm(terms)
