"""Shared generators and oracles for randomized exact-geometry tests.

Randomness is always drawn from explicitly seeded `random.Random` instances
so every run is reproducible.  `Poly`, a plain polynomial over Q on
`Fraction`s, is the reference the library's integer kernel is checked
against; it shares no code with the library.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import partial

from zerocycles.algebra import AlgElement, EtaleAlgebra
from zerocycles.geometry import (
    CubicForm,
    GeometryError,
    InvariantViolated,
    LengthThreeScheme,
    LineInSurface,
    ProjPoint,
    _on_surface,
    restrict,
    third_point,
)
from zerocycles.pointsearch import SOURCE_TANGENT, SOURCE_THIRD, _tangent_direction_residuals, rational_record


class Poly:
    """Univariate polynomial over Q, coefficients lowest degree first, trailing
    zeros stripped (the zero polynomial has degree -1).  Iterating yields the
    coefficients, so a Poly can be handed to the library wherever it takes a
    coefficient sequence."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def one(cls):
        return cls((1,))

    def __iter__(self):
        return iter(self.coeffs)

    def to_strings(self) -> list:
        return [str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}" for c in self.coeffs]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        return self.coeffs[-1]

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def monic(self) -> "Poly":
        return Poly(c / self.leading for c in self.coeffs) if self.coeffs else self

    def __add__(self, other):
        other = _as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.coeff(k) + other.coeff(k) for k in range(n))

    __radd__ = __add__

    def __neg__(self):
        return Poly(-c for c in self.coeffs)

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __rsub__(self, other):
        return _as_poly(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return Poly(c * other for c in self.coeffs)
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __divmod__(self, other):
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem, dn = list(self.coeffs), other.degree
        quot = [Fraction(0)] * max(len(rem) - dn, 0)
        for k in range(len(rem) - dn - 1, -1, -1):
            c = quot[k] = rem[k + dn] / other.leading
            for j, b in enumerate(other.coeffs):
                rem[k + j] -= c * b
        return Poly(quot), Poly(rem[:dn])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def divides(self, other) -> bool:
        return other.is_zero if self.is_zero else (other % self).is_zero

    def derivative(self) -> "Poly":
        return Poly(k * c for k, c in enumerate(self.coeffs) if k > 0)

    def __call__(self, value):
        """Evaluate by Horner's rule; works for Fractions and ring elements."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def __eq__(self, other):
        return self.coeffs == _as_poly(other).coeffs

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"


def _as_poly(value) -> Poly:
    return value if isinstance(value, Poly) else Poly((value,))


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor by Euclid over Q; poly_gcd(0, 0) = 0."""
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def is_squarefree(f: Poly) -> bool:
    """True iff gcd(f, f') is constant (f nonzero)."""
    if f.is_zero:
        raise ValueError("squarefreeness is undefined for the zero polynomial")
    return poly_gcd(f, f.derivative()).degree == 0


def squarefree_part(f: Poly) -> Poly:
    """Monic product of the distinct irreducible factors of f (f nonzero)."""
    return (f // poly_gcd(f, f.derivative())).monic()


def primitive(f: Poly) -> tuple:
    """The integer coefficients of f cleared of denominators and content, leading
    coefficient positive: the form of `ZeroDivisorFound.factor`; () for zero."""
    if f.is_zero:
        return ()
    den = math.lcm(*(c.denominator for c in f.coeffs))
    ints = [int(c * den) for c in f.coeffs]
    g = math.gcd(*ints) * (1 if ints[-1] > 0 else -1)
    return tuple(c // g for c in ints)


def rep_of(a) -> Poly:
    """An algebra element's reduced representative as a `Poly`."""
    return Poly(Fraction(x, a.den) for x in a.num)


def combined(combine, algebra, xs, ys):
    """`EtaleAlgebra.split`'s combine on two vectors of AlgElements, each over one
    of the split's components: each vector is put over one denominator, and the
    result is read back as AlgElements of `algebra`."""
    vectors = []
    for v in (xs, ys):
        den = math.lcm(*(c.den for c in v))
        vectors.append(([[x * (den // c.den) for x in c.num] for c in v], den))
    nums, den = combine(*vectors)
    return [AlgElement(algebra, num, den) for num in nums]


def modulus_of(algebra) -> Poly:
    """An algebra's monic modulus as a `Poly`."""
    return Poly(Fraction(c, algebra.scale) for c in algebra.modulus)

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
    """F at coordinates of any ring with + and * (Fractions or `Poly`s), monomial by
    monomial: an evaluator independent of the library's."""
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


def form_scale(surface) -> Fraction:
    """The positive rational s with P = s*F, for P the primitive integer multiple of F
    that `value_at` evaluates: F's common denominator over the content it clears to."""
    den = math.lcm(*(c.denominator for c in surface.terms.values()))
    return Fraction(den, math.gcd(*(int(c * den) for c in surface.terms.values())))


def reps(point) -> list:
    """A point's four coordinates as `Poly` representatives."""
    return [rep_of(c) for c in point.coords]


def evaluate(surface, point):
    """F at the point, exactly, as a `Poly` reduced mod the algebra's modulus: `form_value`
    on the coordinates' representatives.  Zero iff the point lies on the surface."""
    return form_value(surface, reps(point)) % modulus_of(point.algebra)


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
    p = Poly.one()
    for r in roots:
        p = p * Poly((-Fraction(r), 1))
    return p


def poly_xgcd(a, b):
    """Extended gcd of two `Poly`s: (g, u, v) with g = u*a + v*b and g monic (or 0)."""
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
    return {"modulus": modulus_of(a.algebra).to_strings(), "rep": rep_of(a).to_strings()}


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
    return ProjPoint.rational([rep_of(c)(Fraction(tau)) for c in point.coords])


def weierstrass_surface(a, b) -> CubicForm:
    """y^2 z = x^3 + a x z^2 + b z^3 embedded as the X3 = 0 section of a cubic."""
    terms = {(0, 2, 1, 0): 1, (3, 0, 0, 0): -1, (0, 0, 0, 3): 1}
    if Fraction(a) != 0:
        terms[(1, 0, 2, 0)] = -Fraction(a)
    if Fraction(b) != 0:
        terms[(0, 0, 3, 0)] = -Fraction(b)
    return CubicForm(terms)


def fraction_line_section(surface, line) -> LengthThreeScheme:
    """`line_section` on Fractions: the restricted cubic on the raw basepoints'
    coordinates, the same visible roots and reparametrization, the squarefree part
    by `squarefree_part`, and the point's coordinates p + t*q_new reduced as `Poly`s,
    with F evaluated by `form_value`.  The reference the integer chart of
    `line_section` must agree with byte for byte."""
    p, q = line.p.rational_coords(), line.q.rational_coords()
    value = partial(form_value, surface)
    c = restrict(value, p, q)
    if not any(c):
        raise LineInSurface("the line is contained in the surface")
    lead_zeros = next(i for i, v in enumerate(c) if v)
    trail_zeros = next(i for i, v in enumerate(reversed(c)) if v)
    visible = [(Fraction(1), Fraction(0))] if lead_zeros else []
    if trail_zeros:
        visible.append((Fraction(0), Fraction(1)))
    mids = c[lead_zeros : 4 - trail_zeros]
    if len(mids) == 2:
        visible.append((mids[1], -mids[0]))
    for k in range(4):
        q_new = tuple(k * a + b for a, b in zip(p, q))
        shifted = restrict(value, p, q_new) if k else c
        if shifted[3] != 0:
            break
    else:
        raise InvariantViolated("a nonzero binary cubic cannot vanish at 4 parameters")
    reduced = squarefree_part(Poly(shifted))
    params = []
    for s, t in visible:
        tau = t / (s - k * t)
        assert reduced(tau) == 0
        if tau not in params:
            params.append(tau)
    algebra = EtaleAlgebra(reduced)
    coords = [algebra.element(Poly((a, b)) % reduced) for a, b in zip(p, q_new)]
    return LengthThreeScheme(algebra, ProjPoint(algebra, coords), reduced.degree < 3, tuple(sorted(params)))


def naive_saturate(surface, seeds, rounds, max_points=400):
    """Saturation as the full rounds run it, the reference for `saturate`: every round
    sorts the known points by `ProjPoint.key` (Fractions), redoes every chord and
    every tangent scan, and adds what is new in that order up to the cap.

    It shares the constructions with the library: chords are `third_point` and
    tangent scans `_tangent_direction_residuals`.  What it checks is the
    saturation around them: the seed check, the round structure, the order in
    which new points are found and added, deduplication and the cap."""
    known = {}
    for record in seeds:
        point = ProjPoint.from_integers(record.point.normalized().primitive())
        if not _on_surface(surface, point):
            raise ValueError("seed point is not on the surface")
        known.setdefault(point.key(), rational_record(point, record.source))
    for _ in range(rounds):
        if len(known) >= max_points:
            break
        current = sorted(known.values(), key=lambda r: r.point.key())
        fresh = []
        for a, b in itertools.combinations(current, 2):
            try:
                fresh.append(rational_record(third_point(surface, a.point, b.point), SOURCE_THIRD))
            except GeometryError:
                continue
        for record in current:
            for residual in _tangent_direction_residuals(surface, record.point.primitive(), 1):
                fresh.append(rational_record(residual, SOURCE_TANGENT))
        added = False
        for record in fresh:
            if len(known) >= max_points:
                break
            if record.point.key() not in known:
                known[record.point.key()] = record
                added = True
        if not added:
            break
    return sorted(known.values(), key=lambda r: r.point.key())
