"""Property tests of the tangent process and of chords at algebra points.

At a point of degree 2 or 3 the tangent process and the chord construction
run on packed numerator polynomials and read values back modulo the modulus
only for their zero and unit tests.  Their outputs are checked here by
evaluators that share nothing with that pass: `form_value`/`form_gradient`
multiply the coordinates' `Poly` representatives monomial by monomial, the
fibre plane is a 4x4 determinant and collinearity a set of 3x3 minors on them,
each reduced mod f, and each
rational component is compared with the tangent process at the component
point on plain integers.  The points are line sections of random
surfaces (degree 3, split when the line passes through a rational point) and
their degree-2 components, so moduli with scale != 1 and reducible moduli
both occur.  The unit scan on numerators is checked against `poly_gcd`.  The
triple map on a fully split section, which runs at its known rational roots, is
checked against the lazy split order on the same section.
"""

import itertools
import json
import random
from fractions import Fraction
from math import lcm, prod

import pytest

from conftest import (
    Poly,
    component_point,
    evaluate,
    form_gradient,
    form_scale,
    form_value,
    from_roots,
    modulus_of,
    poly_gcd,
    random_point,
    random_surface_through,
    rep_of,
    reps,
)
from zerocycles.algebra import EtaleAlgebra, ZeroDivisorFound, _gcd
from zerocycles.geometry import (
    EqualPoints,
    GeometryError,
    Line,
    PlanePencil,
    ProjPoint,
    _first_unit,
    _tangent_at_roots,
    _tangent_on_components,
    line_section,
    tangent_residual,
    tangent_triple,
    third_point,
)

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


def det4(f, rows):
    """The determinant of a 4x4 matrix of `Poly`s mod f, by Leibniz' formula."""
    total = Poly.zero()
    for perm in itertools.permutations(range(4)):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(4), 2))
        total = total + (-1) ** inversions * prod((rows[r][perm[r]] for r in range(4)), start=Poly.one())
    return total % f


def section_point(rng, through: bool, component: bool):
    """(surface, point, rational roots of its modulus), or None to draw again: the
    tautological point of a random line section, on a line through a rational
    surface point if `through`, reduced onto the degree-2 component of a split
    section if `component`."""
    base = random_point(rng)
    surface = random_surface_through(rng, [base] if through else [])
    if surface is None:
        return None
    try:
        scheme = line_section(surface, Line.rational(base if through else random_point(rng), random_point(rng)))
    except GeometryError:
        return None
    point, roots = scheme.point, list(scheme.known_parameters)
    if component and roots and scheme.degree == 3:
        tau = roots.pop(0)
        _, sub, _ = scheme.algebra.split((-tau.numerator, tau.denominator))
        point = ProjPoint(sub, [sub.element(rep_of(c) % modulus_of(sub)) for c in point.coords])
    return (surface, point, roots) if point.algebra.degree >= 2 else None


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(st.integers(0, 2**32), st.booleans(), st.booleans())
def test_tangent_residual_at_algebra_points(seed, through, component):
    rng = random.Random(seed)
    drawn = section_point(rng, through, component)
    hypothesis.assume(drawn is not None)
    surface, x, roots = drawn
    algebra = x.algebra
    try:
        axis = Line.rational(random_point(rng), random_point(rng))
        y = tangent_residual(surface, PlanePencil(axis), x)
    except GeometryError:
        return
    except ZeroDivisorFound as zd:
        factor, modulus = Poly(zd.factor), modulus_of(algebra)
        assert 1 <= factor.degree < modulus.degree and (modulus % factor).is_zero
        return
    assert y.algebra == algebra
    f, xs, ys = modulus_of(algebra), reps(x), reps(y)
    # on the surface
    assert evaluate(surface, y).is_zero
    # in the fibre plane through x: the axis basepoints, x and y are linearly dependent
    axis_rows = [[Poly((c,)) for c in p.rational_coords()] for p in (axis.p, axis.q)]
    assert det4(f, axis_rows + [xs, ys]).is_zero
    # on the tangent line: F(x + t*y) = F(x) + t * grad F(x) . y + ... has a double root at t = 0
    assert evaluate(surface, x).is_zero
    assert (sum((g * c for g, c in zip(form_gradient(surface, xs), ys)), Poly.zero()) % f).is_zero
    # each rational component is the tangent process at the component point, on integers
    for tau in roots:
        assert component_point(y, tau) == tangent_residual(surface, PlanePencil(axis), component_point(x, tau))


def widened(point, rng, bits):
    """The same point with its numerators times a random rational of up to `bits` bits."""
    scalar = Fraction(rng.getrandbits(bits) + 1, rng.getrandbits(bits) + 1) * rng.choice([1, -1])
    return ProjPoint(point.algebra, [c * scalar for c in reps(point)])


def collinear_over(modulus, rows):
    """Whether three points of P^3 over Q[t]/(modulus), as `Poly` representatives, lie
    on a line: every 3x3 minor vanishes mod the modulus."""
    for cols in itertools.combinations(range(4), 3):
        (a, b, c), (d, e, f), (g, h, i) = ([row[j] for j in cols] for row in rows)
        if not ((a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)) % modulus).is_zero:
            return False
    return True


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(st.integers(0, 2**32), st.booleans(), st.booleans(), st.integers(0, 200))
def test_chords_at_algebra_points(seed, through, component, bits):
    # x is a line-section point (degree 3, or its degree-2 component; split when the
    # line passes through a rational point), y its tangent residual and w the tangent
    # residual at y in a second pencil, each with numerators widened by up to `bits`
    # bits.  The chord xy is the tangent line at x, so its third point is x itself;
    # the chord xw is a generic secant, whose third point z is checked on the Poly
    # representatives mod f.  Refusals must name a proper factor of the modulus.
    rng = random.Random(seed)
    drawn = section_point(rng, through, component)
    hypothesis.assume(drawn is not None)
    surface, x, _ = drawn
    algebra, s = x.algebra, form_scale(surface)
    try:
        pencils = [PlanePencil(Line.rational(random_point(rng), random_point(rng))) for _ in range(2)]
        x = widened(x, rng, bits)
        y = widened(tangent_residual(surface, pencils[0], x), rng, bits)
        w = widened(tangent_residual(surface, pencils[1], y), rng, bits)
        assert third_point(surface, x, y) == x
        z = third_point(surface, x, w)
    except GeometryError:
        return
    except ZeroDivisorFound as zd:
        factor, modulus = Poly(zd.factor), modulus_of(algebra)
        assert 1 <= factor.degree < modulus.degree and (modulus % factor).is_zero
        return
    assert z.algebra == algebra
    f = modulus_of(algebra)
    assert evaluate(surface, z).is_zero
    assert collinear_over(f, [reps(x), reps(w), reps(z)])
    assert third_point(surface, w, x) == z
    try:  # involution: the third point of the chord xz is w again
        assert third_point(surface, x, z) == w
    except (EqualPoints, ZeroDivisorFound):  # only where x and z meet in some component
        xs, zs = reps(x), reps(z)
        minors = ((xs[i] * zs[j] - xs[j] * zs[i]) % f for i, j in itertools.combinations(range(4), 2))
        assert not any(poly_gcd(m, f).degree == 0 for m in minors)
    for point in (x, y, w, z):
        assert surface.value_at(reps(point)) == s * form_value(surface, reps(point))


def tangent_outcome(run):
    """(kind, message) of a refusal, else ("ok", the output's JSON text)."""
    try:
        return "ok", json.dumps(run().to_json())
    except (GeometryError, ZeroDivisorFound) as exc:
        return getattr(exc, "kind", type(exc).__name__), str(exc)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(st.integers(0, 2**32), st.sampled_from(["free", "forced-split", "on-axis"]))
def test_fully_split_sections_match_the_lazy_split_order(seed, draw):
    # a line through two rational surface points is a fully split section;
    # `tangent_triple` runs it at its known roots, `_tangent_on_components`
    # without them, and both must print the same bytes or refuse alike.
    # Points on X3 = 0 and X2 = 0 make the lazy path split (the benchmark's
    # forced splits), and an axis through a section point makes one refuse
    rng = random.Random(seed)
    x, y = random_point(rng, 3), random_point(rng, 3)
    if draw == "forced-split":
        x[3], y[2] = 0, 0
    surface = random_surface_through(rng, [x, y])
    hypothesis.assume(surface is not None)
    try:
        line = Line.rational(x, y)
        scheme = line_section(surface, line)
        pencil = PlanePencil(Line.rational(x if draw == "on-axis" else random_point(rng, 3), random_point(rng, 3)))
    except (GeometryError, ValueError):
        hypothesis.assume(False)
    hypothesis.assume(scheme.fully_split and scheme.degree >= 2)
    fast = tangent_outcome(lambda: tangent_triple(surface, pencil, line).point)
    assert fast == tangent_outcome(lambda: _tangent_on_components(surface, pencil, line_section(surface, line).point))
    image = _tangent_at_roots(surface, pencil, scheme.point, scheme.known_parameters)
    if image is not None:  # it is the lazy image, normalized
        assert fast == ("ok", json.dumps(image.to_json()))
        assert image.normalized() is image and image.key() == _tangent_on_components(surface, pencil, scheme.point).key()


def numerators(algebra, poly):
    """A polynomial reduced modulo the algebra's modulus, as integer numerators."""
    rest = list((poly % modulus_of(algebra)).coeffs)
    rest += [Fraction(0)] * (algebra.degree - len(rest))
    den = lcm(*(c.denominator for c in rest))
    return [int(c * den) for c in rest]


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(
    st.lists(st.fractions(-4, 4, max_denominator=3), min_size=2, max_size=3, unique=True),
    st.lists(st.tuples(st.integers(0, 2), st.lists(st.integers(-5, 5), min_size=3, max_size=3)), max_size=4),
)
def test_unit_scan_on_numerators(roots, draws):
    # each value is a random polynomial times a product of some of the linear
    # factors, reduced: zero, a unit or a zero divisor over the split algebra
    modulus = from_roots(roots)
    algebra = EtaleAlgebra(modulus.coeffs)
    values = []
    for k, coeffs in draws:
        factor = from_roots(roots[:k]) if k < len(roots) else Poly.zero()
        values.append(numerators(algebra, factor * Poly([Fraction(c) for c in coeffs[: algebra.degree]])))
    gcds = [poly_gcd(Poly([Fraction(c) for c in v]), modulus) for v in values]
    units = [i for i, (v, g) in enumerate(zip(values, gcds)) if any(v) and g.degree == 0]
    witnesses = [i for i, (v, g) in enumerate(zip(values, gcds)) if any(v) and g.degree > 0]
    if units:
        assert _first_unit(values, algebra) == (units[0], values[units[0]])
    elif witnesses:
        with pytest.raises(ZeroDivisorFound) as info:
            _first_unit(values, algebra)
        witness = values[witnesses[0]]
        assert info.value.factor == tuple(_gcd(witness, algebra.modulus))
        assert Poly([Fraction(c) for c in info.value.factor]).monic() == gcds[witnesses[0]]
        assert info.value.algebra == algebra
    else:
        assert _first_unit(values, algebra) is None
