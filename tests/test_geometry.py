import itertools
import random
import re
import time
from collections import Counter
from fractions import Fraction
from math import gcd, prod

import pytest

from conftest import (
    MONOMIALS,
    Poly,
    collinear,
    component_point,
    evaluate,
    expand_along_line,
    form_gradient,
    form_scale,
    fraction_line_section,
    from_roots,
    modulus_of,
    monomial_value,
    random_point,
    random_surface_through,
    rep_of,
    reps,
    secant_instance,
    weierstrass_surface,
)
from zerocycles import algebra as algebra_module
from zerocycles import geometry as geometry_module
from zerocycles.algebra import AlgElement, EtaleAlgebra, ZeroDivisorFound, fraction_to_string
from zerocycles.geometry import (
    CubicForm,
    EqualPoints,
    GeometryError,
    Line,
    LineInSurface,
    PlanePencil,
    PointNotOnSurface,
    PointOnAxis,
    ProjPoint,
    SingularSectionPoint,
    TangentLineInSurface,
    _first_unit,
    _plane,
    _plucker,
    _rational_from_json,
    _tangent_at_roots,
    _tangent_on_components,
    line_from_json,
    line_section,
    point_from_json,
    restrict,
    tangent_residual,
    tangent_triple,
    third_point,
)

FERMAT = CubicForm.fermat()


class TestEvaluate:
    def test_form_refuses_silent_coercion(self):
        for terms, shown in [
            ({(3.9, -0.9, 0, 0): 1, (0, 3, 0, 0): 1}, "3.9"),
            ({(3, 0, 0, 0): 1, (True, 2, 0, 0): 1}, "True"),
            ({(3, 0, 0, 0): 1, (0, 3, 0, 0): True}, "True"),
            ({(3, 0, 0, 0): 0.1}, "0.1"),
        ]:
            with pytest.raises(ValueError, match=shown):
                CubicForm(terms)
        assert CubicForm({(3, 0, 0, 0): Fraction(1, 10), (0, 3, 0, 0): "2/3"}).terms[(0, 3, 0, 0)] == Fraction(2, 3)

    def test_fermat_examples(self):
        assert evaluate(FERMAT, ProjPoint.rational([1, -1, 0, 0])).is_zero
        assert evaluate(FERMAT, ProjPoint.rational([1, 0, 0, 0])) == Poly.one()

    def test_against_monomial_oracle(self):
        # value_at gives P = s*F on every ring
        rng = random.Random(11)
        for _ in range(200):
            surface = random_surface_through(rng, [])
            pt = random_point(rng)
            expected = sum(
                coeff * monomial_value(exp, pt) for exp, coeff in surface.terms.items()
            )
            assert surface.value_at([Fraction(v) for v in pt]) == form_scale(surface) * expected

    def test_gradient_euler_relation(self):
        # sum x_i * dS/dx_i = 3 * S for a cubic form
        rng = random.Random(12)
        for _ in range(100):
            surface = random_surface_through(rng, [])
            pt = [Fraction(v) for v in random_point(rng)]
            grad = surface.gradient_at(pt)
            assert sum(g * v for g, v in zip(grad, pt)) == 3 * surface.value_at(pt)


def restricted(surface, line):
    """The restriction to a rational line as a Poly in t (s = 1), halved back."""
    p, q = line.p.rational_coords(), line.q.rational_coords()
    return Poly(c / 2 for c in restrict(surface.value_at, p, q))


def expand_over(algebra, surface, p, q):
    """`expand_along_line` over an algebra: the coefficients of F(p + t*q) as `Poly`s mod f,
    for coordinates given as `Poly` representatives.

    Coordinates are polynomials of degree <= 2 in the generator u, so each
    coefficient of the expansion is a polynomial of degree <= 6 in u.  It is
    interpolated from the rational expansions at u = 0..6 and then reduced.
    """
    nodes = range(7)
    rows = [expand_along_line(surface, [c(u) for c in p], [c(u) for c in q]) for u in nodes]
    out = []
    for j in range(4):
        coeff = Poly.zero()
        for xk, row in zip(nodes, rows):
            term = Poly([row.coeff(j)])
            for xm in nodes:
                if xm != xk:
                    term = term * Poly([Fraction(-xm, xk - xm), Fraction(1, xk - xm)])
            coeff = coeff + term
        out.append(coeff % modulus_of(algebra))
    return out


class TestRestrictToLine:
    def test_line_inside_fermat(self):
        line = Line.rational([1, -1, 0, 0], [0, 0, 1, -1])
        assert restricted(FERMAT, line).is_zero
        with pytest.raises(LineInSurface):
            line_section(FERMAT, line)

    def test_fermat_secant_form(self):
        line = Line.rational([1, -1, 0, 0], [0, 1, -1, 0])
        # s^3 + (t-s)^3 - t^3 = 3*t*s*(s - t): coefficients (0, 3, -3, 0), doubled
        p, q = line.p.rational_coords(), line.q.rational_coords()
        assert restrict(FERMAT.value_at, p, q) == (0, 6, -6, 0)
        poly = restricted(FERMAT, line)  # in the affine parameter t, s = 1
        assert poly == Poly([0, 3, -3]) and poly.degree == 2  # one root at infinity

    def test_both_basepoints_on_surface_divides_st(self):
        rng = random.Random(13)
        for _ in range(50):
            instance = secant_instance(rng)
            if instance is None:
                continue
            surface, x, y = instance
            c = restrict(surface.value_at, reps(x), reps(y))
            assert c[0].is_zero and c[3].is_zero

    def test_matches_expansion_oracle(self):
        rng = random.Random(14)
        for _ in range(100):
            surface = random_surface_through(rng, [])
            p, q = random_point(rng), random_point(rng)
            try:
                line = Line.rational(p, q)
            except EqualPoints:
                continue
            assert restricted(surface, line) == expand_along_line(surface, p, q)

    @pytest.mark.parametrize(
        "ring", ["int", "Fraction", "t^3 - 2", "t^3 - t", "(t^2 + 1)(t - 2)"]
    )
    def test_every_ring_matches_expansion_oracle(self, ring):
        # one routine serves the integer kernel, rational lines and algebra points,
        # here as Poly representatives reduced mod f; on each ring value_at gives
        # P = s*F, so the coefficients come times s
        rng = random.Random(16)
        moduli = {"t^3 - 2": [-2, 0, 0, 1], "t^3 - t": [0, -1, 0, 1], "(t^2 + 1)(t - 2)": [-2, 1, -2, 1]}
        for _ in range(30):
            surface = random_surface_through(rng, [])
            if ring == "int":
                p, q = random_point(rng), random_point(rng)
                got = restrict(surface.value_at, p, q)
                assert all(type(c) is int for c in got)
                assert Poly(Fraction(c, 2) for c in got) == expand_along_line(surface, p, q) * form_scale(surface)
            elif ring == "Fraction":
                surface = random_surface_through(rng, [random_point(rng)]) or surface
                p, q = ([Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(4)] for _ in "pq")
                got = restrict(surface.value_at, p, q)
                assert Poly(c / 2 for c in got) == expand_along_line(surface, p, q) * form_scale(surface)
            else:
                algebra, f = EtaleAlgebra(Poly(moduli[ring])), Poly(moduli[ring])
                p, q = ([Poly(rng.randint(-3, 3) for _ in range(3)) % f for _ in range(4)] for _ in "pq")
                got = restrict(surface.value_at, p, q)
                assert all(isinstance(c, Poly) for c in got)
                s = form_scale(surface)
                assert [c * Fraction(1, 2) % f for c in got] == [s * c for c in expand_over(algebra, surface, p, q)]


class TestThirdPoint:
    def test_fermat_example(self):
        x = ProjPoint.rational([1, -1, 0, 0])
        y = ProjPoint.rational([0, 1, -1, 0])
        z = third_point(FERMAT, x, y)
        assert z == ProjPoint.rational([1, 0, -1, 0])

    def test_symmetry(self):
        x = ProjPoint.rational([1, -1, 0, 0])
        y = ProjPoint.rational([0, 1, -1, 0])
        assert third_point(FERMAT, x, y) == third_point(FERMAT, y, x)

    def test_equal_points_rejected(self):
        x = ProjPoint.rational([1, -1, 0, 0])
        with pytest.raises(EqualPoints):
            third_point(FERMAT, x, ProjPoint.rational([2, -2, 0, 0]))

    def test_off_surface_rejected(self):
        with pytest.raises(PointNotOnSurface):
            third_point(FERMAT, ProjPoint.rational([1, 0, 0, 0]), ProjPoint.rational([0, 1, -1, 0]))

    def test_randomized_contract_and_involution(self):
        rng = random.Random(15)
        done = 0
        while done < 300:
            instance = secant_instance(rng)
            if instance is None:
                continue
            surface, x, y = instance
            try:
                z = third_point(surface, x, y)
            except LineInSurface:
                continue
            assert evaluate(surface, z).is_zero
            assert collinear(x, y, z)
            assert third_point(surface, y, x) == z
            # involution on the fixed line: the residual of (x, z) is y again
            if z != x and z != y:
                assert third_point(surface, x, z) == y
            done += 1


class TestLine:
    @pytest.mark.parametrize("modulus", [(-2, 0, 1), (-1, -1, 0, 1)], ids=["degree-2", "degree-3"])
    @pytest.mark.parametrize("side", [0, 1], ids=["p", "q"])
    def test_basepoints_must_be_rational(self, modulus, side):
        algebra = EtaleAlgebra(modulus)
        point = ProjPoint(algebra, [(0, 1), 1, 0, 0])
        rational = ProjPoint.rational([0, 0, 1, 0])
        basepoints = (point, rational) if side == 0 else (rational, point)
        with pytest.raises(ValueError, match="both basepoints of a line must be rational"):
            Line(*basepoints)

    def test_spanning_check_runs_on_integers(self, monkeypatch):
        # the 2x2 minors are scanned on the primitive integer vectors, so no
        # algebra reduction, unit test or inverse runs while a line is parsed
        calls = []

        def counting(name):
            original = getattr(EtaleAlgebra, name)

            def spy(self, *args):
                calls.append(name)
                return original(self, *args)
            return spy

        for name in ("_remainder", "_factor", "_inverse"):
            monkeypatch.setattr(EtaleAlgebra, name, counting(name))
        line = line_from_json([["1", "-1", "0", "0"], ["0", "1/2", "-1/2", "0"]])
        assert line.p.primitive() == (1, -1, 0, 0) and line.q.primitive() == (0, 1, -1, 0)
        with pytest.raises(EqualPoints):
            line_from_json([["1", "-1", "0", "0"], ["-2", "2", "0", "0"]])
        assert calls == []


def plane_through(axis, xs, units=_first_unit):
    """The plane of the pencil about `axis` through the point with coordinates xs, by the
    Plucker expansion that `tangent_residual` runs."""
    return _plane(_plucker(PlanePencil(axis)), xs, units)


def nonzero_poly(values):
    """The unit scan on `Poly` values: the first nonzero one, or None."""
    return next(((i, v) for i, v in enumerate(values) if not v.is_zero), None)


class TestFiberPlane:
    AXIS = Line.rational([0, 0, 1, 0], [0, 0, 0, 1])  # X0 = X1 = 0

    def normal(self, x):
        return plane_through(self.AXIS, ProjPoint.rational(x).primitive())

    def test_containment_forces_plane(self):
        # rational points give the plane on their primitive integer vectors
        assert self.normal([1, 0, 0, 0]) == (0, -1, 0, 0)  # plane X1 = 0
        assert self.normal([1, 1, 0, 0]) == (1, -1, 0, 0)  # plane X0 - X1 = 0

    def test_point_on_axis_rejected(self):
        with pytest.raises(PointOnAxis):
            self.normal([0, 0, 2, -5])

    def test_random_incidence(self):
        rng = random.Random(16)
        for _ in range(100):
            p, q, x = (random_point(rng) for _ in range(3))
            try:
                axis = Line.rational(p, q)
                n = plane_through(axis, ProjPoint.rational(x).primitive())
            except (EqualPoints, PointOnAxis):
                continue
            for pt in (p, q, x):
                assert sum(a * b for a, b in zip(n, pt)) == 0

    def test_plucker_plane_is_the_signed_3x3_minors(self):
        # n_i = (-1)^i det(rows p, q, x without column i), on the axis' primitive
        # vectors and x's coordinates: rational ints, and over degree 2 and 3 the
        # Poly representatives
        rng = random.Random(17)
        algebras = [EtaleAlgebra((-2, 0, 1)), EtaleAlgebra((Fraction(-1, 3), 1, 0, 1)), EtaleAlgebra((-2, 0, 0, 1))]
        done = on_axis = 0
        for case in range(300):
            try:
                axis = Line.rational(random_point(rng), random_point(rng))
            except EqualPoints:
                continue
            a, b = axis.p.primitive(), axis.q.primitive()
            units = _first_unit
            if case % 3 == 0:
                xs = ProjPoint.rational(random_point(rng)).primitive()
            else:
                alg, units = algebras[case // 3 % 3], nonzero_poly
                if case % 7 == 0:  # on the axis, spread over the algebra
                    u, v = Poly(rng.randint(-4, 4) for _ in range(alg.degree)), rng.randint(-4, 4)
                    coords = [u * i + v * j for i, j in zip(a, b)]
                else:
                    coords = [Poly(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(alg.degree))
                              for _ in range(4)]
                if all(c.is_zero for c in coords):
                    continue
                xs = reps(ProjPoint(alg, coords))
            rows = [a, b, xs]
            want = []
            for i in range(4):
                (r0, r1, r2), (s0, s1, s2), (t0, t1, t2) = ([row[j] for j in range(4) if j != i] for row in rows)
                minor = t0 * (r1 * s2 - r2 * s1) - t1 * (r0 * s2 - r2 * s0) + t2 * (r0 * s1 - r1 * s0)
                want.append(minor if i % 2 == 0 else -minor)
            if not any(want) if units is _first_unit else all(w.is_zero for w in want):
                with pytest.raises(PointOnAxis):
                    plane_through(axis, xs, units)
                on_axis += 1
                continue
            assert list(plane_through(axis, xs, units)) == want
            done += 1
        assert done >= 200 and on_axis >= 10


class TestTangentResidual:
    @pytest.mark.parametrize("axis, refusal", [
        # the plane through this axis and x is X0 + X1 = 0, the tangent plane of the
        # Fermat cubic at x: the section is singular there
        (([0, 0, 1, 0], [0, 0, 0, 1]), SingularSectionPoint),
        # the tangent line in this plane runs through x and (0, 0, 1, -1), on the
        # Fermat line X0 + X1 = X2 + X3 = 0
        (([0, 0, 1, -1], [1, 1, 1, 1]), TangentLineInSurface),
    ], ids=["singular-section-point", "tangent-line-in-surface"])
    def test_refusals_at_a_fermat_point(self, axis, refusal):
        x = ProjPoint.rational([1, -1, 0, 0])
        with pytest.raises(refusal):
            tangent_residual(FERMAT, PlanePencil(Line.rational(*axis)), x)

    def embed(self, xy):
        x, y = xy
        return ProjPoint.rational([x, y, 1, 0])

    def axis_for(self, point):
        # a line inside X3 = 0 avoiding the point, so the pencil plane at the
        # point is X3 = 0 itself
        coords = point.rational_coords()
        j = next(i for i in range(3) if coords[i] != 0)
        others = [i for i in range(3) if i != j]
        base = []
        for i in others:
            vec = [0, 0, 0, 0]
            vec[i] = 1
            base.append(vec)
        return Line.rational(*base)

    def minus_two(self, curve_a, xy):
        """Chord-tangent oracle on y^2 = x^3 + a*x + b: P -> -2P."""
        x, y = Fraction(xy[0]), Fraction(xy[1])
        if y == 0:
            return None  # 2-torsion: the residual is the flex at infinity
        lam = (3 * x * x + curve_a) / (2 * y)
        rx = lam * lam - 2 * x
        ry = lam * (rx - x) + y
        return (rx, ry)

    def check_point(self, a, b, xy):
        surface = weierstrass_surface(a, b)
        point = self.embed(xy)
        assert evaluate(surface, point).is_zero
        pencil = PlanePencil(self.axis_for(point))
        got = tangent_residual(surface, pencil, point)
        expected = self.minus_two(Fraction(a), xy)
        if expected is None:
            assert got == ProjPoint.rational([0, 1, 0, 0])
        else:
            assert got == ProjPoint.rational([expected[0], expected[1], 1, 0])

    def test_two_torsion_on_pinned_curve(self):
        # y^2 z = x^3 - x z^2: tangent residuals of the 2-torsion are the origin
        for xy in [(-1, 0), (0, 0), (1, 0)]:
            self.check_point(-1, 0, xy)

    def test_flex_maps_to_itself(self):
        surface = weierstrass_surface(-1, 0)
        origin = ProjPoint.rational([0, 1, 0, 0])
        pencil = PlanePencil(self.axis_for(origin))
        assert tangent_residual(surface, pencil, origin) == origin

    def test_small_points_match_group_law(self):
        # small rational points on nearby Weierstrass curves
        cases = [
            (-1, 1, (1, 1)),
            (-1, 1, (0, 1)),
            (-1, 1, (-1, 1)),
            (-2, 1, (1, 0)),  # 2-torsion on another curve
            (-4, 4, (0, 2)),
            (-4, 4, (2, 2)),
            (-4, 4, (-2, 2)),
            (1, 1, (0, 1)),
            (3, 1, (0, 1)),
            (-7, 10, (1, 2)),
            (-7, 10, (2, 2)),
            (-7, 10, (3, 4)),
        ]
        assert len(cases) >= 10
        for a, b, xy in cases:
            self.check_point(a, b, xy)

    def test_double_root_and_incidence_randomized(self):
        rng = random.Random(17)
        done = 0
        while done < 100:
            x_int = random_point(rng)
            surface = random_surface_through(rng, [x_int])
            if surface is None:
                continue
            x = ProjPoint.rational(x_int)
            try:
                axis = Line.rational(random_point(rng), random_point(rng))
                pencil = PlanePencil(axis)
                n = plane_through(axis, x.primitive())
                residual = tangent_residual(surface, pencil, x)
            except (GeometryError, ZeroDivisorFound, ValueError):
                continue
            assert evaluate(surface, residual).is_zero
            assert sum(a * b for a, b in zip(n, residual.rational_coords())) == 0
            if residual != x:
                # the line through x and the residual is the tangent line:
                # its restricted cubic has a double root at x's parameter
                poly = expand_along_line(surface, x.rational_coords(), residual.rational_coords())
                assert poly(Fraction(0)) == 0
                assert poly.derivative()(Fraction(0)) == 0
            done += 1


class TestLineSection:
    def test_irreducible_cubic_modulus(self):
        # restriction of X0^3 - 2 X1^3 to the line (t, s, 0, 0) is t^3 - 2 s^3
        surface = CubicForm({(3, 0, 0, 0): 1, (0, 3, 0, 0): -2, (0, 0, 0, 3): 1})
        line = Line.rational([0, 1, 0, 0], [1, 0, 0, 0])
        scheme = line_section(surface, line)
        assert scheme.algebra.modulus == (-2, 0, 0, 1)
        assert scheme.degree == 3 and not scheme.non_reduced
        assert not scheme.known_parameters
        # the tautological point has coordinates (t, 1, 0, 0)
        norm = scheme.point.normalized()
        assert norm.coords[0] == scheme.algebra.element((0, 1))

    def test_fermat_split_section(self):
        line = Line.rational([1, -1, 0, 0], [0, 1, -1, 0])
        scheme = line_section(FERMAT, line)
        assert scheme.degree == 3
        assert scheme.fully_split and not scheme.non_reduced
        pts = {component_point(scheme.point, tau).key() for tau in scheme.known_parameters}
        expected = {
            ProjPoint.rational(v).key()
            for v in ([1, -1, 0, 0], [0, 1, -1, 0], [1, 0, -1, 0])
        }
        assert pts == expected

    def test_generic_fermat_line(self):
        scheme = line_section(FERMAT, Line.rational([1, 2, 0, 3], [0, 1, 1, -1]))
        assert scheme.degree == 3 and not scheme.known_parameters
        assert evaluate(FERMAT, scheme.point).is_zero

    @pytest.mark.parametrize("line, params, coords, json", [
        # the inflectional tangent of the Fermat cubic at (1, -1, 0, 0): a degree-1 section
        ([[1, -1, 0, 0], [2, -2, 1, 3]], ["0"], [((1,), 1), ((-1,), 1), ((0,), 1), ((0,), 1)], ["-1", "1", "0", "0"]),
        # the same line on basepoints that are not primitive and lead with a negative
        # entry: the section point keeps the chart's raw ratio
        ([["-2", "2", "0", "0"], ["1", "-1", "1/2", "3/2"]], ["0"], [((-2,), 1), ((2,), 1), ((0,), 1), ((0,), 1)],
         ["-1", "1", "0", "0"]),
        ([["-2", "2", "0", "0"], ["0", "1/2", "-1/2", "0"]], ["-1", "-4/5", "0"],
         [((-2, -2, 0), 1), ((4, 5, 0), 2), ((0, -1, 0), 2), ((0, 0, 0), 1)],
         {"modulus": ["0", "4/5", "9/5", "1"], "coords": [["-2", "-2"], ["2", "5/2"], ["0", "-1/2"], []]}),
    ], ids=["degree-1", "degree-1-raw-ratio", "degree-3-raw-ratio"])
    def test_section_point_representative(self, line, params, coords, json):
        # the values the section point had when it kept AlgElement coordinates
        scheme = line_section(FERMAT, line_from_json(line))
        point = scheme.point
        assert scheme.known_parameters == tuple(map(Fraction, params))
        assert [(c.num, c.den) for c in point.coords] == coords
        assert point.to_json() == json and scheme.to_json()["point"] == json
        modulus = scheme.algebra.coefficients
        if scheme.degree == 1:
            assert point.rational_coords() == tuple(Fraction(num[0], den) for num, den in coords)
            assert point.key() == (modulus, tuple((Fraction(v),) if v != "0" else () for v in json))
        else:
            with pytest.raises(ValueError, match=re.escape("(-2*t - 2 mod t^3 + 9/5*t^2 + 4/5*t) is not a rational")):
                point.rational_coords()
            assert point.key() == (modulus, tuple(tuple(map(Fraction, c)) for c in json["coords"]))

    def test_non_reduced_flagged(self):
        # tangent line at (-1, 0, 1) inside the Weierstrass plane: double contact
        surface = weierstrass_surface(-1, 0)
        scheme = line_section(surface, Line.rational([-1, 0, 1, 0], [0, 1, 0, 0]))
        assert scheme.non_reduced
        assert scheme.degree == 2

    def test_one_squarefree_part_per_section(self, monkeypatch):
        # the section's modulus is a radical, so its algebra is built without a second check
        calls = []
        original = algebra_module._radical
        monkeypatch.setattr(algebra_module, "_radical", lambda f: calls.append(f) or original(f))
        monkeypatch.setattr(geometry_module, "_radical", algebra_module._radical)
        lines = [(weierstrass_surface(-1, 0), Line.rational([-1, 0, 1, 0], [0, 1, 0, 0])),
                 (FERMAT, Line.rational([1, 2, 0, 3], [0, 1, 1, -1])),
                 (FERMAT, Line.rational([1, -1, 0, 0], [0, 1, -1, 0]))]
        for surface, line in lines:
            del calls[:]
            line_section(surface, line)
            assert len(calls) == 1

    def test_reparametrization_stability(self):
        rng = random.Random(18)
        done = 0
        while done < 100:
            surface = random_surface_through(rng, [])
            p, q = random_point(rng), random_point(rng)
            try:
                base = line_section(surface, Line.rational(p, q))
            except (EqualPoints, LineInSurface):
                continue
            pq = [a + b for a, b in zip(p, q)]
            for alt_pts in ((q, p), (p, pq), (pq, q)):
                try:
                    alt = line_section(surface, Line.rational(*alt_pts))
                except EqualPoints:
                    continue
                # degree and the non-reduced flag are parametrization-free;
                # known_parameters is best-effort and may differ
                assert alt.degree == base.degree
                assert alt.non_reduced == base.non_reduced
            done += 1

    def test_section_point_is_on_surface(self):
        rng = random.Random(19)
        done = 0
        while done < 100:
            surface = random_surface_through(rng, [])
            try:
                scheme = line_section(
                    surface, Line.rational(random_point(rng), random_point(rng))
                )
            except (EqualPoints, LineInSurface):
                continue
            assert evaluate(surface, scheme.point).is_zero
            assert scheme.degree in (1, 2, 3)
            done += 1


class TestLineSectionChart:
    """`line_section` restricts on the basepoints' primitive integer vectors and
    scales back to the chart of their raw coordinates; `fraction_line_section`
    runs the same construction on the raw Fractions.  Both must agree on every
    output byte, including the raw coordinates of the section point."""

    @staticmethod
    def raw(rng, v):
        """The integer vector v as raw JSON-like coordinates: scaled by a random
        nonzero rational, or with one entry replaced by a random Fraction."""
        if rng.random() < 0.2:
            v = list(v)
            v[rng.randrange(4)] = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
            return v
        lam = Fraction(rng.choice([1, -1, 2, -3, 5]), rng.choice([1, 1, 2, 3, 7]))
        return [lam * c for c in v]

    def test_matches_the_fraction_chart(self):
        rng = random.Random(62)
        kinds = Counter()
        for case in range(240):
            x, y = random_point(rng), random_point(rng)
            surface = random_surface_through(rng, [x, y])
            grad = None if surface is None else form_gradient(surface, x)
            if surface is None or not any(grad):
                continue
            i = next(i for i, g in enumerate(grad) if g)
            tangent = [Fraction(c) for c in random_point(rng)]  # moved into the tangent plane at x
            tangent[i] = 0
            tangent[i] = -sum(g * c for g, c in zip(grad, tangent)) / grad[i]
            lines = [(x, y), (y, x), (x, tangent), (x, random_point(rng)), (random_point(rng), random_point(rng))]
            if case % 10 == 0:  # a line inside the Fermat cubic, and an inflectional tangent of it
                lines = [(FERMAT, [1, -1, 0, 0], [0, 0, 1, -1]), (FERMAT, [1, -1, 0, 0], [2, -2, 1, 3])]
            for surface_and_line in lines:
                f, p, q = surface_and_line if len(surface_and_line) == 3 else (surface, *surface_and_line)
                try:
                    line = Line.rational(self.raw(rng, p), self.raw(rng, q))
                except (EqualPoints, ValueError):
                    continue
                outcomes = []
                for construct in (line_section, fraction_line_section):
                    try:
                        scheme = construct(f, line)
                        outcomes.append((scheme.to_json(), scheme.point.coords))
                    except GeometryError as exc:
                        outcomes.append((type(exc), str(exc)))
                assert outcomes[0] == outcomes[1]
                json = outcomes[0][0]
                kinds[(json["degree"], json["non_reduced"], len(json["known_parameters"])) if isinstance(json, dict) else json] += 1
        assert sum(kinds.values()) >= 1000
        for kind in [(1, True, 1), (2, True, 2), (3, False, 0), (3, False, 1), (3, False, 3), LineInSurface]:
            assert kinds[kind] >= 10, kinds


class TestTangentTriple:
    def test_split_case_matches_componentwise(self):
        line = Line.rational([1, -1, 0, 0], [0, 1, -1, 0])
        axis = Line.rational([1, 1, 1, 1], [1, 2, 4, 8])
        pencil = PlanePencil(axis)
        triple = tangent_triple(FERMAT, pencil, line)
        assert evaluate(FERMAT, triple.point).is_zero
        source = line_section(FERMAT, line)
        assert triple.fully_split
        for tau in source.known_parameters:
            direct = tangent_residual(FERMAT, pencil, component_point(source.point, tau))
            assert component_point(triple.point, tau) == direct

    #: A forced split as the constructions benchmark draws them: the section through
    #: (-1, 0, -1, 0) on X3 = 0 and (-4, -1, 0, 0) on X2 = 0 is fully split, and
    #: its tangent image has a coordinate nonzero at every root.
    FORCED_SPLIT = (
        CubicForm({(0, 0, 0, 3): 3, (0, 0, 1, 2): -1, (0, 0, 3, 0): -3, (0, 1, 0, 2): 3, (0, 2, 0, 1): -1,
                   (0, 2, 1, 0): 2, (1, 0, 0, 2): -3, (1, 0, 1, 1): -1, (1, 1, 0, 1): -2, (1, 1, 1, 0): -2,
                   (1, 2, 0, 0): -1, (2, 0, 0, 1): 1, (2, 0, 1, 0): 1, (2, 1, 0, 0): Fraction(-31, 4),
                   (3, 0, 0, 0): 2}),
        Line.rational([-1, 0, -1, 0], [-4, -1, 0, 0]),
        Line.rational([-4, 0, -4, -4], [-2, -3, 1, -3]),
    )

    def test_fully_split_section_runs_at_its_roots(self, monkeypatch):
        # three tangent processes at rational points and two splits, one per
        # known root but the last: no tangent pass over the algebra, so a
        # silent fall back to the lazy split order shows here
        surface, line, axis = self.FORCED_SPLIT
        pencil = PlanePencil(axis)
        scheme = line_section(surface, line)
        assert scheme.fully_split and scheme.degree == 3
        lazy = _tangent_on_components(surface, pencil, scheme.point).to_json()
        degrees, splits = [], []
        residual, split = geometry_module.tangent_residual, EtaleAlgebra.split
        monkeypatch.setattr(geometry_module, "tangent_residual",
                            lambda s, p, x: degrees.append(x.algebra.degree) or residual(s, p, x))
        monkeypatch.setattr(EtaleAlgebra, "split", lambda self, factor: splits.append(factor) or split(self, factor))
        triple = tangent_triple(surface, pencil, line)
        assert degrees == [1, 1, 1] and len(splits) == 2
        assert triple.point.to_json() == lazy
        for tau in scheme.known_parameters:
            assert component_point(triple.point, tau) == tangent_residual(surface, pencil, component_point(scheme.point, tau))

    @pytest.mark.parametrize(
        "axis, kind",
        [(([1, 1, 1, 1], [1, 2, 4, 8]), "ok"), (([1, -1, 0, 0], [0, 0, 0, 1]), "PointOnAxis")],
        ids=["no-unit-coordinate", "axis-through-a-component"],
    )
    def test_fully_split_fermat_section_falls_back_to_the_lazy_order(self, axis, kind):
        # no coordinate of the image is nonzero at every root, or one root
        # refuses: the lazy split order prints its raw representative, or
        # decides the refusal's kind and message
        line, pencil = Line.rational([1, -1, 0, 0], [0, 1, -1, 0]), PlanePencil(Line.rational(*axis))
        scheme = line_section(FERMAT, line)
        assert _tangent_at_roots(FERMAT, pencil, scheme.point, scheme.known_parameters) is None

        def outcome(run):
            try:
                return "ok", run().to_json()
            except (GeometryError, ZeroDivisorFound) as exc:
                return exc.kind if isinstance(exc, GeometryError) else "ZeroDivisorFound", str(exc)
        got = outcome(lambda: tangent_triple(FERMAT, pencil, line).point)
        assert got[0] == kind
        assert got == outcome(lambda: _tangent_on_components(FERMAT, pencil, scheme.point))

    def test_irreducible_case_on_surface(self):
        surface = CubicForm({(3, 0, 0, 0): 1, (0, 3, 0, 0): -Fraction(1, 2), (0, 0, 0, 3): 1})
        line = Line.rational([0, 1, 0, 0], [1, 0, 0, 0])
        axis = Line.rational([1, 1, 1, 1], [0, 1, 2, 3])
        triple = tangent_triple(surface, PlanePencil(axis), line)
        assert triple.degree == 3
        assert evaluate(surface, triple.point).is_zero
        assert rep_of(triple.point.coords[0]).degree <= 2

    def test_axis_meeting_section_is_rejected(self):
        # axis through one of the three section points: that component fails
        line = Line.rational([1, -1, 0, 0], [0, 1, -1, 0])
        axis = Line.rational([1, 0, -1, 0], [0, 0, 0, 1])
        with pytest.raises(PointOnAxis):
            tangent_triple(FERMAT, PlanePencil(axis), line)

    def test_zero_divisor_message_is_formatted_when_read(self, monkeypatch):
        # the fully split Fermat section raises before its first split; the
        # message is built on str(), which only the CLI boundary calls, and
        # reads as it did when it was built in the constructor
        scheme = line_section(FERMAT, Line.rational([1, -1, 0, 0], [0, 1, -1, 0]))
        pencil = PlanePencil(Line.rational([1, 1, 1, 1], [1, 2, 4, 8]))
        texts = []
        original = algebra_module._poly_text
        monkeypatch.setattr(algebra_module, "_poly_text", lambda c: texts.append(c) or original(c))
        with pytest.raises(ZeroDivisorFound) as info:
            tangent_residual(FERMAT, pencil, scheme.point)
        assert texts == []
        assert info.value.algebra == scheme.algebra and info.value.factor == (0, 1)
        assert str(info.value) == "zero divisor over Q[t]/(t^3 + 3/2*t^2 + 1/2*t): factor t"

    def test_zero_divisor_split_path(self, monkeypatch):
        # point over Q[t]/(t^3 - t) whose components are three Fermat points;
        # the chosen axis forces a zero divisor, a split at t and t-1, and a
        # CRT recombination that must agree componentwise
        algebra = EtaleAlgebra(Poly([0, -1, 0, 1]))
        x = ProjPoint(
            algebra,
            [
                1,
                algebra.element(Poly([-1, 0, 1])),
                algebra.element(Poly([0, Fraction(-1, 2), Fraction(-1, 2)])),
                algebra.element(Poly([0, Fraction(1, 2), Fraction(-1, 2)])),
            ],
        )
        assert evaluate(FERMAT, x).is_zero
        axis = Line.rational([1, -1, 2, -1], [3, 2, 3, 2])

        splits = []
        original = EtaleAlgebra.split

        def spy(self, factor):
            splits.append(factor)
            return original(self, factor)

        divisions = []
        original_quotient = algebra_module._quotient

        def divides_spy(f, g):
            divisions.append(g)
            return original_quotient(f, g)

        monkeypatch.setattr(EtaleAlgebra, "split", spy)
        monkeypatch.setattr(algebra_module, "_quotient", divides_spy)
        monkeypatch.setattr(algebra_module, "_radical", lambda f: pytest.fail("a split reran the squarefree check"))
        out = _tangent_on_components(FERMAT, PlanePencil(axis), x)
        assert splits, "expected the computation to hit a zero divisor"
        # per split: the factor check only; the components' moduli are squarefree
        # by construction and the point's reductions onto them need no check
        assert len(divisions) == len(splits)
        assert evaluate(FERMAT, out).is_zero
        for tau in (0, 1, -1):
            comp_in = component_point(x, tau)
            direct = tangent_residual(FERMAT, PlanePencil(axis), comp_in)
            comp_out = component_point(out, tau)
            assert comp_out == direct

    def test_non_split_output_is_the_tangent_residual_in_its_algebra(self, monkeypatch):
        # C9 only checks that such outputs lie on S; here the tangent process
        # is checked in the section's own algebra, by oracles that do not use
        # the library's evaluator: y lies in the plane through the axis and x,
        # the gradient at x vanishes on y, and F(x + t*y) has a double root at
        # t = 0 but does not vanish identically
        splits = []
        original = EtaleAlgebra.split

        def spy(self, factor):
            splits.append(factor)
            return original(self, factor)

        monkeypatch.setattr(EtaleAlgebra, "split", spy)
        rng = random.Random(43)
        done = 0
        while done < 30:
            surface = random_surface_through(rng, [])
            line = Line.rational(random_point(rng), random_point(rng))
            axis = Line.rational(random_point(rng), random_point(rng))
            del splits[:]
            try:
                triple = tangent_triple(surface, PlanePencil(axis), line)
            except (GeometryError, ZeroDivisorFound):
                continue
            if splits or triple.known_parameters or triple.degree < 2:
                continue
            algebra, f = triple.algebra, modulus_of(triple.algebra)
            x, y = reps(line_section(surface, line).point), reps(triple.point)
            rows = [[Poly((c,)) for c in p.rational_coords()] for p in (axis.p, axis.q)]
            rows += [x, y]
            det = Poly.zero()
            for perm in itertools.permutations(range(4)):
                inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(4), 2))
                det = det + (-1) ** inversions * prod((rows[r][perm[r]] for r in range(4)), start=Poly.one())
            assert (det % f).is_zero
            assert (sum((d * c for d, c in zip(form_gradient(surface, x), y)), Poly.zero()) % f).is_zero
            c0, c1, c2, c3 = expand_over(algebra, surface, x, y)
            assert c0.is_zero and c1.is_zero and not (c2.is_zero and c3.is_zero)
            done += 1


class TestCollinear:
    def test_examples(self):
        a = ProjPoint.rational([1, 0, 0, 0])
        b = ProjPoint.rational([0, 1, 0, 0])
        assert collinear(a, b, ProjPoint.rational([1, 1, 0, 0]))
        assert not collinear(a, b, ProjPoint.rational([0, 0, 1, 0]))


class TestFirstUnit:
    """The unit-or-split scan on numerators over Q[t]/(t^2 - 1), which is Q x Q:
    a + b*t is the numerator list [a, b]."""

    SPLIT = EtaleAlgebra(Poly([-1, 0, 1]))
    ZERO, ONE = [0, 0], [1, 0]

    def test_unit_after_zero_divisor_wins(self):
        values = [self.ZERO, [-1, 1], [2, 1]]
        assert _first_unit(values, self.SPLIT) == (2, [2, 1])

    def test_zero_divisor_without_unit_splits_at_first(self):
        values = [self.ZERO, [-1, 1], self.ZERO, [1, 1]]
        with pytest.raises(ZeroDivisorFound) as info:
            _first_unit(values, self.SPLIT)
        assert info.value.factor == (-1, 1) and info.value.algebra == self.SPLIT

    def test_all_zero_returns_none(self):
        assert _first_unit([self.ZERO] * 3, self.SPLIT) is None
        assert _first_unit([], self.SPLIT) is None
        assert _first_unit([0, 0]) is None

    def test_scan_stops_at_first_unit(self):
        read = []

        def values():
            for v in ([1, 1], self.ONE, None):
                read.append(v)
                yield v

        assert _first_unit(values(), self.SPLIT) == (1, self.ONE)
        assert len(read) == 2


class TestNormalization:
    def test_last_unit_coordinate_scaled(self):
        pt = ProjPoint.rational([2, 4, 0, 0]).normalized()
        assert pt.rational_coords() == (Fraction(1, 2), 1, 0, 0)

    def test_no_unit_coordinate_raises(self):
        split = EtaleAlgebra(Poly([0, -1, 1]) * Poly([1]))  # t^2 - t
        pt = ProjPoint(split, [(0, 1), (1, -1), 0, 0])
        with pytest.raises(ZeroDivisorFound):
            pt.normalized()

    def test_key_without_a_unit_coordinate_is_the_raw_representative(self):
        # over Q[t]/(t^2 - t), (t, 2t, 0, 0) is (0, 0, 0, 0) at t = 0: no coordinate
        # is a unit, so the point has no normal form, and its key, equality and hash
        # read the raw coordinates
        split = EtaleAlgebra((0, -1, 1))
        pt, same = (ProjPoint(split, [(0, 1), (0, 2), 0, 0]) for _ in range(2))
        with pytest.raises(ZeroDivisorFound) as info:
            pt.normalized()
        assert info.value.factor == (0, 1)
        assert pt.key() == (split.coefficients, ((0, 1), (0, 2), (), ()))
        assert pt == same and hash(pt) == hash(same) and len({pt, same}) == 1
        assert pt != ProjPoint(split, [(0, 1), (0, 3), 0, 0])
        assert pt.to_json() == {"modulus": ["0", "-1", "1"], "coords": [["0", "1"], ["0", "2"], [], []]}

    def test_one_elimination_per_normalized_algebra_point(self, monkeypatch):
        # a linear last unit coordinate is tested and inverted by one synthetic
        # division and no elimination; a quadratic one by exactly one Bareiss
        # elimination, for its inverse only
        algebra = EtaleAlgebra(Poly([-2, 0, 0, 1]))
        f, t = modulus_of(algebra), Poly((0, 1))
        eliminations = []
        original = algebra_module._eliminate

        def spy(rows):
            eliminations.append(rows)
            return original(rows)

        monkeypatch.setattr(algebra_module, "_eliminate", spy)
        pt = ProjPoint(algebra, [t, t * t + 1, 3, t + 2])
        norm = pt.normalized()
        assert len(eliminations) == 0
        assert norm.to_json() == {
            "modulus": ["-2", "0", "0", "1"],
            "coords": [["1/5", "2/5", "-1/5"], ["0", "0", "1/2"], ["6/5", "-3/5", "3/10"], ["1"]],
        }
        assert all(c * (t + 2) % f == d for c, d in zip(reps(norm), reps(pt)))
        pt = ProjPoint(algebra, [t, t + 2, 3, t * t + 1])
        norm = pt.normalized()
        assert len(eliminations) == 1
        assert norm.to_json() == {
            "modulus": ["-2", "0", "0", "1"],
            "coords": [["-2/5", "1/5", "2/5"], ["0", "1"], ["3/5", "6/5", "-3/5"], ["1"]],
        }
        assert all(c * (t * t + 1) % f == d for c, d in zip(reps(norm), reps(pt)))

    @pytest.mark.parametrize("modulus", [(0, 1), (Fraction(-3, 2), 1)], ids=["Q", "t-3/2"])
    def test_integer_point_matches_one_built_from_normalized_coordinates(self, modulus):
        # a from_integers point keeps only its primitive vector and builds its
        # algebra coordinates on first use; read in either order, everything
        # must match a point built eagerly from the normalized coordinates
        algebra = EtaleAlgebra(modulus)
        vectors = ([2, -4, 6, 0], [0, 0, -3, 0], [Fraction(1, 2), 0, Fraction(-2, 3), 5], [-7, 1, 0, -2], [3, 0, 0, 9])
        for values in vectors:
            last = next(Fraction(v) for v in reversed(values) if v)
            normalized = [Fraction(v) / last for v in values]
            eager = ProjPoint(algebra, normalized)
            key = (algebra.coefficients, tuple((q,) if q else () for q in normalized))
            text = [str(q) for q in normalized]
            early = ProjPoint.from_integers(values, algebra)
            assert early.coords == eager.coords
            for point in (early, ProjPoint.from_integers(values, algebra), ProjPoint(algebra, values).normalized()):
                assert point.normalized() is point
                assert point.rational_coords() == eager.rational_coords() == tuple(normalized)
                assert point.key() == eager.key() == key
                assert hash(point) == hash(eager)
                assert point == eager and eager == point
                assert point.to_json() == eager.to_json() == text
                assert repr(point) == repr(eager)
                assert point.coords == eager.coords

    def test_primitive_int_vectors_pass_through(self):
        # enumeration hands over canonical primitive vectors: they come back as
        # the same tuple; any other vector is divided by its signed content
        for v in [(1, -2, 3, 4), (0, 0, 5, -1), (0, 1, 0, 0)]:
            assert geometry_module._primitive(v) is v
            assert ProjPoint.from_integers(v).primitive() is v
        assert geometry_module._primitive((-1, 2, 0, 0)) == (1, -2, 0, 0)
        assert geometry_module._primitive([0, -2, 4, 6]) == (0, 1, -2, -3)

    def test_rational_json_matches_fraction_formatting(self):
        # the JSON is formatted off the primitive vector with no Fraction; it
        # must print v / last exactly as fraction_to_string(Fraction(v, last))
        rng = random.Random(53)
        for case in range(400):
            bound = 10**18 + 7 if case % 3 == 0 else 12
            values = [rng.choice([0, rng.randint(-bound, bound)]) for _ in range(4)]
            if not any(values):
                continue
            last = next(v for v in reversed(values) if v)
            want = [fraction_to_string(Fraction(v, last)) for v in values]
            assert ProjPoint.from_integers(values).to_json() == want
            assert ProjPoint.rational(values).to_json() == want
            fractions = [Fraction(v, rng.randint(1, bound)) for v in values]
            last = next(q for q in reversed(fractions) if q)
            assert ProjPoint.rational(fractions).to_json() == [fraction_to_string(q / last) for q in fractions]

    def test_rational_points_refuse_bools(self):
        with pytest.raises(TypeError, match="True"):
            ProjPoint.rational([True, -1, 0, 0])
        with pytest.raises(TypeError, match="False"):
            ProjPoint.rational([1, -1, 0, False])

    def test_json_roundtrip(self):
        pt = ProjPoint.rational([2, -4, 6, 0])
        assert point_from_json(pt.to_json()) == pt
        algebra = EtaleAlgebra(Poly([-2, 0, 0, 1]))
        apt = ProjPoint(algebra, [(0, 1), 1, 0, 1])
        assert point_from_json(apt.to_json()) == apt
        line = Line.rational([1, 0, 0, 0], [0, 1, 2, 3])
        round_tripped = line_from_json(line.to_json())
        assert round_tripped.p == line.p and round_tripped.q == line.q


class TestRationalFromJson:
    """JSON rationals are ints or "num/den" strings, -?[0-9]+(/[0-9]+)? with a nonzero den."""

    @pytest.mark.parametrize("text, value", [("0", 0), ("-7", -7), ("007", 7), ("-3/4", Fraction(-3, 4)),
                                             ("6/8", Fraction(3, 4)), ("-0/5", 0), (str(10**40), 10**40)])
    def test_accepted(self, text, value):
        assert _rational_from_json(text) == value and type(_rational_from_json(text)) is Fraction

    @pytest.mark.parametrize("value", ["1.5", "1e3", "1_000", " 3/4 ", "3/4\n", "+3", "3/-4", "--3", "/3", "3/",
                                       "", "\u0663", "1e200000", "1e999999999", 1.5, True, None, [1]])
    def test_refused_by_a_message_that_names_the_value(self, value):
        start = time.perf_counter()
        with pytest.raises(ValueError) as info:
            _rational_from_json(value)
        assert time.perf_counter() - start < 0.05  # no integer is built from an exponent
        assert str(info.value) == f'expected an integer or a "num/den" string, got {value!r}'

    def test_zero_denominator_and_long_values_are_named_truncated(self):
        with pytest.raises(ValueError, match="^zero denominator in '3/00'$"):
            _rational_from_json("3/00")
        for value in ("1" * 1000 + "e9", ["1"] * 1000):
            with pytest.raises(ValueError) as info:
                _rational_from_json(value)
            assert len(str(info.value)) < 100 and "..." in str(info.value)


class TestIntegerKernel:
    """Rational points run on primitive integer vectors; the algebra path is the reference.

    A point over Q[t]/(t(t - 1)) = Q x Q is a pair of rational points, one
    at t = 0 and one at t = 1, and its constructions run on packed numerator
    polynomials.  Each component must equal the integer-path output.
    """

    SPLIT = EtaleAlgebra(from_roots([0, 1]))

    def lift(self, a, b):
        """The point over SPLIT with the integer vectors a at t = 0 and b at t = 1."""
        return ProjPoint(self.SPLIT, [Poly([u, v - u]) for u, v in zip(a, b)])

    @staticmethod
    def scaled(rng, point):
        k = rng.choice([-3, -2, 2, 5])
        return [k * v for v in point.primitive()]

    def test_value_at_on_ints_is_exact(self):
        # on ints the kernel is s*F, for s the positive rational that makes
        # F's coefficients coprime integers; Fractions give s*F as well
        rng = random.Random(51)
        for case in range(120):
            if case % 2:
                terms = {e: Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for e in MONOMIALS}
                terms[MONOMIALS[case % 20]] = Fraction(1, 7)
                surface = CubicForm(terms)
            else:
                surface = random_surface_through(rng, [])
            s = form_scale(surface)
            pt = [rng.randint(-10**6, 10**6) for _ in range(4)]
            exact = sum(c * monomial_value(e, pt) for e, c in surface.terms.items())
            value = surface.value_at(pt)
            assert type(value) is int and value == s * exact
            assert surface.value_at([Fraction(v) for v in pt]) == s * exact
            grad = surface.gradient_at(pt)
            assert all(type(g) is int for g in grad)
            assert list(grad) == [s * g for g in form_gradient(surface, pt)]
            assert sum(g * v for g, v in zip(grad, pt)) == 3 * value  # Euler's relation

    def test_third_point_matches_split_algebra(self):
        # two different secants of one surface: (x, y), and (z, r) with z
        # their third point and r a tangent residual off the line xy
        rng = random.Random(52)
        done = 0
        for _ in range(100):
            instance = secant_instance(rng)
            if instance is None:
                continue
            surface, x, y = instance
            axis = Line.rational(random_point(rng), random_point(rng))
            try:
                z = third_point(surface, x, y)
                r = tangent_residual(surface, PlanePencil(axis), x)
                w = third_point(surface, z, r)
                lifted = third_point(
                    surface,
                    self.lift(self.scaled(rng, x), self.scaled(rng, z)),
                    self.lift(self.scaled(rng, y), self.scaled(rng, r)),
                )
            except (GeometryError, ZeroDivisorFound, ValueError):
                continue
            assert component_point(lifted, 0) == z
            assert component_point(lifted, 1) == w
            assert z.normalized() is z and z.primitive() == z.normalized().primitive()
            done += 1
        assert done >= 90

    def test_tangent_residual_matches_split_algebra(self):
        rng = random.Random(53)
        done = 0
        for _ in range(100):
            instance = secant_instance(rng)
            if instance is None:
                continue
            surface, x, y = instance
            pencil = PlanePencil(Line.rational(random_point(rng), random_point(rng)))
            try:
                want = [tangent_residual(surface, pencil, p) for p in (x, y)]
                lifted = tangent_residual(
                    surface, pencil, self.lift(self.scaled(rng, x), self.scaled(rng, y))
                )
            except (GeometryError, ZeroDivisorFound, ValueError):
                continue
            assert [component_point(lifted, tau) for tau in (0, 1)] == want
            done += 1
        assert done >= 90

    def test_algebra_points_compute_without_algelement_arithmetic(self, monkeypatch):
        # AlgElements are values with no ring operations, built only at the input boundary:
        # with the lines, pencils and component points built, every construction at points
        # of degree 1-3, and every print, key and comparison of its points, builds none,
        # and a second run gives the same outcome
        forced = CubicForm({(0, 0, 0, 3): 3, (0, 0, 1, 2): -1, (0, 0, 3, 0): -3, (0, 1, 0, 2): 3,
                            (0, 2, 0, 1): -1, (0, 2, 1, 0): 2, (1, 0, 0, 2): -3, (1, 0, 1, 1): -1,
                            (1, 1, 0, 1): -2, (1, 1, 1, 0): -2, (1, 2, 0, 0): -1, (2, 0, 0, 1): 1,
                            (2, 0, 1, 0): 1, (2, 1, 0, 0): Fraction(-31, 4), (3, 0, 0, 0): 2})
        cases = [  # irreducible, through a rational point, forced split, fully split with no unit
            # coordinate (twice, the second time on basepoints that are not primitive), and a
            # degree-1 section: the inflectional tangent of the Fermat cubic at (1, -1, 0, 0)
            (FERMAT, [1, 2, 0, 0], [0, 0, 1, 3], [1, 1, 1, 1], [1, 2, 4, 8]),
            (CubicForm.diagonal(1, 2, -3, 5), [-1, 1, 1, 0], [1, 2, 0, 3], [0, 1, 1, 1], [1, 0, 2, 1]),
            (forced, [-1, 0, -1, 0], [-4, -1, 0, 0], [-4, 0, -4, -4], [-2, -3, 1, -3]),
            (FERMAT, [1, -1, 0, 0], [0, 1, -1, 0], [1, 1, 1, 1], [1, 2, 4, 8]),
            (FERMAT, ["-2", "2", "0", "0"], ["0", "1/2", "-1/2", "0"], [1, 1, 1, 1], [1, 2, 4, 8]),
            (FERMAT, ["-2", "2", "0", "0"], ["1", "-1", "1/2", "3/2"], [1, 1, 1, 1], [1, 2, 4, 8]),
        ]
        other = PlanePencil(Line.rational([0, 1, 2, 3], [1, 0, 1, -1]))
        inputs = []
        for surface, p, q, a, b in cases:
            line = line_from_json([p, q])
            points = [line_section(surface, line).point]
            algebra, tau = points[0].algebra, line_section(surface, line).known_parameters[:1]
            if tau and algebra.degree == 3:  # its degree-2 component, as `_tangent_on_components` builds it
                _, sub, _ = algebra.split((-tau[0].numerator, tau[0].denominator))
                points.append(ProjPoint._kept(sub, ([sub._remainder(num) for num in points[0]._nums[0]], 1)))
            inputs.append((surface, line, PlanePencil(Line.rational(a, b)), points))

        def outcome(run):
            try:
                out = run()
            except (GeometryError, ZeroDivisorFound) as exc:
                return type(exc).__name__, str(exc)
            point = out if isinstance(out, ProjPoint) else out.point
            return "ok", out.to_json(), point.key(), hash(point)

        def constructions():
            out = []
            for surface, line, pencil, points in inputs:
                out.append(outcome(lambda: line_section(surface, line)))
                out.append(outcome(lambda: tangent_triple(surface, pencil, line)))
                for x in points:
                    out.append(outcome(lambda: tangent_residual(surface, pencil, x)))
                    y = _tangent_on_components(surface, pencil, x)  # splits where the residual refuses
                    w = _tangent_on_components(surface, other, y)
                    out += [outcome(lambda: third_point(surface, x, y)), outcome(lambda: third_point(surface, x, w)),
                            outcome(lambda: third_point(surface, w, y)), outcome(lambda: x), outcome(lambda: y),
                            outcome(lambda: w), ("==", x == y, y == w, w == x)]
            return out

        def refuse(*args):
            raise AssertionError("an AlgElement was built")

        arithmetic = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__", "inverse",
                      "is_unit", "__bool__", "_coerce")
        assert not any(hasattr(AlgElement, name) for name in arithmetic)
        assert not any(hasattr(EtaleAlgebra, name) for name in ("zero", "one", "generator"))
        with monkeypatch.context() as patch:
            patch.setattr(AlgElement, "__init__", refuse)
            got = constructions()
        assert sum(kind == "ok" for kind, *_ in got) >= 50
        assert constructions() == got

    def test_from_integers_is_the_normalized_point(self):
        rng = random.Random(54)
        for _ in range(100):
            v = random_point(rng, height=50)
            k = rng.choice([-6, -1, 3])
            point = ProjPoint.from_integers([k * c for c in v])
            assert point.normalized() is point
            coords = point.rational_coords()
            last = max(i for i in range(4) if v[i])
            assert coords[last] == 1 and all(c * v[last] == vi for c, vi in zip(coords, v))
            assert point.key() == ProjPoint.rational(v).normalized().key()
            assert point.to_json() == ProjPoint.rational(v).to_json()
            g = gcd(*v) * (1 if next(c for c in v if c) > 0 else -1)
            assert point.primitive() == tuple(c // g for c in v)
        for build in (ProjPoint.from_integers, ProjPoint.rational):
            with pytest.raises(ValueError, match="all coordinates are zero"):
                build([0, 0, 0, 0])
