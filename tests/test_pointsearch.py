import itertools
import random
from fractions import Fraction
from math import gcd, lcm

import pytest

import zerocycles.pointsearch as pointsearch
from conftest import MONOMIALS, evaluate, modulus_of, random_surface_through, rep_of, secant_instance
from zerocycles.algebra import AlgElement
from zerocycles.geometry import CubicForm, Line, LineInSurface, ProjPoint, line_section, point_from_json
from zerocycles.pointsearch import (
    SOURCE_ENUMERATED,
    SOURCE_TANGENT,
    SOURCE_THIRD,
    _tangent_direction_residuals,
    enumerate_rational,
    rational_record,
    saturate,
)

FERMAT = CubicForm.fermat()


def seed(coords):
    return rational_record(ProjPoint.rational(coords), "seed")


class TestEnumerate:
    def test_fermat_height_one(self):
        records = enumerate_rational(FERMAT, 1)
        keys = {r.point.key() for r in records}
        expected = {
            ProjPoint.rational(v).key()
            for v in (
                [1, -1, 0, 0],
                [1, 0, -1, 0],
                [1, 0, 0, -1],
                [0, 1, -1, 0],
                [0, 1, 0, -1],
                [0, 0, 1, -1],
            )
        }
        assert expected <= keys
        # plus the three points of shape (1, -1, -1, 1): 9 in total
        assert len(keys) == 9
        assert all(r.height == 1 and r.source == SOURCE_ENUMERATED for r in records)

    def test_pointless_surface_gives_empty_list(self):
        # x^3 + 2y^3 + 4z^3 + 9w^3 has no small solutions
        surface = CubicForm.diagonal(1, 2, 4, 9)
        assert enumerate_rational(surface, 2) == []

    def test_every_point_rechecked_by_evaluation(self):
        rng = random.Random(25)
        for _ in range(20):
            a, b, c, d = (rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(4))
            surface = CubicForm.diagonal(a, b, c, d)
            for record in enumerate_rational(surface, 3):
                assert evaluate(surface, record.point).is_zero
                primitive = record.point.primitive()
                assert record.height == max(abs(v) for v in primitive)

    def test_deterministic_order(self):
        first = enumerate_rational(FERMAT, 2)
        second = enumerate_rational(FERMAT, 2)
        assert [r.to_json() for r in first] == [r.to_json() for r in second]

    def test_closed_under_symmetries_of_the_form(self):
        # the Fermat form is symmetric under all coordinate permutations
        records = enumerate_rational(FERMAT, 2)
        keys = {r.point.key() for r in records}
        for record in records:
            coords = record.point.rational_coords()
            for perm in itertools.permutations(range(4)):
                permuted = [coords[i] for i in perm]
                assert ProjPoint.rational(permuted).key() in keys

    def test_height_bound_validated(self):
        with pytest.raises(ValueError):
            enumerate_rational(FERMAT, 0)


def box_points(surface, height):
    """Brute-force reference: every canonical primitive integer zero in the box."""
    denom = lcm(*(c.denominator for c in surface.terms.values()))
    terms = [(exp, int(c * denom)) for exp, c in surface.terms.items()]
    found = []
    for coords in itertools.product(range(-height, height + 1), repeat=4):
        if gcd(*coords) != 1 or next(v for v in coords if v) < 0:
            continue
        total = 0
        for exp, coeff in terms:
            for c, e in zip(coords, exp):
                coeff *= c**e
            total += coeff
        if total == 0:
            found.append(coords)
    return found


def _random_form(rng, sparse):
    monomials = rng.sample(MONOMIALS, 4) if sparse else MONOMIALS
    return CubicForm(
        {e: Fraction(rng.randint(-4, 4), 1 if sparse else rng.randint(1, 5)) for e in monomials}
        | {monomials[0]: 1}
    )


_rng = random.Random(31)
ENUMERATION_FORMS = {
    "fermat": FERMAT,
    "diagonal": CubicForm.diagonal(1, 2, -3, 5),
    "diagonal-rational": CubicForm.diagonal(Fraction(1, 2), -4, Fraction(3, 7), 1),
    "x0x1x2": CubicForm({(1, 1, 1, 0): 1}),
    "x0x3^2": CubicForm({(1, 0, 0, 2): 1}),
    "x1^3": CubicForm({(0, 3, 0, 0): 1}),
    "x0^2x3-x3^3": CubicForm({(2, 0, 0, 1): 1, (0, 0, 0, 3): -1}),
    # binomial fibres c3*d^3 = -c0: with c3 = -2 or -7 not every c0 is divisible;
    # at a = b = c = 0 the fibre is c3*d^3 = 0, whose one candidate d = 0 is no point
    "diagonal-c3=-2": CubicForm.diagonal(1, 1, 1, -2),
    "diagonal-c3=-7": CubicForm.diagonal(7, -1, 1, -7),
    # c3 = 0: no fibre is binomial, each is scanned or vanishes
    "diagonal-c3=0": CubicForm.diagonal(1, 2, -3, 0),
    # binomial fibres only where a = 0 (c1 = a^2 otherwise)
    "x0x1x2+x3^3+x0^2x3": CubicForm({(1, 1, 1, 0): 1, (0, 0, 0, 3): 1, (2, 0, 0, 1): 1}),
    # c1 = 0 but c2 = c: binomial only where c = 0, and d = -c is a root
    "x0x1^2+x2x3^2+x3^3": CubicForm({(1, 2, 0, 0): 1, (0, 0, 1, 2): 1, (0, 0, 0, 3): 1}),
    **{f"dense{i}": _random_form(_rng, sparse=False) for i in range(3)},
    **{f"sparse{i}": _random_form(_rng, sparse=True) for i in range(3)},
}


class TestEnumerationKernel:
    @pytest.mark.parametrize("name", sorted(ENUMERATION_FORMS))
    def test_matches_brute_force_box(self, name):
        surface = ENUMERATION_FORMS[name]
        box = box_points(surface, 5)
        for height in range(1, 6):
            records = enumerate_rational(surface, height)
            coords = [r.point.primitive() for r in records]
            assert coords == sorted(v for v in box if max(map(abs, v)) <= height)
            assert [r.height for r in records] == [max(map(abs, v)) for v in coords]


class TestRationalKernel:
    def test_enumeration_builds_no_algebra_element(self, monkeypatch):
        # enumerated points stay primitive integer vectors through the surface
        # check, the record and the JSON output
        built = []
        original = AlgElement.__init__

        def spy(self, *args):
            built.append(args)
            original(self, *args)

        monkeypatch.setattr(AlgElement, "__init__", spy)
        records = enumerate_rational(FERMAT, 6)
        texts = [r.to_json() for r in records]
        assert len(records) == 165 and len(texts) == 165
        assert built == []


def reference_residuals(surface, point, direction_height):
    """Tangent residuals by Fraction evaluation at the normalized point."""
    coords = point.normalized().rational_coords()
    grad = surface.gradient_at(coords)
    box = range(-direction_height, direction_height + 1)
    for v in itertools.product(box, repeat=4):
        if gcd(*v) != 1 or next(x for x in v if x) < 0:
            continue
        if sum(g * x for g, x in zip(grad, v)) != 0:
            continue
        pairs = itertools.combinations(range(4), 2)
        if all(coords[i] * v[j] == coords[j] * v[i] for i, j in pairs):
            continue
        s0 = surface.value_at(coords)
        plus = surface.value_at([a + b for a, b in zip(coords, v)])
        minus = surface.value_at([a - b for a, b in zip(coords, v)])
        c2 = (plus + minus) / 2 - s0
        c3 = surface.value_at([Fraction(x) for x in v])
        residual = [c3 * a - c2 * b for a, b in zip(coords, v)]
        if any(residual):
            yield ProjPoint.rational(residual)


def _residual_cases():
    """(surface, point, direction height): random secant surfaces, and
    enumerated points on the enumeration forms, whose gradients have more
    low-height tangent directions."""
    rng = random.Random(32)
    cases = []
    while len(cases) < 24:
        instance = secant_instance(rng)
        if instance is not None:
            surface, x, y = instance
            cases += [(surface, x, 2), (surface, y, 2)]
    for surface in ENUMERATION_FORMS.values():
        cases += [(surface, r.point, 1) for r in enumerate_rational(surface, 2)[:6]]
    return cases


class TestTangentResidualKernel:
    def test_matches_fraction_reference(self):
        total = 0
        for surface, point, height in _residual_cases():
            residuals = _tangent_direction_residuals(surface, point.primitive(), height)
            got = [r.key() for r in residuals]
            want = [r.key() for r in reference_residuals(surface, point, height)]
            assert got == want
            total += len(got)
        assert total > 100

    @pytest.mark.parametrize("name", ["diagonal-rational", "sparse1"])
    def test_saturation_agrees_with_fraction_reference(self, monkeypatch, name):
        surface = ENUMERATION_FORMS[name]
        seeds = enumerate_rational(surface, 2)[:3]
        got = saturate(surface, seeds, rounds=2, max_points=80)
        monkeypatch.setattr(
            pointsearch,
            "_tangent_direction_residuals",
            lambda form, p, h: reference_residuals(form, ProjPoint.rational(p), h),
        )
        want = saturate(surface, seeds, rounds=2, max_points=80)
        assert [r.to_json() for r in got] == [r.to_json() for r in want]
        assert any(r.source == SOURCE_TANGENT for r in got)


class TestPointKey:
    @pytest.mark.parametrize("name", ["diagonal-rational", "sparse1"])
    def test_matches_rep_formula_on_enumerated_and_saturated_points(self, name):
        # the key of a rational point is built from its normalized numerators
        # and denominator; it must equal the Poly-based formula it replaces
        # (so equality, hashing and saturate's sort order are unchanged), also
        # on points reloaded from JSON with nothing cached
        def rep_key(point):
            pt = point.normalized()
            return (modulus_of(point.algebra).coeffs, tuple(rep_of(c).coeffs for c in pt.coords))

        surface = ENUMERATION_FORMS[name]
        enumerated = enumerate_rational(surface, 2)
        saturated = saturate(surface, enumerated[:3], rounds=2, max_points=80)
        points = [r.point for r in enumerated + saturated]
        points += [point_from_json(p.to_json()) for p in points]
        points += [ProjPoint.rational([-3 * c for c in p.rational_coords()]) for p in points[:20]]
        assert any(r.source != SOURCE_ENUMERATED for r in saturated)
        for point in points:
            assert point.key() == rep_key(point)
            assert hash(point.key()) == hash(rep_key(point))
        assert sorted(points, key=ProjPoint.key) == sorted(points, key=rep_key)
        assert [p.key() for p in sorted(points, key=ProjPoint.key)] == sorted(map(rep_key, points))


class TestDegree3FromLine:
    """A rational line cuts a point of degree <= 3 out of the surface."""

    def test_secant_line_is_split(self):
        scheme = line_section(FERMAT, Line.rational([1, -1, 0, 0], [0, 1, -1, 0]))
        assert scheme.degree == 3

    def test_line_in_surface_rejected(self):
        with pytest.raises(LineInSurface):
            line_section(FERMAT, Line.rational([1, -1, 0, 0], [0, 0, 1, -1]))

    def test_tangent_line_gives_short_record(self):
        # tangent line at a surface point: double contact, residual degree <= 2
        from conftest import weierstrass_surface

        surface = weierstrass_surface(-1, 0)
        scheme = line_section(surface, Line.rational([-1, 0, 1, 0], [0, 1, 0, 0]))
        assert scheme.degree <= 2


class TestSaturate:
    def test_two_point_seed_contains_third(self):
        seeds = [seed([1, -1, 0, 0]), seed([0, 1, -1, 0])]
        out = saturate(FERMAT, seeds, rounds=1)
        keys = {r.point.key() for r in out}
        assert ProjPoint.rational([1, 0, -1, 0]).key() in keys
        assert any(r.source == SOURCE_THIRD for r in out)

    def test_single_seed_grows_by_tangents_only(self):
        rng = random.Random(26)
        grown = None
        while grown is None:
            x = [rng.randint(-3, 3) for _ in range(4)]
            if not any(x):
                continue
            surface = random_surface_through(rng, [x])
            if surface is None:
                continue
            out = saturate(surface, [seed(x)], rounds=1)
            if len(out) > 1:
                grown = out
        assert all(r.source in ("seed", SOURCE_TANGENT) for r in grown)

    def test_monotone_and_idempotent(self):
        seeds = [seed([1, -1, 0, 0]), seed([0, 1, -1, 0]), seed([0, 0, 1, -1])]
        once = saturate(FERMAT, seeds, rounds=1)
        twice = saturate(FERMAT, seeds, rounds=2)
        assert {r.point.key() for r in once} <= {r.point.key() for r in twice}
        refixed = saturate(FERMAT, once, rounds=0)
        assert [r.point.key() for r in refixed] == [r.point.key() for r in once]

    def test_every_output_on_surface(self):
        seeds = [seed([1, -1, 0, 0]), seed([1, 0, -1, 0])]
        for record in saturate(FERMAT, seeds, rounds=2, max_points=60):
            assert evaluate(FERMAT, record.point).is_zero

    def test_off_surface_seed_rejected(self):
        with pytest.raises(ValueError):
            saturate(FERMAT, [seed([1, 0, 0, 0])], rounds=1)

    def test_negative_rounds_rejected(self):
        with pytest.raises(ValueError, match="rounds must be >= 0, got -1"):
            saturate(FERMAT, [seed([1, -1, 0, 0])], rounds=-1)

    def test_size_cap(self):
        seeds = [seed([1, -1, 0, 0]), seed([0, 1, -1, 0]), seed([0, 0, 1, -1])]
        out = saturate(FERMAT, seeds, rounds=3, max_points=10)
        assert len(out) <= 10


class TestScaleInvariance:
    """Point search sees a surface only through its primitive integer cubic,
    so F, F/6 and (5/7)*F give the same points in the same order."""

    @staticmethod
    def cases():
        rng = random.Random(62)
        cases = []
        while len(cases) < 4:  # non-integral forms through two points, as the bench builds
            instance = secant_instance(rng)
            if instance is not None:
                cases.append((instance[0], [instance[1], instance[2]]))
        for name in ("fermat", "diagonal", "diagonal-rational"):
            surface = ENUMERATION_FORMS[name]
            cases.append((surface, [r.point for r in enumerate_rational(surface, 2)[:4]]))
        return cases

    def test_enumerate_and_saturate_ignore_the_scale(self):
        for surface, points in self.cases():
            forms = [CubicForm({e: k * c for e, c in surface.terms.items()}) for k in (1, Fraction(1, 6), Fraction(5, 7))]
            assert len({form.integer_terms() for form in forms}) == 1
            enumerated = [[r.to_json() for r in enumerate_rational(form, 2)] for form in forms]
            assert enumerated[0] == enumerated[1] == enumerated[2]
            seeds = [rational_record(p, "seed") for p in points]
            saturated = [[r.to_json() for r in saturate(form, seeds, rounds=2, max_points=80)] for form in forms]
            assert len(saturated[0]) > len(seeds)
            assert saturated[0] == saturated[1] == saturated[2]


class TestRecordJson:
    def test_record_shape(self):
        record = enumerate_rational(FERMAT, 1)[0]
        payload = record.to_json()
        assert set(payload) == {"point", "degree", "height", "source"}
        assert payload["degree"] == 1
