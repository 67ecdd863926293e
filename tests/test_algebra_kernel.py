"""Differential tests of the fraction-free `AlgElement` kernel.

Every operation is checked against the `Poly` reference: the same
computation done on coefficient polynomials over Q followed by an explicit
remainder modulo the modulus.  The form evaluator on algebra points is
checked the same way, against a monomial-by-monomial expansion.
"""

import math
import random
from fractions import Fraction

import pytest

from conftest import (
    MONOMIALS,
    element_json,
    form_gradient,
    form_value,
    from_roots,
    monomial_value,
    poly_xgcd,
)
from zerocycles.algebra import (
    AlgElement,
    EtaleAlgebra,
    Poly,
    ZeroDivisorFound,
    crt_combine,
    crt_combiner,
    is_squarefree,
    poly_gcd,
)
from zerocycles.geometry import CubicForm, ProjPoint


def random_fraction(rng, height=9):
    return Fraction(rng.randint(-height, height), rng.choice([1, 1, 2, 3, 4, 6, 7]))


def random_poly(rng, max_degree):
    return Poly(random_fraction(rng) for _ in range(rng.randint(0, max_degree + 1)))


def random_algebra(rng, degree, reducible=False):
    """Monic squarefree modulus; non-integer coefficients are common."""
    while True:
        if reducible:
            roots = set()
            while len(roots) < degree:
                roots.add(random_fraction(rng, 5))
            modulus = from_roots(roots)
        else:
            modulus = Poly([random_fraction(rng) for _ in range(degree)] + [1])
        if is_squarefree(modulus):
            return EtaleAlgebra(modulus)


def algebras(seed, count):
    rng = random.Random(seed)
    out = []
    for i in range(count):
        degree = 1 + i % 3
        out.append(random_algebra(rng, degree, reducible=degree > 1 and i % 2 == 0))
    return rng, out


def assert_normalized(a: AlgElement):
    assert len(a.num) == a.algebra.degree
    assert all(isinstance(x, int) for x in a.num)
    assert a.den > 0
    assert math.gcd(a.den, *a.num) == 1


def test_scale_and_tail_encode_the_modulus():
    rng, algs = algebras(1, 60)
    assert any(alg.scale != 1 for alg in algs)
    for alg in algs:
        f = alg.modulus
        lowered = Poly([Fraction(c, alg.scale) for c in alg.tail] + [1])
        assert lowered == f


def test_element_reduces_like_poly_remainder():
    rng, algs = algebras(2, 90)
    for alg in algs:
        for _ in range(10):
            p = random_poly(rng, 2 * alg.degree + 1)
            a = alg.element(p)
            assert_normalized(a)
            assert a.rep == p % alg.modulus


def test_ring_operations_match_poly_reference():
    rng, algs = algebras(3, 90)
    for alg in algs:
        f = alg.modulus
        for _ in range(10):
            a = alg.element(random_poly(rng, alg.degree - 1))
            b = alg.element(random_poly(rng, alg.degree - 1))
            q = random_fraction(rng)
            k = rng.randint(-5, 5)
            cases = [
                (a + b, a.rep + b.rep),
                (a - b, a.rep - b.rep),
                (-a, -a.rep),
                (a * b, (a.rep * b.rep) % f),
                (a * q, a.rep * q),
                (q * a, a.rep * q),
                (a * k, a.rep * k),
                (a + q, a.rep + q),
                (q - a, Poly((q,)) - a.rep),
                (a * a * a, (a.rep * a.rep * a.rep) % f),
            ]
            for got, want in cases:
                assert_normalized(got)
                assert got.rep == want


def test_inverse_and_zero_divisors_match_poly_gcd():
    rng, algs = algebras(4, 90)
    seen_zero_divisor = False
    for alg in algs:
        f = alg.modulus
        for _ in range(10):
            if alg.degree > 1 and rng.random() < 0.3:
                # a multiple of a linear factor: zero divisor when f splits
                root = rng.choice([r for r in range(-6, 7)])
                a = alg.element(Poly((-root, 1)) * random_poly(rng, 1))
            else:
                a = alg.element(random_poly(rng, alg.degree - 1))
            if a.is_zero:
                with pytest.raises(ZeroDivisionError):
                    a.inverse()
                continue
            g = poly_gcd(a.rep, f)
            assert a.is_unit() == (g.degree == 0)
            if g.degree > 0:
                seen_zero_divisor = True
                assert a.zero_divisor_factor() == g
                with pytest.raises(ZeroDivisorFound) as info:
                    a.inverse()
                assert info.value.factor == g
                continue
            inv = a.inverse()
            assert_normalized(inv)
            _, u, _ = poly_xgcd(a.rep, f)
            assert inv.rep == u % f
            assert ((inv.rep * a.rep) % f) == Poly.one()
            assert (inv * inv).rep == (u * u) % f
    assert seen_zero_divisor


def test_projection_checks_divisibility_once_and_matches_reduce_mod():
    alg = EtaleAlgebra(from_roots([Fraction(0), Fraction(1), Fraction(-2, 3)]))
    sub_a, sub_b = alg.split(from_roots([Fraction(1)]))
    rng = random.Random(11)
    elements = [alg.element(random_poly(rng, 4)) for _ in range(4)]
    for sub in (sub_a, sub_b):
        project = sub.projection_from(alg)
        assert [project(x) for x in elements] == [x.reduce_mod(sub) for x in elements]
    stranger = EtaleAlgebra(from_roots([Fraction(5)]))
    with pytest.raises(ValueError):
        stranger.projection_from(alg)
    with pytest.raises(ValueError):
        elements[0].reduce_mod(stranger)


def test_reduce_mod_and_crt_match_poly_reference():
    rng = random.Random(5)
    for _ in range(60):
        degree = rng.choice([2, 3])
        roots = rng.sample(sorted({Fraction(n, d) for n in range(-5, 6) for d in (1, 2, 3)}), degree)
        alg = EtaleAlgebra(from_roots(roots))
        sub_a, sub_b = alg.split(from_roots(roots[:1]))
        a = alg.element(random_poly(rng, 2 * degree))
        ra, rb = a.reduce_mod(sub_a), a.reduce_mod(sub_b)
        for got, sub in ((ra, sub_a), (rb, sub_b)):
            assert_normalized(got)
            assert got.rep == a.rep % sub.modulus
        back = crt_combine(alg, ra, rb)
        assert_normalized(back)
        assert back == a
        x = sub_a.element(random_poly(rng, 0))
        y = sub_b.element(random_poly(rng, degree - 2))
        both = crt_combine(alg, x, y)
        assert both.rep % sub_a.modulus == x.rep
        assert both.rep % sub_b.modulus == y.rep


def test_equality_hash_zero_and_json_agree_with_poly_view():
    rng, algs = algebras(6, 60)
    for alg in algs:
        f = alg.modulus
        elems = [alg.element(random_poly(rng, alg.degree - 1)) for _ in range(6)]
        elems.append(alg.zero)
        elems.append(alg.element(elems[0].rep * 1))
        for a in elems:
            assert a.is_zero == a.rep.is_zero
            assert element_json(a) == {"modulus": f.to_strings(), "rep": a.rep.to_strings()}
            assert alg.element(Poly(element_json(a)["rep"])) == a
            for b in elems:
                assert (a == b) == (a.rep == b.rep)
                if a == b:
                    assert hash(a) == hash(b)
            if a.rep.degree <= 0:
                assert a == a.rep.coeff(0)
                assert a.constant_value() == a.rep.coeff(0)


def test_point_key_matches_poly_normalization():
    rng, algs = algebras(7, 60)
    for alg in algs:
        f = alg.modulus
        coords = [alg.element(random_poly(rng, alg.degree - 1)) for _ in range(4)]
        if all(c.is_zero for c in coords):
            continue
        point = ProjPoint(alg, coords)
        reps = [c.rep for c in coords]
        units = [i for i, r in enumerate(reps) if not r.is_zero and poly_gcd(r, f).degree == 0]
        if units:
            _, u, _ = poly_xgcd(reps[units[-1]], f)
            reps = [(u * r) % f for r in reps]
        else:
            # no unit coordinate: the key keeps the raw representatives
            with pytest.raises(ZeroDivisorFound):
                point.normalized()
        assert point.key() == (f.coeffs, tuple(r.coeffs for r in reps))


def split_algebra(rng):
    """(algebra, g, h): a degree-2 or 3 modulus g*h with monic coprime factors
    whose coefficients are often non-integral (scale != 1)."""
    while True:
        dg = rng.choice([1, 1, 2])
        dh = 1 if dg == 2 else rng.choice([1, 2])
        g = Poly([random_fraction(rng) for _ in range(dg)] + [1])
        h = Poly([random_fraction(rng) for _ in range(dh)] + [1])
        if is_squarefree(g * h):
            return EtaleAlgebra(g * h), g, h


def random_form(rng):
    terms = {e: random_fraction(rng) for e in MONOMIALS if rng.random() < 0.6}
    return CubicForm(terms or {MONOMIALS[0]: 1})


def test_unit_matrix_is_singular_iff_the_gcd_is_nontrivial():
    # multiples of a factor of a split modulus are the zero divisors; the
    # inverse of a unit is the Bezout coefficient of the Poly reference
    rng = random.Random(8)
    seen = {"unit": 0, "zero divisor": 0, "scale != 1": 0}
    for _ in range(300):
        alg, g, h = split_algebra(rng)
        f = alg.modulus
        seen["scale != 1"] += alg.scale != 1
        factor = rng.choice([g, h, Poly.one(), Poly.one()])
        a = alg.element(factor * random_poly(rng, alg.degree - 1))
        if a.is_zero:
            continue
        common = poly_gcd(a.rep, f)
        assert a.is_unit() == (common.degree == 0)
        if common.degree:
            seen["zero divisor"] += 1
            with pytest.raises(ZeroDivisorFound) as info:
                a.inverse()
            assert info.value.factor == common
            continue
        seen["unit"] += 1
        inv = a.inverse()
        assert_normalized(inv)
        assert inv.rep == poly_xgcd(a.rep, f)[1] % f
    assert min(seen.values()) >= 60


def test_crt_idempotent_matches_bezout_formula():
    # the old recombination: a + g * ((u * (b - a)) mod h), u = g^-1 mod h
    rng = random.Random(9)
    for _ in range(150):
        alg, g, h = split_algebra(rng)
        sub_a, sub_b = alg.split(g)
        combine = crt_combiner(alg, sub_a, sub_b)
        u = poly_xgcd(g, h)[1]
        for _ in range(3):
            a = sub_a.element(random_poly(rng, 3))
            b = sub_b.element(random_poly(rng, 3))
            got = combine(a, b)
            assert_normalized(got)
            assert got.rep == g * ((u * (b.rep - a.rep)) % h) + a.rep
            assert got == crt_combine(alg, a, b)
            assert got.reduce_mod(sub_a) == a and got.reduce_mod(sub_b) == b
        with pytest.raises(ValueError):
            combine(b, a)


def test_form_on_algebra_points_matches_monomial_expansion():
    # value_at and gradient_at reduce once per output; the oracle expands
    # every monomial on the Poly representatives and reduces at the end
    rng, algs = algebras(10, 90)
    for case, alg in enumerate(algs):
        f = alg.modulus
        for _ in range(3):
            surface = random_form(rng)
            coords = [alg.element(random_poly(rng, alg.degree - 1)) for _ in range(4)]
            if case % 4 == 0:  # a rational coordinate is read in the algebra
                coords[case % 3] = random_fraction(rng)
            reps = [alg.element(c).rep for c in coords]
            value = surface.value_at(coords)
            assert_normalized(value)
            assert value.rep == (Poly.zero() + form_value(surface, reps)) % f
            grad = surface.gradient_at(coords)
            for got, want in zip(grad, form_gradient(surface, reps)):
                assert_normalized(got)
                assert got.rep == (Poly.zero() + want) % f
            euler = sum((d * alg.element(c) for d, c in zip(grad, coords)), alg.zero)
            assert euler == 3 * value


def test_form_on_fractions_is_exact_and_a_fraction():
    # denominators are cleared onto the integer path; the value comes back a
    # Fraction even when it is integral, so t / value never turns into a float
    rng = random.Random(11)
    for case in range(300):
        if case % 2:
            surface = random_form(rng)
        else:
            surface = CubicForm({e: rng.randint(-3, 3) for e in MONOMIALS} | {MONOMIALS[case % 20]: 1})
        if case % 3:
            pt = [random_fraction(rng) for _ in range(4)]
        else:
            pt = [Fraction(rng.randint(-9, 9)) for _ in range(4)]
        value = surface.value_at(pt)
        assert type(value) is Fraction
        assert value == sum(c * monomial_value(e, pt) for e, c in surface.terms.items())
        grad = surface.gradient_at(pt)
        assert all(type(d) is Fraction for d in grad)
        assert list(grad) == form_gradient(surface, pt)
