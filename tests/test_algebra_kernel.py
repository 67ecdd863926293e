"""Differential tests of the fraction-free kernel on `AlgElement` numerators and
the integer polynomial kernel beneath it.

Every operation is checked against the `Poly` reference of `conftest`: the
same computation done on coefficient polynomials over Q followed by an
explicit remainder modulo the modulus, and Euclid's gcd over Q for the
primitive pseudo-remainder gcd over Z.  The moduli are the oracle `Poly`s the
algebras were built from, not read back from them.  The form evaluator, on
algebra points and on the packed numerators geometry runs it on, is checked
the same way, against a monomial-by-monomial expansion of P = s*F.
"""

import math
import random
from fractions import Fraction
from functools import reduce

import pytest

from conftest import (
    MONOMIALS,
    Poly,
    combined,
    element_json,
    form_gradient,
    form_scale,
    form_value,
    from_roots,
    is_squarefree,
    monomial_value,
    normal_form,
    poly_gcd,
    poly_xgcd,
    primitive,
    reduced,
    rep_of,
    squarefree_part,
)
from zerocycles import algebra as algebra_module
from zerocycles.algebra import (
    AlgElement,
    EtaleAlgebra,
    _convolve,
    _gcd,
    _quotient,
    _radical,
)
from zerocycles.geometry import CubicForm, ProjPoint, _pack, _unpack


def random_fraction(rng, height=9):
    return Fraction(rng.randint(-height, height), rng.choice([1, 1, 2, 3, 4, 6, 7]))


def random_poly(rng, max_degree):
    return Poly(random_fraction(rng) for _ in range(rng.randint(0, max_degree + 1)))


def random_algebra(rng, degree, reducible=False):
    """(algebra, modulus) for a monic squarefree modulus; non-integer coefficients are common."""
    while True:
        if reducible:
            roots = set()
            while len(roots) < degree:
                roots.add(random_fraction(rng, 5))
            modulus = from_roots(roots)
        else:
            modulus = Poly([random_fraction(rng) for _ in range(degree)] + [1])
        if is_squarefree(modulus):
            return EtaleAlgebra(modulus), modulus


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
    assert any(alg.scale != 1 for alg, _ in algs)
    for alg, f in algs:
        lowered = Poly([Fraction(c, alg.scale) for c in alg.tail] + [1])
        assert lowered == f
        assert alg.modulus == primitive(f) == alg.tail + (alg.scale,)


def test_integer_polynomial_kernel_matches_poly_oracle():
    # gcd, divisibility, squarefree part and split cofactor over Z, against
    # Euclid over Q, on moduli of degree 1-3 with scale != 1 and on reducible
    # ones; a shares a factor with f whenever f splits
    rng = random.Random(12)
    seen = {"scale != 1": 0, "proper gcd": 0, "divides": 0, "does not divide": 0, "not squarefree": 0}
    for case in range(300):
        degree = 1 + case % 3
        alg, f = random_algebra(rng, degree, reducible=degree > 1 and case % 2 == 0)
        seen["scale != 1"] += alg.scale != 1
        a = random_poly(rng, 3)
        if degree > 1 and case % 2 == 0:  # split: its roots are among the n/d drawn
            roots = {Fraction(n, d) for n in range(-5, 6) for d in (1, 2, 3, 4, 6, 7) if not f(Fraction(n, d))}
            a = a * from_roots([rng.choice(sorted(roots))])
        g = poly_gcd(a, f)
        assert _gcd(primitive(a), primitive(f)) == list(primitive(g))
        assert _gcd(primitive(f), primitive(a)) == list(primitive(g))
        if 1 <= g.degree < degree:
            seen["proper gcd"] += 1
            sub_a, sub_b, _ = alg.split(primitive(g))
            assert sub_a.modulus == primitive(g) and sub_b.modulus == primitive(f // g)
        for d in (g, f, random_poly(rng, 2), from_roots([random_fraction(rng, 5)])):
            if d.is_zero:
                continue
            quotient = _quotient(primitive(f), primitive(d))
            assert (quotient is not None) == d.divides(f)
            if quotient is not None:
                seen["divides"] += 1
                assert quotient == list(primitive(f // d))
            else:
                seen["does not divide"] += 1
        square = from_roots([random_fraction(rng, 5)])
        p = f * square * square
        seen["not squarefree"] += not is_squarefree(p)
        assert _radical(primitive(p)) == list(primitive(squarefree_part(p)))
    assert min(seen.values()) >= 60, seen


def test_element_reduces_like_poly_remainder():
    rng, algs = algebras(2, 90)
    for alg, f in algs:
        for _ in range(10):
            p = random_poly(rng, 2 * alg.degree + 1)
            a = alg.element(p)
            assert_normalized(a)
            assert rep_of(a) == p % f


def test_ring_operations_match_poly_reference():
    # the product kernel, one `_convolve` and one `_remainder` on the numerators
    # over the product of the denominators, against the Poly product mod f
    rng, algs = algebras(3, 90)
    for alg, f in algs:
        for _ in range(10):
            a = alg.element(random_poly(rng, alg.degree - 1))
            b = alg.element(random_poly(rng, alg.degree - 1))
            ra, rb = rep_of(a), rep_of(b)
            cases = [
                (reduced(alg, _convolve(a.num, b.num), a.den * b.den), (ra * rb) % f),
                (reduced(alg, _convolve(_convolve(a.num, a.num), a.num), a.den**3), (ra * ra * ra) % f),
            ]
            for got, want in cases:
                assert_normalized(got)
                assert rep_of(got) == want


def test_inverse_and_zero_divisors_match_poly_gcd():
    # the unit test `_factor` and the inverse `_inverse` of a numerator vector:
    # zero has the modulus as its factor and no inverse, a zero divisor the gcd
    # with f, and a unit the Bezout coefficient of the Poly reference
    rng, algs = algebras(4, 90)
    seen_zero_divisor = False
    for alg, f in algs:
        for _ in range(10):
            if alg.degree > 1 and rng.random() < 0.3:
                # a multiple of a linear factor: zero divisor when f splits
                root = rng.choice([r for r in range(-6, 7)])
                a = alg.element(Poly((-root, 1)) * random_poly(rng, 1))
            else:
                a = alg.element(random_poly(rng, alg.degree - 1))
            if a.is_zero:
                assert alg._factor(a.num) == alg.modulus and alg._inverse(a.num) is None
                continue
            num = Poly(a.num)
            g = poly_gcd(num, f)
            assert alg._factor(a.num) == primitive(g)
            if g.degree > 0:
                seen_zero_divisor = True
                assert alg._inverse(a.num) is None
                continue
            inv, den = alg._inverse(a.num)
            _, u, _ = poly_xgcd(num, f)
            assert Poly(Fraction(x, den) for x in inv) == u % f
            assert (num * Poly(inv)) % f == Poly((den,))
    assert seen_zero_divisor


@pytest.mark.parametrize("root", [0, 3, Fraction(-3, 2), Fraction(5, 7)], ids=["0", "3", "-3/2", "5/7"])
def test_degree_one_matches_fraction_arithmetic(root):
    # Q[t]/(t - a) is Q with t = a: the one product, unit test and inverse of
    # every degree must agree with Fraction arithmetic on the constant values
    alg = EtaleAlgebra((-root, 1))
    rng = random.Random(11)
    pairs = [(0, 0), (1, 0), (0, 1)] + [(random_fraction(rng), random_fraction(rng)) for _ in range(40)]
    elements = []
    for c0, c1 in pairs:
        a = alg.element((c0, c1))
        assert_normalized(a)
        assert Fraction(a.num[0], a.den) == c0 + c1 * root
        elements.append(a)
    for a, b in zip(elements, elements[1:] + elements[:1]):
        x, y = Fraction(a.num[0], a.den), Fraction(b.num[0], b.den)
        product = reduced(alg, _convolve(a.num, b.num), a.den * b.den)
        assert Fraction(product.num[0], product.den) == x * y
        assert (len(alg._factor(a.num)) == 1) == (x != 0)
        inv = alg._inverse(a.num)
        if x:
            assert Fraction(inv[0][0], inv[1]) == Fraction(1, a.num[0])
        else:
            assert inv is None
    assert any(not a.num[0] for a in elements)


def test_builder_matches_the_rational_constructor():
    # `EtaleAlgebra._of` skips the parsing and the squarefree check, not the
    # normalization: on a primitive squarefree modulus with a positive leading
    # coefficient it gives the algebra of the monic rational modulus
    rng = random.Random(13)
    built = 0
    while built < 240:
        degree = 1 + built % 3
        f = Poly([rng.randint(-30, 30) for _ in range(degree)] + [rng.randint(1, 12)])
        if not is_squarefree(f):
            continue
        g = primitive(f)
        fast, public = EtaleAlgebra._of(g), EtaleAlgebra(f.monic())
        assert (fast.scale, fast.tail) == (public.scale, public.tail) and fast.modulus == g
        assert fast == public and hash(fast) == hash(public) and repr(fast) == repr(public)
        built += 1


def test_split_divides_once_and_reductions_match_reduce_mod(monkeypatch):
    # a split runs one divisibility test and no squarefree check, and reducing
    # onto a component is the remainder of the Poly reference
    g, h = from_roots([Fraction(1)]), from_roots([Fraction(0), Fraction(-2, 3)])
    alg = EtaleAlgebra(g * h)
    rng = random.Random(11)
    elements = [alg.element(random_poly(rng, 4)) for _ in range(4)]
    checks = []
    original = algebra_module._quotient
    monkeypatch.setattr(algebra_module, "_quotient", lambda f, d: checks.append(d) or original(f, d))
    monkeypatch.setattr(algebra_module, "_radical", lambda f: pytest.fail("a split reran the squarefree check"))
    sub_a, sub_b, _ = alg.split(primitive(g))
    assert checks == [list(primitive(g))]
    for sub, modulus in ((sub_a, g), (sub_b, h)):
        got = [reduced(sub, list(x.num), x.den) for x in elements]
        assert got == [sub.element(rep_of(x) % modulus) for x in elements]
    stranger = from_roots([Fraction(5)])
    for factor in (stranger, g * h, Poly.one()):
        with pytest.raises(ValueError):
            alg.split(primitive(factor))


def test_reduce_mod_and_crt_match_poly_reference():
    # reductions onto the split's components and its CRT recombination, on
    # the Poly reference: remainders modulo the oracle factors g and h
    rng = random.Random(5)
    for _ in range(60):
        degree = rng.choice([2, 3])
        roots = rng.sample(sorted({Fraction(n, d) for n in range(-5, 6) for d in (1, 2, 3)}), degree)
        g, h = from_roots(roots[:1]), from_roots(roots[1:])
        alg = EtaleAlgebra(g * h)
        sub_a, sub_b, combine = alg.split(primitive(g))
        a = alg.element(random_poly(rng, 2 * degree))
        ra, rb = (reduced(sub, list(a.num), a.den) for sub in (sub_a, sub_b))
        for got, modulus in ((ra, g), (rb, h)):
            assert_normalized(got)
            assert rep_of(got) == rep_of(a) % modulus
        [back] = combined(combine, alg, [ra], [rb])
        assert_normalized(back)
        assert back == a
        x = sub_a.element(random_poly(rng, 0))
        y = sub_b.element(random_poly(rng, degree - 2))
        [both] = combined(combine, alg, [x], [y])
        assert rep_of(both) % g == rep_of(x)
        assert rep_of(both) % h == rep_of(y)


def test_equality_hash_zero_and_json_agree_with_poly_view():
    rng, algs = algebras(6, 60)
    for alg, f in algs:
        elems = [alg.element(random_poly(rng, alg.degree - 1)) for _ in range(6)]
        elems.append(alg.element(0))
        elems.append(alg.element(rep_of(elems[0]) * 1))
        for a in elems:
            assert a.is_zero == rep_of(a).is_zero
            assert element_json(a) == {"modulus": f.to_strings(), "rep": rep_of(a).to_strings()}
            assert alg.element(Poly(element_json(a)["rep"])) == a
            for b in elems:
                assert (a == b) == (rep_of(a) == rep_of(b))
                if a == b:
                    assert hash(a) == hash(b)
            if rep_of(a).degree <= 0:  # equal to the rational's element, not to the rational
                assert a == alg.element(rep_of(a).coeff(0)) and a != rep_of(a).coeff(0)
                assert not any(a.num[1:]) and Fraction(a.num[0], a.den) == rep_of(a).coeff(0)


def test_point_key_matches_poly_normalization():
    # over a split algebra a coordinate is often a multiple of one linear factor
    # of the modulus, so that some points have no unit coordinate and some have
    # every coordinate vanish on one component
    rng, algs = algebras(7, 90)
    for alg, f in algs:
        roots = {Fraction(n, d) for n in range(-5, 6) for d in (1, 2, 3, 4, 6, 7) if f(Fraction(n, d)) == 0}
        factors = [Poly((-r, 1)) for r in sorted(roots)] + [Poly.one()] * 2
        coords = [alg.element(random_poly(rng, alg.degree - 1) * rng.choice(factors)) for _ in range(4)]
        if all(c.is_zero for c in coords):
            continue
        reps = [rep_of(c) for c in coords]
        if reduce(poly_gcd, reps, f).degree > 0:
            # every coordinate vanishes on one component: no point
            with pytest.raises(ValueError, match="all coordinates vanish on the component"):
                ProjPoint(alg, coords)
            continue
        units = [i for i, r in enumerate(reps) if not r.is_zero and poly_gcd(r, f).degree == 0]
        if units:
            _, u, _ = poly_xgcd(reps[units[-1]], f)
            normal = [(u * r) % f for r in reps]
        else:  # no unit coordinate: the normal forms on the components, recombined
            normal = normal_form(reps, f)
        assert ProjPoint(alg, coords).key() == (f.coeffs, tuple(r.coeffs for r in normal))


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
        f = g * h
        seen["scale != 1"] += alg.scale != 1
        factor = rng.choice([g, h, Poly.one(), Poly.one()])
        a = alg.element(factor * random_poly(rng, alg.degree - 1))
        if a.is_zero:
            continue
        common = poly_gcd(rep_of(a), f)
        assert alg._factor(a.num) == primitive(common)
        if common.degree:
            seen["zero divisor"] += 1
            assert alg._inverse(a.num) is None
            continue
        seen["unit"] += 1
        inv, den = alg._inverse(a.num)
        assert Poly(Fraction(x, den) for x in inv) == poly_xgcd(Poly(a.num), f)[1] % f
    assert min(seen.values()) >= 60


def test_crt_idempotent_matches_bezout_formula():
    # the Bezout recombination a + g * ((u * (b - a)) mod h), u = g^-1 mod h, and
    # the element formula x + e * (y - x) that combine ran before it worked on
    # integer numerators over one denominator (x, y the lifts, e = g * u mod f),
    # on vectors of three elements at once
    rng = random.Random(9)
    scaled = 0
    for _ in range(150):
        alg, g, h = split_algebra(rng)
        scaled += alg.scale != 1
        sub_a, sub_b, combine = alg.split(primitive(g))
        u = poly_xgcd(g, h)[1]
        e = (g * u) % (g * h)
        xs = [sub_a.element(random_poly(rng, 3)) for _ in range(3)]
        ys = [sub_b.element(random_poly(rng, 3)) for _ in range(3)]
        for got, a, b in zip(combined(combine, alg, xs, ys), xs, ys):
            assert_normalized(got)
            assert rep_of(got) == g * ((u * (rep_of(b) - rep_of(a))) % h) + rep_of(a)
            x, y = reduced(alg, list(a.num), a.den), reduced(alg, list(b.num), b.den)
            assert rep_of(got) == (rep_of(x) + e * (rep_of(y) - rep_of(x))) % (g * h)
            assert reduced(sub_a, list(got.num), got.den) == a and reduced(sub_b, list(got.num), got.den) == b
        # vectors of two lengths, or of a component's wrong degree, are refused
        with pytest.raises(ValueError):
            combined(combine, alg, xs, ys[:2])
        if g.degree != h.degree:
            with pytest.raises(ValueError):
                combined(combine, alg, ys, xs)
    assert scaled >= 50


def test_form_on_algebra_points_matches_monomial_expansion():
    # value_at and gradient_at give P = s*F on the Poly representatives of algebra
    # points, and so mod f; the oracle expands every monomial on the same Polys
    rng, algs = algebras(10, 90)
    for case, (alg, f) in enumerate(algs):
        for _ in range(3):
            surface = random_form(rng)
            s = form_scale(surface)
            coords = [alg.element(random_poly(rng, alg.degree - 1)) for _ in range(4)]
            if case % 4 == 0:  # a rational coordinate is read in the algebra
                coords[case % 3] = random_fraction(rng)
            reps = [rep_of(alg.element(c)) for c in coords]
            value = surface.value_at(reps)
            assert value % f == (s * form_value(surface, reps)) % f
            grad = surface.gradient_at(reps)
            for got, want in zip(grad, form_gradient(surface, reps)):
                assert got % f == (Poly.zero() + s * want) % f
            euler = sum((d * r for d, r in zip(grad, reps)), Poly.zero())
            assert euler == 3 * value


def test_form_on_fractions_is_exact_and_a_fraction():
    # Fractions run the same straight line and give P = s*F; the value comes back
    # a Fraction even when it is integral, so t / value never turns into a float
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
        s = form_scale(surface)
        value = surface.value_at(pt)
        assert type(value) is Fraction
        assert value == s * sum(c * monomial_value(e, pt) for e, c in surface.terms.items())
        grad = surface.gradient_at(pt)
        assert all(type(d) is Fraction for d in grad)
        assert list(grad) == [s * d for d in form_gradient(surface, pt)]


class TestKroneckerKernel:
    """Geometry evaluates forms at a point of degree 2-3 as the library does here:
    `_pack` puts each coordinate's integer numerator polynomial into one int at
    t = 2^bits, `value_at`/`gradient_at` run the straight-line evaluator on the
    packed ints, and `_unpack` reads the unreduced value back as signed
    base-2^bits digits.  `bits` comes from a proven digit bound plus a sign bit;
    these inputs put the digits at the top of that bound, and are checked digit
    for digit against the monomial-by-monomial `form_value`/`form_gradient` of
    P = s*F on the numerator Polys, unreduced."""

    MODULI = [
        Poly([Fraction(-5, 3), 1]),  # degree 1, scale 3
        Poly([0, 1]),
        Poly([-2, 0, 1]),  # irreducible
        Poly([Fraction(1, 4), Fraction(-3, 2), 1]),  # reducible (roots 1/2 and 1), scale 4
        Poly([-2, 0, 0, 1]),
        from_roots([0, 1, -1]),  # reducible
        Poly([Fraction(1, 3), Fraction(-1, 2), Fraction(2, 5), 1]),  # scale 30
    ]

    def check(self, surface, alg, coords):
        # P's weight and its largest partial's, from F's coefficients: sum |s * c|,
        # and the max over m of sum |s * c| * e_m
        s, n = form_scale(surface), alg.degree
        weight = sum(abs(s * c) for c in surface.terms.values())
        partial = max(sum(abs(s * c) * e[m] for e, c in surface.terms.items()) for m in range(4))
        den = math.lcm(*(c.den for c in coords))
        nums = [[x * (den // c.den) for x in c.num] for c in coords]
        reps = [Poly(num) for num in nums]
        values, bits = _pack(nums, int(weight), 3)
        assert Poly(_unpack(surface.value_at(values), bits, 3 * n - 2)) == s * form_value(surface, reps)
        values, bits = _pack(nums, int(partial), 2)
        for got, want in zip(surface.gradient_at(values), form_gradient(surface, reps)):
            assert Poly(_unpack(got, bits, 2 * n - 1)) == s * want

    def test_digits_at_the_bound(self):
        # every coordinate M * (1 + t + ... + t^(n-1)) and every coefficient of one
        # sign: the middle digits of the value reach sum|c| * N * M^3, N up to
        # n^2, and those of the partials sum|q| * N * M^2, N up to n
        rng = random.Random(71)
        for f in self.MODULI:
            alg = EtaleAlgebra(f)
            for bits in (1, 2, 31, 64, 200):
                top = 2**bits - 1
                for sign in (1, -1):
                    terms = rng.sample(MONOMIALS, rng.randint(1, 20))
                    surface = CubicForm({e: sign * rng.randint(1, 9) for e in terms})
                    coords = [alg.element([s * top] * alg.degree) for s in (1, 1, sign, 1)]
                    self.check(surface, alg, coords)
                    self.check(CubicForm({e: 1 for e in MONOMIALS}), alg, coords)

    def test_random_wide_numerators(self):
        # numerators of 0 to 200 bits with mixed signs and denominators, forms of
        # 1 to 20 terms, a zero coordinate and single-coefficient coordinates
        rng = random.Random(72)
        for case in range(120):
            f = self.MODULI[case % len(self.MODULI)]
            alg = EtaleAlgebra(f)
            surface = CubicForm(
                {e: Fraction(rng.randint(-10**6, 10**6) or 1, rng.choice([1, 1, 3, 10**9])) for e in
                 rng.sample(MONOMIALS, 1 + case % 20)})
            coords = []
            for i in range(4):
                num = [rng.choice([-1, 1]) * rng.getrandbits(rng.randint(0, 200)) for _ in range(alg.degree)]
                if i == case % 4 and case % 3 == 0:
                    num = [0] * alg.degree
                elif i == (case + 1) % 4 and case % 2:
                    num = [0] * alg.degree
                    num[rng.randrange(alg.degree)] = rng.getrandbits(150) + 1
                coords.append(alg.element([Fraction(x, rng.choice([1, 1, 7, 2**61 - 1])) for x in num]))
            if not any(coords):
                continue
            self.check(surface, alg, coords)

    def test_pack_unpack_round_trip_at_the_widest_digits(self):
        # digits of +-(2^(B-1) - 1) are the widest `_unpack` reads back at width B;
        # `_pack` at weight 1 and degree 1 packs them at exactly that width
        rng = random.Random(73)
        for f in self.MODULI:
            alg = EtaleAlgebra(f)
            for width in (2, 3, 17, 64, 201):
                edge = 2 ** (width - 1) - 1
                digits = [[rng.choice([edge, -edge, 0, rng.randint(-edge, edge)]) for _ in range(alg.degree)]
                          for _ in range(4)]
                digits[0][-1] = rng.choice([edge, -edge])
                values, bits = _pack(digits, 1, 1)
                assert bits == width
                for d, value in zip(digits, values):
                    assert value == sum(x * 2 ** (width * j) for j, x in enumerate(d))
                    assert _unpack(value, bits, alg.degree) == d
                stacked = sum(x * 2 ** (width * j) for j, x in enumerate(sum(digits, [])))
                assert _unpack(stacked, width, 4 * alg.degree) == sum(digits, [])
