"""Exact constructions on cubic surfaces in P^3.

Implements line/surface intersections, the chord construction (third
intersection point of a secant), the tangent process on elliptic plane
sections (residual point of the tangent line, which realizes multiplication
by -2 on the section), length-3 line sections over etale algebras, and the
composite map sending a plane pencil and a line to the tangent-process image
of the line's intersection triple.

Coordinates live in an etale algebra so that points of degree up to 3 are
built, compared, hashed and printed as values, but a point is its integers
and every construction computes on them.  Rational points compute on their
primitive integer vectors.  At a point of degree 2-3, chords, the tangent
process, membership and normalization run on numerator polynomials packed into
ints (`_pack`) and read back modulo f (`_reader`).  Incoming rationals are cleared to
integers (`algebra._cleared`), and AlgElements are built only by `coords`, `repr` and
`EtaleAlgebra.element`.  `value_at` gives P, the primitive integer multiple of F, on any
commutative ring, and geometry calls it on ints only.  Chords and tangent
lines share one residual routine (`_line_residual`).  Whenever normalization
or the tangent process over a reducible algebra hits a zero divisor,
`ZeroDivisorFound` escapes to `_on_components`, which splits the algebra,
reruns componentwise and recombines the parts.

Smoothness of the surface is never verified globally; each operation checks
smoothness at the specific points it touches via the gradient.
"""

from __future__ import annotations

import itertools
import re
import reprlib
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .algebra import (
    AlgElement,
    EtaleAlgebra,
    ZeroDivisorFound,
    _cleared,
    _convolve,
    _gcd,
    _radical,
    _texts,
    _trim,
    fraction_to_string,
    rational_coeffs,
)

#: Degree-1 coefficient algebra Q[t]/(t); hosts all rational points.
RATIONALS = EtaleAlgebra((0, 1))


class GeometryError(Exception):
    """Base class for genericity failures; `kind` feeds structured CLI errors."""

    kind = "GeometryError"


class LineInSurface(GeometryError):
    kind = "LineInSurface"


class EqualPoints(GeometryError):
    kind = "EqualPoints"


class PointOnAxis(GeometryError):
    kind = "PointOnAxis"


class SingularSectionPoint(GeometryError):
    kind = "SingularSectionPoint"


class TangentLineInSurface(GeometryError):
    kind = "TangentLineInSurface"


class PointNotOnSurface(GeometryError):
    kind = "PointNotOnSurface"


class InvariantViolated(GeometryError):
    """A construction's postcondition failed: a bug, not a genericity failure."""

    kind = "InvariantViolated"


def check_invariant(condition: bool, message: str) -> None:
    """Explicit postcondition check; unlike `assert` it also runs under `python -O`."""
    if not condition:
        raise InvariantViolated(message)


def _det2(a, b, c, d):
    return a * d - b * c


#: Index pairs (i, j), i < j, of the 2x2 minors of a 4x2 matrix, in scan order.
_PAIRS = tuple(itertools.combinations(range(4), 2))

#: The quadratic monomials X_i X_j, i <= j, and the cubic ones as exponent vectors,
#: in the orders `_quadratic` and `_cubic` read coefficients, and per cubic monomial
#: the (m, r, e) with d/dX_m of it e times the r-th quadratic monomial.
_QUADRICS = tuple(itertools.combinations_with_replacement(range(4), 2))
_TRIPLES = tuple(itertools.combinations_with_replacement(range(4), 3))
_CUBICS = tuple(tuple(t.count(v) for v in range(4)) for t in _TRIPLES)
_DERIVATIVES = tuple(
    tuple((m, _QUADRICS.index(t[: t.index(m)] + t[t.index(m) + 1 :]), t.count(m)) for m in sorted(set(t)))
    for t in _TRIPLES
)


def _first_unit(values: Iterable, algebra: EtaleAlgebra = None):
    """The first unit among `values` as (index, value), reading them lazily.

    Find a unit, else split, else fail: with no unit, ZeroDivisorFound is
    raised from the first nonzero non-unit read (the mixed split case), and
    None is returned when every value vanishes, for the caller to refuse.
    On ints a unit is any nonzero value; with an `algebra`, the values are
    numerator polynomials over it, and one is a unit iff `_factor` is (1,).
    """
    witness = None
    for i, v in enumerate(values):
        if algebra is None:
            if v:
                return i, v
        elif any(v):
            factor = algebra._factor(v)
            if len(factor) == 1:
                return i, v
            witness = witness or factor
    if witness:
        raise ZeroDivisorFound(algebra, witness)
    return None


def _primitive(values: Sequence) -> tuple:
    """The primitive integer vector proportional to a nonzero vector of rationals
    (`_cleared`), first nonzero entry positive; such an int vector comes back as it is."""
    if not all(type(v) is int for v in values):  # spares an int vector the call
        values, _ = _cleared(values)
    g = gcd(*values)
    if not g:
        raise ValueError("all coordinates are zero")
    if next(v for v in values if v) < 0:
        g = -g
    return tuple(values) if g == 1 else tuple(v // g for v in values)


class ProjPoint:
    """Point of P^3 with coordinates in an etale algebra, up to unit scalars.

    A point is its integers: its coordinates' numerator lists of length deg f
    over one positive denominator, in lowest terms (`_integers()`).  It keeps
    them as `_nums` = (nums, den), and a rational point caches its primitive
    vector beside them; a point built by `from_integers` keeps only that vector.
    `coords` builds AlgElements from the integers on each read.  Comparison,
    hashing and serialization read the normal form (`normalized`): the last unit
    coordinate scaled to 1, or over a split algebra with no unit coordinate, the
    normal forms of the components recombined, so over Q[t]/(t^2 - t) the point
    (2t, 3 - 3t, 0, 0) is (t, 1 - t, 0, 0).  Coordinates that all vanish on one
    component of the algebra, such as (t, t, 0, 0) there, are no point and are refused.
    """

    __slots__ = ("algebra", "_norm", "_ints", "_nums", "_key")

    def __new__(cls, algebra: EtaleAlgebra, coords: Iterable):
        """The checked point; like every point, it is built by `_kept`."""
        pairs = [algebra._integers(c) for c in coords]
        if len(pairs) != 4:
            raise ValueError("projective points here live in P^3")
        if not any(x for num, _ in pairs for x in num):
            raise ValueError("all coordinates are zero")
        if algebra.degree > 1 and len(common := reduce(_gcd, (num for num, _ in pairs), algebra.modulus)) > 1:
            raise ValueError(f"all coordinates vanish on the component {EtaleAlgebra._of(common)} of the algebra")
        den = lcm(*(d for _, d in pairs))
        return cls._kept(algebra, ([[x * (den // d) for x in num] for num, d in pairs], den))

    def __setattr__(self, name, value):
        raise AttributeError("ProjPoint is immutable")

    @classmethod
    def rational(cls, values: Sequence) -> "ProjPoint":
        return cls(RATIONALS, values)

    @classmethod
    def from_integers(cls, values: Sequence, algebra: EtaleAlgebra = RATIONALS) -> "ProjPoint":
        """The normalized point of a nonzero vector of rationals over a degree-1 algebra,
        kept as its primitive integer vector only (`_primitive`); it is its own `_norm`."""
        return cls._kept(algebra, None, True, _primitive(values))

    @classmethod
    def _kept(cls, algebra: EtaleAlgebra, nums, normalized: bool = False, ints: tuple = None) -> "ProjPoint":
        """The point kept as its integers only, unchecked: `_nums` = (nums, den), put in
        lowest terms here, or with nums None the primitive vector `ints` at degree 1."""
        if nums and (g := gcd(nums[1], *itertools.chain(*nums[0]))) > 1:
            nums = [[x // g for x in num] for num in nums[0]], nums[1] // g
        point = object.__new__(cls)
        object.__setattr__(point, "algebra", algebra)
        object.__setattr__(point, "_norm", point if normalized else None)
        object.__setattr__(point, "_ints", ints)
        object.__setattr__(point, "_nums", nums)
        object.__setattr__(point, "_key", None)
        return point

    def _integers(self) -> tuple:
        """(nums, den): the coordinates' numerator lists over one positive denominator, in
        lowest terms; for a point kept as its primitive vector, that vector over its last
        nonzero entry."""
        if self._nums is None:
            return _over(self._ints)
        return self._nums

    @property
    def coords(self) -> tuple:
        """The four algebra coordinates, built from the integers."""
        nums, den = self._integers()
        return tuple(AlgElement(self.algebra, num, den) for num in nums)

    @property
    def is_rational(self) -> bool:
        return self.algebra.degree == 1

    def normalized(self) -> "ProjPoint":
        """The normal form: the last unit coordinate scaled to 1, else the components' (`_on_components`)."""
        if self._norm is None:
            norm = _on_components(self, lambda p: _point(p.algebra, p.primitive() if p.is_rational else p._nums[0]))
            object.__setattr__(norm, "_norm", norm)
            object.__setattr__(self, "_norm", norm)
        return self._norm

    def primitive(self) -> tuple:
        """Primitive integer coordinates, first nonzero one positive (degree-1 algebras only)."""
        if self._ints is None:
            object.__setattr__(self, "_ints", _primitive(self._constants()[0]))
        return self._ints

    def key(self):
        """Canonical hashable key, built on first use: the modulus and the coefficients
        of the normalized coordinates."""
        if self._key is None:
            nums, den = self.normalized()._integers()
            coords = tuple(rational_coeffs(num, den) for num in nums)
            object.__setattr__(self, "_key", (self.algebra.coefficients, coords))
        return self._key

    def _constants(self) -> tuple:
        """(values, den): the constant coordinates as integers over one positive denominator."""
        nums, den = self._integers()
        if any(x for num in nums for x in num[1:]):
            raise ValueError(f"{next(c for c in self.coords if any(c.num[1:]))} is not a rational constant")
        return [num[0] for num in nums], den

    def rational_coords(self) -> tuple:
        """Coordinates as Fractions, read off the integers; requires constant coordinates,
        as every coordinate over a degree-1 algebra is."""
        values, den = self._constants()
        return tuple(Fraction(v, den) for v in values)

    def __eq__(self, other):
        if not isinstance(other, ProjPoint):
            return NotImplemented
        if self.algebra != other.algebra:
            return False
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"ProjPoint({list(self.coords)!r})"

    def to_json(self):
        if self.is_rational:  # v / last off the primitive vector, then the normalized numerators
            ints = self.primitive()
            return _texts(ints, next(v for v in reversed(ints) if v))
        (nums, den), algebra = self.normalized()._nums, self.algebra
        return {"modulus": _texts(algebra.modulus, algebra.scale), "coords": [_texts(_trim(num), den) for num in nums]}


def _json_list(obj, what: str) -> list:
    if not isinstance(obj, list):
        raise ValueError(f"{what} must be a JSON list, got {type(obj).__name__}")
    return obj


#: The one string form of a rational in JSON input: digits, an optional sign and denominator.
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _rational_from_json(value):
    """A JSON integer or a "num/den" string matching `_RATIONAL` with a nonzero den, as an int, or a Fraction
    for a den other than 1.  Floats, booleans, exponents, underscores, spaces and decimal points are
    refused by a message that names the value, truncated, before any integer is built from it."""
    if type(value) is int:
        return value
    match = _RATIONAL.fullmatch(value) if isinstance(value, str) else None
    if match is None:
        raise ValueError(f'expected an integer or a "num/den" string, got {reprlib.repr(value)}')
    num, den = match.groups()
    if not (den := int(den or 1)):
        raise ValueError(f"zero denominator in {reprlib.repr(value)}")
    return int(num) if den == 1 else Fraction(int(num), den)


def _rationals_from_json(obj, what: str) -> list:
    return [_rational_from_json(c) for c in _json_list(obj, what)]


def point_from_json(obj) -> ProjPoint:
    """A rational point [c0..c3], or {"modulus": [...], "coords": [[...] x 4]} over
    Q[t]/(f) with f of degree 1 to 3 and coordinates of at most deg f entries,
    each length checked before any coefficient it bounds is read."""
    if isinstance(obj, dict):
        modulus = _json_list(obj.get("modulus"), "a modulus")
        if not 2 <= len(modulus) <= 4:  # points of degree up to 3; this also bounds the gcd work
            raise ValueError(f"a modulus must have degree 1 to 3, got degree {len(modulus) - 1}")
        algebra = EtaleAlgebra(_rationals_from_json(modulus, "a modulus"))
        coords = _json_list(obj.get("coords"), "point coordinates")
        degree = len(modulus) - 1
        if any(len(_json_list(c, "a coordinate")) > degree for c in coords):  # bounds the reduction
            raise ValueError(f"a coordinate over a degree-{degree} modulus has at most {degree} entries")
        return ProjPoint(algebra, [_rationals_from_json(c, "a coordinate") for c in coords])
    return ProjPoint.rational(_rationals_from_json(obj, "a point"))


class Line:
    """Line in P^3 spanned by two distinct rational basepoints.

    Every line is rational: sections and pencil axes are rational lines, so
    the constructor refuses a basepoint of higher degree and checks spanning
    on the basepoints' primitive integer vectors.
    """

    __slots__ = ("p", "q")

    def __init__(self, p: ProjPoint, q: ProjPoint):
        if not (p.is_rational and q.is_rational):
            raise ValueError("both basepoints of a line must be rational")
        _check_spanning(p.primitive(), q.primitive(), _first_unit)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    def __setattr__(self, name, value):
        raise AttributeError("Line is immutable")

    @classmethod
    def rational(cls, p: Sequence, q: Sequence) -> "Line":
        return cls(ProjPoint.rational(p), ProjPoint.rational(q))

    def to_json(self):
        return [self.p.to_json(), self.q.to_json()]


def line_from_json(obj) -> Line:
    if len(_json_list(obj, "a line")) != 2:
        raise ValueError("a line is given by two points")
    return Line(point_from_json(obj[0]), point_from_json(obj[1]))


def _check_spanning(u, v, units):
    """Require the 4x2 matrix [u v] to have a 2x2 minor that the unit scan `units` finds."""
    if units(_det2(u[i], v[i], u[j], v[j]) for i, j in _PAIRS) is None:
        raise EqualPoints("basepoints coincide as projective points")


@dataclass(frozen=True)
class PlanePencil:
    """Pencil of planes through a base line (the axis)."""

    axis: Line


class CubicForm:
    """Homogeneous cubic form in X0..X3 with exact rational coefficients."""

    __slots__ = ("terms", "_kernel")

    def __init__(self, terms):
        terms = dict(terms)
        ints, den = _cleared(terms.values())
        clean = {}
        for exp, k in zip(terms, ints):
            exp = tuple(exp)
            if len(exp) != 4 or any(type(e) is not int or e < 0 for e in exp) or sum(exp) != 3:
                raise ValueError(f"{exp} is not a degree-3 exponent vector on 4 variables")
            clean[exp] = clean.get(exp, 0) + k
        if not any(clean.values()):
            raise ValueError("the zero form is not a cubic surface")
        terms = {e: k // den if k % den == 0 else Fraction(k, den) for e, k in sorted(clean.items()) if k}
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_kernel", None)

    def __setattr__(self, name, value):
        raise AttributeError("CubicForm is immutable")

    @classmethod
    def fermat(cls) -> "CubicForm":
        return cls.diagonal(1, 1, 1, 1)

    @classmethod
    def diagonal(cls, a, b, c, d) -> "CubicForm":
        exps = [(3, 0, 0, 0), (0, 3, 0, 0), (0, 0, 3, 0), (0, 0, 0, 3)]
        return cls(dict(zip(exps, (a, b, c, d))))

    def _integer_kernel(self) -> tuple:
        """(terms, cubic, quadrics, weights), built on first use: `terms` holds P, the
        primitive integer multiple of F (den*F over its content), as (exponents, integer
        coefficient) pairs, `cubic` P's coefficients in `_CUBICS` order, quadrics[m]
        those of dP/dX_m in `_QUADRICS` order, and `weights` the `_pack` weights (sums
        of |coefficients|) of P and of its largest partial."""
        if self._kernel is None:
            ints, _ = _cleared(self.terms.values())
            content = gcd(*ints)
            terms = tuple((exp, k // content) for exp, k in zip(self.terms, ints))
            cubic = tuple(map(dict(terms).get, _CUBICS, itertools.repeat(0)))
            quadrics = [[0] * len(_QUADRICS) for _ in range(4)]
            for k, derivatives in zip(cubic, _DERIVATIVES):
                for m, r, e in derivatives:
                    quadrics[m][r] += k * e
            weights = sum(map(abs, cubic)), max(sum(map(abs, row)) for row in quadrics)
            object.__setattr__(self, "_kernel", (terms, cubic, quadrics, weights))
        return self._kernel

    def value_at(self, coords: Sequence):
        """P, the primitive integer multiple of F, at 4 values of one commutative ring
        (ints, Fractions or packed ints): P = s*F for one positive rational s, so on
        ints it is one positive multiple of F at every point."""
        return _cubic(self._integer_kernel()[1], *coords)

    def gradient_at(self, coords: Sequence) -> tuple:
        """The partial derivatives of P at 4 values of one commutative ring, as `value_at`."""
        return tuple([_quadratic(row, *coords) for row in self._integer_kernel()[2]])

    def integer_terms(self) -> tuple:
        """P, the primitive integer multiple of F, as (exponents, coefficient) pairs."""
        return self._integer_kernel()[0]

    def to_json(self) -> dict:
        return {
            "vars": 4,
            "degree": 3,
            "monomials": [
                {"exp": list(exp), "coeff": fraction_to_string(coeff)}
                for exp, coeff in self.terms.items()
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CubicForm":
        if not isinstance(obj, dict) or obj.get("vars", 4) != 4 or obj.get("degree", 3) != 3:
            raise ValueError("expected a cubic form in 4 variables")
        terms = {}
        for m in _json_list(obj.get("monomials"), "monomials"):
            if not isinstance(m, dict):
                raise ValueError("each monomial must be a JSON object")
            exp = _json_list(m.get("exp"), "an exponent vector")
            if not all(type(e) is int for e in exp):
                raise ValueError(f"exponents must be JSON integers, got {exp!r}")
            terms[tuple(exp)] = _rational_from_json(m.get("coeff"))
        return cls(terms)


def _cubic(k: Sequence, x0, x1, x2, x3):
    """sum(k[r] * X^e for r, e in enumerate(_CUBICS)) at four values X of one
    commutative ring, as a straight line of 11 products of two values."""
    (k000, k001, k002, k003, k011, k012, k013, k022, k023, k033,
     k111, k112, k113, k122, k123, k133, k222, k223, k233, k333) = k
    x33 = x3 * x3
    rest = x2 * (x2 * (k222 * x2 + k223 * x3) + k233 * x33) + k333 * x3 * x33
    rest += x1 * (x1 * (k111 * x1 + k112 * x2 + k113 * x3) + x2 * (k122 * x2 + k123 * x3) + k133 * x33)
    head = x0 * (k000 * x0 + k001 * x1 + k002 * x2 + k003 * x3)
    head += x1 * (k011 * x1 + k012 * x2 + k013 * x3) + x2 * (k022 * x2 + k023 * x3) + k033 * x33
    return x0 * head + rest


def _quadratic(q: Sequence, x0, x1, x2, x3):
    """sum(q[r] * X_i X_j for r, (i, j) in enumerate(_QUADRICS)) at four values of
    one commutative ring, as a straight line of 5 products of two values."""
    q00, q01, q02, q03, q11, q12, q13, q22, q23, q33 = q
    head = x0 * (q00 * x0 + q01 * x1 + q02 * x2 + q03 * x3) + x1 * (q11 * x1 + q12 * x2 + q13 * x3)
    return head + x2 * (q22 * x2 + q23 * x3) + q33 * x3 * x3


def _pack(nums: Sequence, weight: int, degree: int) -> tuple:
    """(values, bits): numerator polynomials of one length n as ints at t = 2^bits
    (Kronecker substitution), where + and * act as on the polynomials.  A form of the
    given degree and weight on them sums at most n^(degree-1) products per monomial in
    a coefficient, so `bits` holds weight * n^(degree-1) * M^degree (M the largest
    |coefficient|) and a sign bit."""
    top = max(abs(x) for num in nums for x in num)
    bits = (weight * len(nums[0]) ** (degree - 1) * top**degree).bit_length() + 1
    return [sum(x << (bits * j) for j, x in enumerate(num)) for num in nums], bits


def _reader(algebra: EtaleAlgebra, bits: int, count: int):
    """Reads a packed value back as its `count` coefficients reduced modulo f, times
    scale^(count - n): one factor for every value, so a vector keeps its point."""
    return lambda value: algebra._remainder(_unpack(value, bits, count))


def _unpack(value: int, bits: int, count: int) -> list:
    """The `count` signed base-2^bits digits of `value`, lowest first, each below
    2^(bits-1) in absolute value: the coefficients of the polynomial that `_pack`
    packs into `value`.  Adding 2^(bits-1) to every digit makes them all unsigned."""
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    value += half * ((1 << (bits * count)) - 1) // mask  # the geometric sum of half << (bits * j), j < count
    return [((value >> (bits * j)) & mask) - half for j in range(count)]


def _on_surface(surface: CubicForm, point: ProjPoint, roots: Sequence = ()) -> bool:
    """Whether the point lies on the surface: P vanishes at its primitive vector, or mod f at its
    numerators; over an f with the rational roots `roots` and no other, at each root (so by CRT)."""
    if point.is_rational:
        return not surface.value_at(point.primitive())
    if roots:
        return not any(surface.value_at(_at(point._nums[0], tau)) for tau in roots)
    values, bits = _pack(point._nums[0], surface._integer_kernel()[3][0], 3)
    return not any(_reader(point.algebra, bits, 3 * point.algebra.degree - 2)(surface.value_at(values)))


def _at(nums: Sequence, tau: Fraction) -> list:
    """The integer vector, up to a positive factor, of numerator polynomials at the rational tau."""
    a, b, n = tau.numerator, tau.denominator, len(nums[0])
    weights = [a**j * b ** (n - 1 - j) for j in range(n)]
    return [sum(map(mul, num, weights)) for num in nums]


def _over(ints: Sequence, u: int = None) -> tuple:
    """The integer vector ints over its nonzero entry u, by default its last nonzero one, as
    `EtaleAlgebra.split`'s combine takes a vector: (numerator lists, positive denominator)."""
    u = next(i for i in (3, 2, 1, 0) if ints[i]) if u is None else u
    return [[v] if ints[u] > 0 else [-v] for v in ints], abs(ints[u])


def _point(algebra: EtaleAlgebra, coords: Sequence) -> ProjPoint:
    """The normalized point proportional to `coords`, a nonzero integer vector at degree
    1, else numerator polynomials each times the inverse of the last unit one."""
    if algebra.degree == 1:
        return ProjPoint.from_integers(coords, algebra)
    _, unit = _first_unit(reversed(coords), algebra)  # no caller passes the zero vector
    inv, den = algebra._inverse(unit)
    products = [_convolve(_trim(c), _trim(inv)) for c in coords]
    top = max(map(len, products))  # padded to one length, the remainders share one factor
    nums = [algebra._remainder(c + [0] * (top - len(c))) for c in products]
    return ProjPoint._kept(algebra, (nums, den * algebra.scale ** max(top - algebra.degree, 0)), True)


def restrict(value, p, q) -> tuple:
    """Twice the coefficients (c0, c1, c2, c3) of F(s*p + t*q) = sum c[i] s^(3-i) t^i.

    `value` evaluates F, or a fixed multiple of it such as P, on 4 coordinates
    of one ring.  From F at p, q, p + q and p - q, the doubled coefficients
    need no division, so they stay exact in every ring; callers use them up
    to a common factor.  All four vanish iff the line lies in the surface.
    """
    c0, c3 = value(p), value(q)
    plus, minus = value([a + b for a, b in zip(p, q)]), value([a - b for a, b in zip(p, q)])
    return c0 + c0, plus - minus - c3 - c3, plus + minus - c0 - c0, c3 + c3


def third_point(surface: CubicForm, x: ProjPoint, y: ProjPoint) -> ProjPoint:
    """Residual intersection point of the secant through x and y.

    Both points must lie on the surface and differ projectively; the secant
    must not be contained in the surface.  With basepoints on S the
    restricted cubic is s*t*(c1*s + c2*t), so the third root is (c2 : -c1)
    and no division is needed.  Rational points run on their primitive
    integer vectors, algebra points on their packed numerators, whose 2x2
    minors are read back modulo f for the spanning check.
    """
    algebra = x.algebra
    if algebra != y.algebra:
        raise ValueError("points over different algebras")
    if not _on_surface(surface, x) or not _on_surface(surface, y):
        raise PointNotOnSurface("secant endpoints must lie on the surface")
    if algebra.degree == 1:
        xs, ys = x.primitive(), y.primitive()
        _check_spanning(xs, ys, _first_unit)
    else:  # each minor coefficient is at most 2 * n * M^2
        (xs, _), (ys, _) = x._nums, y._nums
        values, bits = _pack([*xs, *ys], 2, 2)
        read = _reader(algebra, bits, 2 * algebra.degree - 1)
        _check_spanning(values[:4], values[4:], lambda minors: _first_unit(map(read, minors), algebra))
    residual = _line_residual(surface, algebra, xs, ys, 1)
    if residual is None:
        raise LineInSurface("the secant is contained in the surface")
    return _point(algebra, residual)


def _plucker(pencil: PlanePencil) -> tuple:
    """The integer 2x2 minors of the axis' primitive vectors, in `_PAIRS` order."""
    a, b = pencil.axis.p.primitive(), pencil.axis.q.primitive()
    return tuple(a[i] * b[j] - a[j] * b[i] for i, j in _PAIRS)


def _plane(plucker: tuple, xs: Sequence, units) -> tuple:
    """The plane of the pencil with Plucker coordinates `plucker` through the point with
    coordinates xs, as the signed 3x3 minors of (axis, x) expanded along x, once the
    unit scan `units` finds a coefficient; else x lies on the axis."""
    p01, p02, p03, p12, p13, p23 = plucker
    x0, x1, x2, x3 = xs
    n = (x1 * p23 - x2 * p13 + x3 * p12, x2 * p03 - x0 * p23 - x3 * p02,
         x0 * p13 - x1 * p03 + x3 * p01, x1 * p02 - x0 * p12 - x2 * p01)
    if units(reversed(n)) is None:
        raise PointOnAxis("point lies on the pencil axis")
    return n


def tangent_residual(surface: CubicForm, pencil: PlanePencil, x: ProjPoint) -> ProjPoint:
    """Residual intersection of the tangent line at x to its plane section.

    x must be on the surface, off the pencil axis, and a smooth point of the
    section E = S ∩ (plane of the pencil through x).  The tangent line meets
    S doubly at x; the output is the remaining intersection point, which on
    an elliptic section realizes multiplication by -2.  Rational points run
    on their primitive integer vectors, algebra points on their packed `_nums`
    wide enough for every coefficient up to the tangent direction, read back
    modulo f only where a zero or unit test needs a value.
    """
    algebra, plucker, read, units = x.algebra, _plucker(pencil), (lambda v: v), _first_unit
    xs = nums = x.primitive() if x.is_rational else x._nums[0]
    if algebra.degree > 1:
        w0, w1 = surface._integer_kernel()[3]
        xs, bits = _pack(nums, 6 * max(w0, w1 * max(map(abs, plucker))), 3)
        read = _reader(algebra, bits, 3 * algebra.degree - 2)
        units = lambda values: _first_unit(map(read, values), algebra)  # noqa: E731
    value = read(surface.value_at(xs))
    if any(value) if algebra.degree > 1 else value:
        raise PointNotOnSurface("tangent process needs a surface point")
    n = _plane(plucker, xs, units)
    grad = surface.gradient_at(xs)

    # Tangent direction: the plane form and the gradient cut out a rank-2
    # system whose kernel is spanned by x and the tangent direction.
    pivot = units(_det2(n[i], n[j], grad[i], grad[j]) for i, j in _PAIRS)
    if pivot is None:
        raise SingularSectionPoint("gradient is proportional to the plane normal")
    index, minor = pivot
    i, j = _PAIRS[index]
    k, l = (c for c in range(4) if c not in (i, j))
    # With x_l a unit, the kernel vector with v_k != 0, v_l = 0 spans the
    # kernel together with x; else try x_k with k and l swapped.
    free = units((xs[l], xs[k]))
    if free is None:  # x is supported on the pivot coordinates only, so x = 0: impossible
        raise InvariantViolated("point outside the kernel it must lie in")
    k = (k, l)[free[0]]
    # Solve [n_i n_j; g_i g_j] (v_i, v_j) = -v_k (n_k, g_k) with v_k = minor,
    # so Cramer's rule needs no division.
    direction = [minor * 0] * 4
    direction[i] = read(n[j] * grad[k] - n[k] * grad[j])
    direction[j] = read(n[k] * grad[i] - n[i] * grad[k])
    direction[k] = minor

    residual = _line_residual(surface, algebra, nums, direction, 2)
    if residual is None:
        raise TangentLineInSurface("tangent line is contained in the surface")
    return _point(algebra, residual)


def _line_residual(surface: CubicForm, algebra: EtaleAlgebra, xs: Sequence, ys: Sequence, k: int):
    """c[k+1]*x - c[k]*y, a kernel vector of the third point on the line through the surface
    point x and y, where F(s*x + t*y) = sum c[i] s^(3-i) t^i up to one factor vanishes to order
    k at x: a chord (k = 1, y on the surface) or a tangent line along y (k = 2).  On ints, or on
    numerator polynomials packed wide enough for the residual (each coefficient <= 20 * weight *
    n^3 * M^4) and read back modulo f.  None when the line lies in the surface."""
    read, nonzero = (lambda v: v), bool
    if algebra.degree > 1:
        values, bits = _pack([*xs, *ys], 20 * surface._integer_kernel()[3][0], 4)
        xs, ys, read, nonzero = values[:4], values[4:], _reader(algebra, bits, 4 * algebra.degree - 3), any
    c = restrict(surface.value_at, xs, ys)
    check_invariant(not any(nonzero(read(v)) for v in c[:k]), "the line must meet the surface to order k at x")
    residual = [read(c[k + 1] * a - c[k] * b) for a, b in zip(xs, ys)]
    return residual if any(map(nonzero, residual)) else None


@dataclass(frozen=True)
class LengthThreeScheme:
    """A length-<=3 point package over one etale algebra.

    `point` is a single algebra-valued surface point; over the algebraic
    closure it spreads out into deg(algebra) points.  `non_reduced` records
    that the producing intersection had a repeated root (the scheme stored
    here is the reduced one).  `known_parameters` are parameter values of
    components discovered without any factorization (visible rational
    roots); when they account for the whole modulus degree the scheme is
    fully split.
    """

    algebra: EtaleAlgebra
    point: ProjPoint
    non_reduced: bool
    known_parameters: tuple = ()

    @property
    def degree(self) -> int:
        return self.algebra.degree

    @property
    def fully_split(self) -> bool:
        return len(self.known_parameters) == self.algebra.degree

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "non_reduced": self.non_reduced,
            "fully_split": self.fully_split,
            "known_parameters": [fraction_to_string(t) for t in self.known_parameters],
            "point": self.point.to_json(),
        }


def _chart(point: ProjPoint) -> tuple:
    """(P, num, den): the rational point's raw coordinates are (num / den) * P for its
    primitive vector P, read off its integers at P's first nonzero entry (positive)."""
    prim, (nums, den) = point.primitive(), point._integers()
    i = next(i for i, v in enumerate(prim) if v)
    return prim, nums[i][0], den * prim[i]


def line_section(surface: CubicForm, line: Line) -> LengthThreeScheme:
    """The length-3 subscheme cut on the surface by a rational line.

    Builds Q[t]/(g) from the monic squarefree part of the restricted cubic,
    after an internal reparametrization that moves every intersection point
    away from the parameter at infinity.  Roots visible without any
    factorization (basepoints on S, plus a leftover linear factor) are
    reported in `known_parameters`.
    """
    # The chart s*p + t*q is on the raw basepoints p = (pn/pd)*P and q = (qn/qd)*Q,
    # with P and Q primitive and pd, qd > 0.  As pd*qd*(p, k*p + q) = (u*P, k*u*P +
    # w*Q), every restriction runs on ints: on P and the primitive vector of the
    # second basepoint, then scaled back to the chart up to a common factor.
    (P, pn, pd), (Q, qn, qd) = _chart(line.p), _chart(line.q)
    u, w = pn * qd, pd * qn

    def section(k):
        second = tuple(k * u * x + w * y for x, y in zip(P, Q))
        prim = _primitive(second)
        g = next(v // x for v, x in zip(second, prim) if x)
        return second, tuple(v * u ** (3 - i) * g**i for i, v in enumerate(restrict(surface.value_at, P, prim)))

    second, c = section(0)
    if not any(c):
        raise LineInSurface("the line is contained in the surface")

    # Visible roots (s : t) of the binary cubic, found without factoring:
    # (1:0) and (0:1) are the basepoints, and stripping both may leave a
    # linear factor whose root is rational by inspection.
    lead_zeros = next(i for i, v in enumerate(c) if v)
    trail_zeros = next(i for i, v in enumerate(reversed(c)) if v)
    visible = []
    if lead_zeros:
        visible.append((1, 0))
    if trail_zeros:
        visible.append((0, 1))
    mids = c[lead_zeros : 4 - trail_zeros]
    if len(mids) == 2:
        visible.append((mids[1], -mids[0]))

    # Reparametrize (p, q) -> (p, k*p + q) so the new second basepoint is off
    # the surface; a nonzero binary cubic has at most 3 roots, so some k in
    # 0..3 works.
    k, shifted = 0, c
    while not shifted[3]:
        k += 1
        check_invariant(k < 4, "a nonzero binary cubic cannot vanish at 4 parameters")
        second, shifted = section(k)
    reduced = _radical(_primitive(shifted))
    non_reduced = len(reduced) < 4

    params = []
    for s, t in visible:
        # parameter in the new chart: s*p + t*q = (s - k t)*p + t*q_new
        denom = s - k * t
        check_invariant(denom != 0, "a visible root landed on the new basepoint")
        root = sum(r * t**i * denom ** (len(reduced) - 1 - i) for i, r in enumerate(reduced)) == 0
        check_invariant(root, "a visible root is not a root of the section")
        tau = Fraction(t, denom)
        if tau not in params:
            params.append(tau)
    params.sort()

    algebra = EtaleAlgebra._of(reduced)  # at degree 1, t reduces to a constant
    nums = [algebra._remainder([u * x, y]) for x, y in zip(P, second)]
    point = ProjPoint._kept(algebra, (nums, pd * qd * algebra.scale ** max(2 - algebra.degree, 0)))
    roots = params if len(params) == algebra.degree else ()
    check_invariant(_on_surface(surface, point, roots), "the line section must lie on the surface")
    return LengthThreeScheme(
        algebra=algebra,
        point=point,
        non_reduced=non_reduced,
        known_parameters=tuple(params),
    )


def _on_components(point: ProjPoint, run) -> ProjPoint:
    """run(point), a point over the point's algebra; where it hits a zero divisor, the same on
    both components of the split, recombined through the split's CRT idempotent."""
    try:
        return run(point)
    except ZeroDivisorFound as zd:
        sub_a, sub_b, combine = point.algebra.split(zd.factor)
        parts = (ProjPoint._kept(sub, ([sub._remainder(num) for num in point._nums[0]], 1)) for sub in (sub_a, sub_b))
        a, b = (_on_components(part, run)._integers() for part in parts)
        return ProjPoint._kept(point.algebra, combine(a, b))


def _tangent_on_components(surface: CubicForm, pencil: PlanePencil, point: ProjPoint) -> ProjPoint:
    """Tangent process over the point's algebra, splitting lazily at zero divisors."""
    return _on_components(point, lambda part: tangent_residual(surface, pencil, part))


def _tangent_at_roots(surface: CubicForm, pencil: PlanePencil, point: ProjPoint, roots: Sequence) -> ProjPoint:
    """The tangent image of a point over Q[t]/(f), f with the rational roots `roots` and no other:
    the images at its rational points in root order, so the first refusal propagates, each over the
    last coordinate u nonzero at every root (the result is then normalized), else over its own last
    nonzero entry, and recombined by one split per root but the last."""
    images = [tangent_residual(surface, pencil, ProjPoint.from_integers(_at(point._nums[0], tau))) for tau in roots]
    u = next((i for i in (3, 2, 1, 0) if all(image.primitive()[i] for image in images)), None)

    def combined(algebra, k):
        if k + 1 == len(roots):
            return _over(images[k].primitive(), u)
        _, rest, combine = algebra.split((-roots[k].numerator, roots[k].denominator))
        return combine(_over(images[k].primitive(), u), combined(rest, k + 1))
    return ProjPoint._kept(point.algebra, combined(point.algebra, 0), u is not None)


def tangent_triple(surface: CubicForm, pencil: PlanePencil, line: Line) -> LengthThreeScheme:
    """Apply the tangent process to every point of a line section at once.

    The line cuts a length-3 scheme off the surface; over its degree-<=3
    algebra the tangent process is applied to the tautological point, which
    over the algebraic closure is the triple of residual tangent points.  A
    fully split section runs it at its known roots only, so a refusal is the first
    refusing root's in increasing order; any other runs it over its algebra, split
    at zero divisors and recombined.  Genericity failures propagate.
    """
    scheme = line_section(surface, line)
    roots = scheme.known_parameters if scheme.fully_split and scheme.degree > 1 else ()
    image = (_tangent_at_roots(surface, pencil, scheme.point, roots) if roots
             else _tangent_on_components(surface, pencil, scheme.point))
    check_invariant(_on_surface(surface, image, roots), "the triple map image must lie on the surface")
    return LengthThreeScheme(
        algebra=scheme.algebra,
        point=image,
        non_reduced=scheme.non_reduced,
        known_parameters=scheme.known_parameters,
    )
