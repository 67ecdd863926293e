"""Exact rational, polynomial and etale-algebra arithmetic.

Everything is immutable and exact: scalars are `fractions.Fraction`,
univariate polynomials are coefficient tuples over Q, and an etale algebra
is a quotient Q[t]/(f) with f monic and squarefree.  Algebra elements are
integer numerators over one reduced positive denominator.  They multiply by
one schoolbook convolution (`_convolve`) and one fraction-free reduction
(`EtaleAlgebra._reduced`); units and inverses come from the integer matrix of
multiplication by the element, through the one Bareiss routine
(`_eliminate`).  `Poly` serves moduli, gcd (zero-divisor factors), splitting
and JSON.  No polynomial factorization is ever performed; a reducible modulus
is split lazily when some computation runs into a zero divisor
(`ZeroDivisorFound` carries the discovered factor, and callers may continue
componentwise, recombining through the CRT idempotent of the split).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence


def _to_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational number")


def _convolve(a: Sequence[int], b: Sequence[int], out: list = None) -> list:
    """Schoolbook product of two nonempty integer coefficient lists, unreduced;
    added into `out` when it is given."""
    if out is None:
        out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _eliminate(rows: Sequence[Sequence]) -> tuple:
    """Exact fraction-free (Bareiss) Gauss-Jordan elimination: (pivot columns, rows).

    Rows of ints are used as they are; any other row is first scaled to
    integers.  Every division below is exact.  The rank is the number of
    pivots, and every pivot row ends with the same entry (the last pivot) in
    its pivot column, so row i of the result divided by that entry is row i
    of the reduced row echelon form.  On an augmented [M | I], M is
    invertible iff the pivots are M's columns.
    """
    m = []
    for row in rows:
        if all(type(v) is int for v in row):
            m.append(list(row))
            continue
        row = [Fraction(v) for v in row]
        scale = lcm(*(v.denominator for v in row))
        m.append([v.numerator * (scale // v.denominator) for v in row])
    pivots = []
    prev = 1
    for col in range(len(m[0]) if m else 0):
        top = len(pivots)
        pivot = next((r for r in range(top, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[top], m[pivot] = m[pivot], m[top]
        lead, pivot_row = m[top][col], m[top]
        for r in range(len(m)):
            if r != top:
                factor = m[r][col]
                m[r] = [(lead * a - factor * b) // prev for a, b in zip(m[r], pivot_row)]
        prev = lead
        pivots.append(col)
        if top + 1 == len(m):
            break
    return pivots, m


def fraction_to_string(q: Fraction) -> str:
    """Canonical "num/den" string, plain integer when the denominator is 1."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


class Poly:
    """Univariate polynomial over Q, coefficients stored lowest degree first.

    Trailing zero coefficients are stripped, so the leading coefficient is
    nonzero unless the polynomial is zero (empty tuple).  The zero polynomial
    has degree -1 by convention.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [_to_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def one(cls) -> "Poly":
        return cls((1,))

    @classmethod
    def x(cls) -> "Poly":
        return cls((0, 1))

    def to_strings(self) -> list:
        return [fraction_to_string(c) for c in self.coeffs]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return not self.is_zero and self.leading == 1

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        lead = self.leading
        if lead == 1:
            return self
        return Poly(c / lead for c in self.coeffs)

    def __add__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.coeff(k) + other.coeff(k) for k in range(n))

    __radd__ = __add__

    def __neg__(self):
        return Poly(-c for c in self.coeffs)

    def __sub__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly(c * other for c in self.coeffs)
        if not isinstance(other, Poly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Poly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __divmod__(self, other: "Poly"):
        if not isinstance(other, Poly):
            other = _coerce_poly(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dn = other.degree
        lead = other.leading
        quot = [Fraction(0)] * max(len(rem) - dn, 0)
        for k in range(len(rem) - dn - 1, -1, -1):
            c = rem[k + dn] / lead
            if c == 0:
                continue
            quot[k] = c
            for j, b in enumerate(other.coeffs):
                rem[k + j] -= c * b
        return Poly(quot), Poly(rem[:dn])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def divides(self, other: "Poly") -> bool:
        if self.is_zero:
            return other.is_zero
        return (other % self).is_zero

    def derivative(self) -> "Poly":
        return Poly(k * c for k, c in enumerate(self.coeffs) if k > 0)

    def __call__(self, value):
        """Evaluate by Horner's rule; works for Fraction and ring elements."""
        if self.is_zero:
            return Fraction(0)
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * value + c
        return acc

    def __eq__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("Poly", self.coeffs))

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeff(k)
            if c == 0:
                continue
            if k == 0:
                term = str(c)
            else:
                var = "t" if k == 1 else f"t^{k}"
                if c == 1:
                    term = var
                elif c == -1:
                    term = f"-{var}"
                else:
                    term = f"{c}*{var}"
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out


def _coerce_poly(value):
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly((value,))
    return NotImplemented


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor; poly_gcd(0, 0) = 0."""
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def is_squarefree(f: Poly) -> bool:
    """True iff gcd(f, f') is constant.  Raises on the zero polynomial."""
    if f.is_zero:
        raise ValueError("squarefreeness is undefined for the zero polynomial")
    return poly_gcd(f, f.derivative()).degree == 0


def squarefree_part(f: Poly) -> Poly:
    """Monic product of the distinct irreducible factors of f (f nonzero)."""
    if f.is_zero:
        raise ValueError("zero polynomial has no squarefree part")
    if f.degree == 0:
        return Poly.one()
    return (f // poly_gcd(f, f.derivative())).monic()


class ZeroDivisorFound(ArithmeticError):
    """A nonzero, non-invertible element turned up over Q[t]/(f).

    `factor` is a monic proper divisor of the modulus, so the caller can
    split the algebra as Q[t]/(factor) x Q[t]/(f // factor) and retry
    componentwise.
    """

    def __init__(self, algebra: "EtaleAlgebra", factor: Poly):
        super().__init__(f"zero divisor over {algebra}: factor {factor}")
        self.algebra = algebra
        self.factor = factor


class EtaleAlgebra:
    """Quotient Q[t]/(f) with f monic squarefree of degree >= 1.

    A degree-n point of a variety is a point with coordinates here; the
    modulus degree upper-bounds the residue field degree (the modulus is not
    factored, so a split algebra looks the same as a field until a zero
    divisor shows up).

    The defining relation is kept in integer form for fraction-free
    reduction: ``scale * t^n == -sum(tail[i] * t^i)``, where `scale` is the
    least common denominator of the lower coefficients of f.
    """

    __slots__ = ("modulus", "scale", "tail")

    def __init__(self, modulus: Poly):
        if modulus.degree < 1:
            raise ValueError("modulus must have degree >= 1")
        if not modulus.is_monic:
            raise ValueError("modulus must be monic")
        if not is_squarefree(modulus):
            raise ValueError(f"modulus {modulus} is not squarefree")
        lower = modulus.coeffs[:-1]
        scale = lcm(*(c.denominator for c in lower))
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "tail", tuple(c.numerator * (scale // c.denominator) for c in lower))

    def __setattr__(self, name, value):
        raise AttributeError("EtaleAlgebra is immutable")

    @property
    def degree(self) -> int:
        return self.modulus.degree

    def _reduced(self, num: list, den: int) -> "AlgElement":
        """The element sum(num[i] * t^i) / den, for any number of numerators."""
        n = len(self.tail)
        scale, tail = self.scale, self.tail
        for k in range(len(num) - 1, n - 1, -1):
            top = num[k]
            if not top:
                continue
            if scale != 1:
                for i in range(k):
                    num[i] *= scale
                den *= scale
            base = k - n
            for i, c in enumerate(tail):
                if c:
                    num[base + i] -= top * c
        if len(num) != n:
            num = num[:n] + [0] * (n - len(num))
        return AlgElement(self, num, den)

    def _product(self, a: tuple, b: tuple, den: int) -> "AlgElement":
        if len(a) == 1:
            return AlgElement(self, (a[0] * b[0],), den)
        return self._reduced(_convolve(a, b), den)

    def element(self, value) -> "AlgElement":
        if isinstance(value, AlgElement):
            if value.algebra != self:
                raise ValueError("element belongs to a different algebra")
            return value
        if isinstance(value, (int, Fraction, str)):
            return self.from_rational(value)
        if not isinstance(value, Poly):
            value = Poly(value)
        coeffs = value.coeffs
        den = lcm(*(c.denominator for c in coeffs))
        return self._reduced([c.numerator * (den // c.denominator) for c in coeffs], den)

    def from_rational(self, value) -> "AlgElement":
        q = _to_fraction(value)
        num = [0] * len(self.tail)
        num[0] = q.numerator
        return AlgElement(self, num, q.denominator)

    @property
    def zero(self) -> "AlgElement":
        return AlgElement(self, (0,) * len(self.tail), 1)

    @property
    def one(self) -> "AlgElement":
        return self.from_rational(1)

    @property
    def generator(self) -> "AlgElement":
        return self.element(Poly.x())

    def split(self, factor: Poly):
        """Split along a monic proper divisor of the modulus.

        Returns (Q[t]/(factor), Q[t]/(cofactor)); the two moduli are coprime
        because the modulus is squarefree.
        """
        if not factor.is_monic or not (1 <= factor.degree < self.degree):
            raise ValueError(f"{factor} is not a proper monic divisor")
        if not factor.divides(self.modulus):
            raise ValueError(f"{factor} does not divide {self.modulus}")
        return EtaleAlgebra(factor), EtaleAlgebra(self.modulus // factor)

    def projection_from(self, algebra: "EtaleAlgebra"):
        """The map x -> x mod this modulus on `algebra`, whose modulus it must divide (checked once, here)."""
        if not self.modulus.divides(algebra.modulus):
            raise ValueError("target modulus does not divide the current one")
        return lambda x: self._reduced(list(x.num), x.den)

    def __eq__(self, other):
        return self is other or (isinstance(other, EtaleAlgebra) and self.modulus == other.modulus)

    def __hash__(self):
        return hash(("EtaleAlgebra", self.modulus))

    def __repr__(self):
        return f"Q[t]/({self.modulus})"


class AlgElement:
    """Element of an etale algebra: sum(num[i] * t^i) / den.

    `num` holds one integer per power of t below the modulus degree and
    `den` is positive with gcd(den, *num) == 1, so equal elements have equal
    fields.  `rep`, the reduced representative as a `Poly`, is built on first
    use.  Build elements through `EtaleAlgebra.element`/`from_rational`.
    """

    __slots__ = ("algebra", "num", "den", "_rep", "_inv")

    def __init__(self, algebra: EtaleAlgebra, num, den: int):
        if len(num) != len(algebra.tail) or den <= 0:
            raise ValueError("expected one numerator per power of t and a positive denominator")
        g = gcd(den, *num)
        if g != 1:
            num = [x // g for x in num]
            den //= g
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "num", tuple(num))
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_rep", None)

    def __setattr__(self, name, value):
        raise AttributeError("AlgElement is immutable")

    @property
    def rep(self) -> Poly:
        rep = self._rep
        if rep is None:
            rep = Poly(Fraction(x, self.den) for x in self.num)
            object.__setattr__(self, "_rep", rep)
        return rep

    def _coerce(self, other):
        if isinstance(other, AlgElement):
            if other.algebra is not self.algebra and other.algebra != self.algebra:
                raise ValueError("elements of different algebras")
            return other
        if isinstance(other, (int, Fraction)):
            return self.algebra.from_rational(other)
        return NotImplemented

    @property
    def is_zero(self) -> bool:
        return not any(self.num)

    def __bool__(self) -> bool:
        return any(self.num)

    def _inverse_parts(self):
        """(num, den) of the inverse of a nonzero element of degree >= 2, or None
        for a non-unit.  Column j of the integer matrix M is num * (scale*t)^j
        reduced, that is den * scale^j * (self * t^j), so self is a unit iff M
        is nonsingular, and then M z = e0 (fraction-free, by Bareiss) gives the
        inverse as sum(z_j * den * scale^j * t^j).  Kept in the `_inv` slot, unset till then."""
        parts = getattr(self, "_inv", False)
        if parts is not False:
            return parts
        scale, tail, n = self.algebra.scale, self.algebra.tail, len(self.num)
        cols = [list(self.num)]
        for _ in range(n - 1):
            col = cols[-1]
            cols.append([scale * x - col[-1] * c for x, c in zip([0] + col[:-1], tail)])
        pivots, rows = _eliminate([[c[i] for c in cols] + [int(i == 0)] for i in range(n)])
        parts = None
        if pivots == list(range(n)):
            det = rows[0][0]  # every pivot entry, so z_j = rows[j][n] / det
            unit = self.den if det > 0 else -self.den
            parts = [row[n] * unit * scale**j for j, row in enumerate(rows)], abs(det)
        object.__setattr__(self, "_inv", parts)
        return parts

    def is_unit(self) -> bool:
        return not self.is_zero and (len(self.num) == 1 or self._inverse_parts() is not None)

    def zero_divisor_factor(self) -> Poly:
        """Monic proper modulus divisor witnessing non-invertibility.

        Only meaningful for nonzero non-units.
        """
        g = poly_gcd(self.rep, self.algebra.modulus)
        if not 1 <= g.degree < self.algebra.degree:
            raise ValueError("element is zero or a unit")
        return g

    def inverse(self) -> "AlgElement":
        """Multiplicative inverse.

        Raises ZeroDivisionError on 0 and ZeroDivisorFound (carrying a proper
        factor of the modulus) on a nonzero non-unit.
        """
        if self.is_zero:
            raise ZeroDivisionError("inverting zero in an etale algebra")
        if len(self.num) == 1:
            a = self.num[0]
            return AlgElement(self.algebra, (self.den if a > 0 else -self.den,), abs(a))
        parts = self._inverse_parts()
        if parts is None:
            raise ZeroDivisorFound(self.algebra, self.zero_divisor_factor())
        return AlgElement(self.algebra, *parts)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        da, db = self.den, other.den
        if da == db:
            return AlgElement(self.algebra, [x + y for x, y in zip(self.num, other.num)], da)
        return AlgElement(self.algebra, [x * db + y * da for x, y in zip(self.num, other.num)], da * db)

    __radd__ = __add__

    def __neg__(self):
        return AlgElement(self.algebra, [-x for x in self.num], self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return AlgElement(self.algebra, [x * other.numerator for x in self.num], self.den * other.denominator)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.algebra._product(self.num, other.num, self.den * other.den)

    __rmul__ = __mul__

    def reduce_mod(self, sub: EtaleAlgebra) -> "AlgElement":
        """Image in a component algebra whose modulus divides this one's."""
        return sub.projection_from(self.algebra)(self)

    def constant_value(self) -> Fraction:
        """The element as a rational number; requires a constant representative."""
        if any(self.num[1:]):
            raise ValueError(f"{self} is not a rational constant")
        return Fraction(self.num[0], self.den)

    def __eq__(self, other):
        try:
            other = self._coerce(other)
        except ValueError:
            return False
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash(("AlgElement", self.algebra.modulus, self.num, self.den))

    def __repr__(self):
        return f"({self.rep} mod {self.algebra.modulus})"


def crt_combiner(algebra: EtaleAlgebra, sub_a: EtaleAlgebra, sub_b: EtaleAlgebra):
    """The map (a, b) -> the element of `algebra` that reduces to a over sub_a and
    to b over sub_b, whose moduli g and h multiply to algebra.modulus (so are
    coprime).  The idempotent e = g * (g^-1 mod h), 0 mod g and 1 mod h, is
    computed once; each call is a + e * (b - a), reading a and b in `algebra`."""
    g = sub_a.modulus
    if g * sub_b.modulus != algebra.modulus:
        raise ValueError("component moduli do not multiply to the target modulus")
    g_inv = sub_b.element(g).inverse()
    e = algebra.element(g) * algebra._reduced(list(g_inv.num), g_inv.den)

    def combine(a: AlgElement, b: AlgElement) -> AlgElement:
        if a.algebra != sub_a or b.algebra != sub_b:
            raise ValueError("elements do not live over the split's components")
        x = algebra._reduced(list(a.num), a.den)
        return x + e * (algebra._reduced(list(b.num), b.den) - x)

    return combine


def crt_combine(algebra: EtaleAlgebra, a: AlgElement, b: AlgElement) -> AlgElement:
    """Recombine componentwise values over coprime factors of the modulus.

    a lives over Q[t]/(g), b over Q[t]/(h) with g*h = algebra.modulus; the
    result reduces to a mod g and to b mod h.
    """
    return crt_combiner(algebra, a.algebra, b.algebra)(a, b)
