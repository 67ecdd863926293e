"""Exact rational, polynomial and etale-algebra arithmetic.

Everything is immutable and exact.  Polynomials are integer coefficient lists,
lowest degree first, and an etale algebra is a quotient Q[t]/(f) with f monic
and squarefree, kept as its primitive integer multiple.  Algebra elements are
values: integer numerators over one reduced positive denominator, built,
compared, hashed and printed, with no ring operations.  The kernel computes on
bare numerators: products by one schoolbook convolution (`_convolve`) and one
fraction-free reduction (`EtaleAlgebra._remainder`); inverses from the matrix
of multiplication by the element, through the one Bareiss routine
(`_eliminate`), and for an element of degree <= 1 from one synthetic division
of the modulus.  The unit test, zero-divisor factors and squarefree checks run
the primitive pseudo-remainder sequence (`_gcd`), and divisibility runs
pseudo-division (`_quotient`).  `Fraction`s appear only at the boundary:
rational scalars coming in, and coefficients for keys and messages going out
(`rational_coeffs`); JSON text is printed off integer numerators (`_texts`).
No factorization is ever performed; a reducible modulus is split lazily when
some computation runs into a zero divisor: `ZeroDivisorFound` carries the
factor, and `EtaleAlgebra.split` builds both components on integers, without
a second squarefree check, and returns their CRT recombination.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm
from typing import Iterable, Sequence


def _to_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational number")


def _convolve(a: Sequence[int], b: Sequence[int]) -> list:
    """Schoolbook product of two nonempty integer coefficient lists, unreduced."""
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


def rational_coeffs(num: Sequence[int], den: int) -> tuple:
    """The Fractions num[i] / den, trailing zeros stripped: the exact form in which
    a polynomial leaves the integer kernel for keys and messages."""
    return tuple(Fraction(x, den) for x in _trim(num))


def _texts(values: Sequence[int], den: int) -> list:
    """The canonical strings of the rationals v / den, den nonzero, by one gcd each and no Fraction."""
    gcds = [gcd(v, den) if den > 0 else -gcd(v, den) for v in values]
    return [str(v // g) if g == den else f"{v // g}/{den // g}" for v, g in zip(values, gcds)]


def _trim(num: Sequence[int]) -> Sequence[int]:
    """num without its trailing zeros."""
    end = len(num)
    while end and not num[end - 1]:
        end -= 1
    return num[:end]


def _poly_text(coeffs: Sequence) -> str:
    """A polynomial as messages write it, highest degree first: `t^2 - t + 1/4`."""
    parts = []
    for k, c in reversed(list(enumerate(coeffs))):
        if not c:
            continue
        var = "t" if k == 1 else f"t^{k}"
        if k == 0:
            parts.append(str(c))
        elif c in (1, -1):
            parts.append(var if c == 1 else f"-{var}")
        else:
            parts.append(f"{c}*{var}")
    if not parts:
        return "0"
    return parts[0] + "".join(f" - {p[1:]}" if p.startswith("-") else f" + {p}" for p in parts[1:])


def _primitive_part(f: Sequence[int]) -> list:
    """f over the gcd of its coefficients, trailing zeros stripped and the leading
    coefficient positive; [] for the zero polynomial."""
    f = list(_trim(f))
    g = gcd(*f)
    if f and f[-1] < 0:
        g = -g
    return [c // g for c in f] if g else f


def _pseudo_divmod(f: Sequence[int], g: Sequence[int]) -> tuple:
    """(q, r) with lead(g)^k * f = q * g + r over the integers, k = max(len(f) -
    len(g) + 1, 0) and len(r) < len(g) once len(f) >= len(g); g's leading
    coefficient is nonzero, and r may end in zeros."""
    n, lead = len(g) - 1, g[-1]
    rem = list(f)
    quot = [0] * max(len(f) - n, 0)
    for k in range(len(f) - n - 1, -1, -1):
        top = rem.pop()
        quot = [lead * c for c in quot]
        quot[k] = top
        rem = [lead * c for c in rem]
        for j in range(n):
            rem[k + j] -= top * g[j]
    return quot, rem


def _gcd(f: Sequence[int], g: Sequence[int]) -> list:
    """Primitive gcd of two integer polynomials, by the primitive pseudo-remainder
    sequence; [] when both are zero."""
    f, g = sorted((_primitive_part(f), _primitive_part(g)), key=len, reverse=True)
    while len(g) > 1:
        f, g = g, _primitive_part(_pseudo_divmod(f, g)[1])
    return [1] if g else f


def _quotient(f: Sequence[int], g: Sequence[int]):
    """The primitive part of f / g when the nonzero integer polynomial g divides f
    over Q, else None: the one divisibility test."""
    quot, rem = _pseudo_divmod(f, g)
    return None if any(rem) else _primitive_part(quot)


def _radical(f: Sequence[int]) -> list:
    """The squarefree part of a nonzero integer polynomial f without trailing
    zeros, primitive: the product of f's distinct irreducible factors, f / gcd(f, f').
    A cubic with a nonzero discriminant is squarefree, and is its own radical."""
    if len(f) == 4:
        d, c, b, a = f
        if b * b * c * c - 4 * a * c**3 - 4 * b**3 * d - 27 * a * a * d * d + 18 * a * b * c * d:
            return _primitive_part(f)
    common = _gcd(f, [k * c for k, c in enumerate(f)][1:])
    return _primitive_part(_pseudo_divmod(f, common)[0])


class ZeroDivisorFound(ArithmeticError):
    """A nonzero, non-invertible element turned up over `algebra` = Q[t]/(f).

    `factor` is a proper divisor of the modulus as a primitive integer
    coefficient tuple, lowest degree first, so the caller can split the
    algebra as Q[t]/(factor) x Q[t]/(f / factor) (`EtaleAlgebra.split`) and
    retry componentwise.
    """

    algebra = property(lambda self: self.args[0])
    factor = property(lambda self: self.args[1])

    def __str__(self):  # formatted when read, which only the CLI boundary does
        return f"zero divisor over {self.algebra}: factor {_poly_text(rational_coeffs(self.factor, self.factor[-1]))}"


class EtaleAlgebra:
    """Quotient Q[t]/(f) with f monic squarefree of degree >= 1.

    A degree-n point of a variety is a point with coordinates here; the
    modulus degree upper-bounds the residue field degree (the modulus is not
    factored, so a split algebra looks the same as a field until a zero
    divisor shows up).

    f is kept only as its primitive integer multiple ``tail + (scale,)``,
    where `scale` is the least common denominator of f's coefficients; the
    defining relation ``scale * t^n == -sum(tail[i] * t^i)`` drives the
    fraction-free reduction.  It is built from f's rational coefficients,
    lowest degree first.
    """

    __slots__ = ("scale", "tail")

    def __init__(self, coeffs: Iterable):
        f = _trim([_to_fraction(c) for c in coeffs])
        if len(f) < 2:
            raise ValueError("modulus must have degree >= 1")
        if f[-1] != 1:
            raise ValueError("modulus must be monic")
        scale = lcm(*(c.denominator for c in f))
        ints = [c.numerator * (scale // c.denominator) for c in f]
        if len(_radical(ints)) != len(ints):
            raise ValueError(f"modulus {_poly_text(f)} is not squarefree")
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "tail", tuple(ints[:-1]))

    @classmethod
    def _of(cls, modulus: Sequence[int]) -> "EtaleAlgebra":
        """Q[t]/(modulus) for a primitive squarefree integer modulus with a positive
        leading coefficient, unchecked; the fields are the rational constructor's."""
        algebra = object.__new__(cls)
        object.__setattr__(algebra, "scale", modulus[-1])
        object.__setattr__(algebra, "tail", tuple(modulus[:-1]))
        return algebra

    def __setattr__(self, name, value):
        raise AttributeError("EtaleAlgebra is immutable")

    @property
    def degree(self) -> int:
        return len(self.tail)

    @property
    def modulus(self) -> tuple:
        """f as its primitive integer coefficient tuple, lowest degree first."""
        return self.tail + (self.scale,)

    @property
    def coefficients(self) -> tuple:
        """f's rational coefficients, lowest degree first, for keys, JSON and messages."""
        return rational_coeffs(self.modulus, self.scale)

    def _remainder(self, num: Sequence[int]) -> list:
        """scale^k * (num mod f) as n integers, k = max(len(num) - n, 0): num is scaled
        once up front, then each of the k steps divides by scale exactly."""
        n, scale, tail = len(self.tail), self.scale, self.tail
        k = len(num) - n
        if k <= 0:
            return list(num) + [0] * -k
        factor = scale**k
        num = [c * factor for c in num]
        for base in range(k - 1, -1, -1):
            top = num.pop() // scale
            if top:
                for i, c in enumerate(tail):
                    num[base + i] -= top * c
        return num

    def _reduced(self, num: Sequence[int], den: int) -> "AlgElement":
        """The element sum(num[i] * t^i) / den, for any number of numerators."""
        return AlgElement(self, self._remainder(num), den * self.scale ** max(len(num) - len(self.tail), 0))

    def _factor(self, num: Sequence[int]) -> tuple:
        """The one unit test: the primitive gcd of num and the modulus is (1,) iff num is
        a unit, the modulus iff it is zero, else the factor a zero divisor splits along.
        A nonzero num of degree <= 1 is tested by `_inverse`'s synthetic division."""
        if any(num[:2]) and not any(num[2:]):
            return (1,) if self._inverse(num) else tuple(_primitive_part(num))
        return tuple(_gcd(num, self.modulus))

    def _inverse(self, num: Sequence[int]):
        """(inv, den) with sum(inv[i] * t^i) / den the inverse of the nonzero element
        num / 1, or None for a non-unit.  At num = a + b*t, one synthetic division gives
        b^n * f = q * num + r over the integers (n = deg f): r = b^n * f(-a/b) is nonzero
        iff num is a unit, whose inverse is -q / r.  Else column j of the integer matrix M
        is num * (scale*t)^j reduced, that is scale^j * (num * t^j), so M z = e0 (Bareiss)
        gives the inverse as sum(z_j * scale^j * t^j), at every degree."""
        scale, tail, n = self.scale, self.tail, len(num)
        if not any(num[2:]):
            a, b, r, quot = num[0], num[1] if n > 1 else 0, scale, []
            for j in range(n - 1, -1, -1):  # r runs through sum(f_i * (-a)^(i-j) * b^(n-i), i >= j)
                quot.insert(0, -r * b**j)  # and q_j is its value one step earlier times b^j
                r = tail[j] * b ** (n - j) - a * r
            return ([x if r > 0 else -x for x in quot], abs(r)) if r else None
        cols = [list(num)]
        for _ in range(n - 1):
            col = cols[-1]
            cols.append([scale * x - col[-1] * c for x, c in zip([0] + col[:-1], tail)])
        pivots, rows = _eliminate([[c[i] for c in cols] + [int(i == 0)] for i in range(n)])
        if pivots != list(range(n)):
            return None
        det = rows[0][0]  # every pivot entry, so z_j = rows[j][n] / det
        return [row[n] * (1 if det > 0 else -1) * scale**j for j, row in enumerate(rows)], abs(det)

    def element(self, value) -> "AlgElement":
        """An element of this algebra, a rational, or rational coefficients lowest degree first."""
        if isinstance(value, AlgElement):
            if value.algebra != self:
                raise ValueError("element belongs to a different algebra")
            return value
        if isinstance(value, (int, Fraction)):
            return self.from_rational(value)
        coeffs = [_to_fraction(c) for c in value]
        den = lcm(*(c.denominator for c in coeffs))
        return self._reduced([c.numerator * (den // c.denominator) for c in coeffs], den)

    def from_rational(self, value) -> "AlgElement":
        q = _to_fraction(value)
        num = [0] * len(self.tail)
        num[0] = q.numerator
        return AlgElement(self, num, q.denominator)

    def split(self, factor: Sequence[int]):
        """Split along a proper divisor g of the modulus, given by integer
        coefficients lowest degree first, as `ZeroDivisorFound.factor` carries it.

        Returns (Q[t]/(g), Q[t]/(h), combine) for the cofactor h, coprime to g as
        the modulus is squarefree.  combine(a, b) takes vectors a over Q[t]/(g) and b
        over Q[t]/(h) as (numerator lists, positive denominator) and returns a + e * (b - a)
        here so, not in lowest terms: it reduces to a mod g and to b mod h, with the
        idempotent e = g * (g^-1 mod h).
        """
        g = _primitive_part(factor)
        h = _quotient(self.modulus, g) if 2 <= len(g) <= self.degree else None
        if h is None:
            raise ValueError(f"{_poly_text(g)} is not a proper divisor of the modulus of {self}")
        sub_a, sub_b = EtaleAlgebra._of(g), EtaleAlgebra._of(h)
        inv, d = sub_b._inverse(sub_b._remainder(g))  # g mod h is a unit, as g and h are coprime
        e = self._reduced(_convolve(g, [x * sub_b.scale ** max(len(g) - sub_b.degree, 0) for x in inv]), d)
        rest = [e.den - e.num[0], *(-x for x in e.num[1:])]  # d - E for e = E / d

        def combine(a: tuple, b: tuple) -> tuple:
            # a + e*(b - a) = ((d - E)*beta*A + E*alpha*B) / (d*alpha*beta), a = A/alpha, b = B/beta
            (xs, alpha), (ys, beta) = a, b
            if len(xs) != len(ys) or {*map(len, xs)} - {len(g) - 1} or {*map(len, ys)} - {len(h) - 1}:
                raise ValueError("vectors do not live over the split's components")
            nums = []
            for x, y in zip(xs, ys):  # every sum has length n + max(deg g, deg h) - 1
                p, q = _convolve(rest, [v * beta for v in x]), _convolve(e.num, [v * alpha for v in y])
                nums.append(self._remainder([s + t for s, t in zip_longest(p, q, fillvalue=0)]))
            return nums, e.den * alpha * beta * self.scale ** (max(len(g), len(h)) - 2)

        return sub_a, sub_b, combine

    def __eq__(self, other):
        return self is other or (
            isinstance(other, EtaleAlgebra) and self.tail == other.tail and self.scale == other.scale)

    def __hash__(self):
        return hash(("EtaleAlgebra", self.scale, self.tail))

    def __repr__(self):
        return f"Q[t]/({_poly_text(self.coefficients)})"


class AlgElement:
    """Element of an etale algebra: sum(num[i] * t^i) / den, a value with no ring
    operations; the kernel computes on `num` and `den`.

    `num` holds one integer per power of t below the modulus degree and
    `den` is positive with gcd(den, *num) == 1, so equal elements have equal
    fields.  Build elements through `EtaleAlgebra.element`/`from_rational`.
    """

    __slots__ = ("algebra", "num", "den")

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

    def __setattr__(self, name, value):
        raise AttributeError("AlgElement is immutable")

    @property
    def is_zero(self) -> bool:
        return not any(self.num)

    def constant_value(self) -> Fraction:
        """The element as a rational number; requires a constant representative."""
        if any(self.num[1:]):
            raise ValueError(f"{self} is not a rational constant")
        return Fraction(self.num[0], self.den)

    def __eq__(self, other):
        if not isinstance(other, AlgElement):
            return NotImplemented
        return self.algebra == other.algebra and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash(("AlgElement", self.algebra.tail, self.num, self.den))

    def __repr__(self):
        return f"({_poly_text(rational_coeffs(self.num, self.den))} mod {_poly_text(self.algebra.coefficients)})"

