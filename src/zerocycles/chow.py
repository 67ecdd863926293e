"""Truncated Chow ring of a product of three curves, and the skew-lines pencil check.

The ring has three square-zero generators (the hyperplane classes pulled
back from the factors of C_x x C_y x C_z), which is exactly enough to carry
the Segre-class degree count showing the collinearity locus strictly exceeds
its diagonal sublocus in degree, together with the exact rank computation
identifying the plane triples through three skew lines that form a pencil.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Sequence, Tuple

from .algebra import _eliminate

GENERATORS = ("x", "y", "z")


class NotInStandardPosition(Exception):
    pass


class LinesIntersect(Exception):
    pass


class TriClass:
    """Integer combination of products of the square-zero generators.

    Keys are subsets of {"x", "y", "z"}; the empty set indexes the
    fundamental-class multiple.  Codimension of a monomial = subset size.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Dict[frozenset, int]):
        clean = {}
        for subset, value in coeffs.items():
            subset = frozenset(subset)
            if not subset <= set(GENERATORS):
                raise ValueError(f"unknown generators in {set(subset)}")
            if type(value) is not int:
                raise ValueError(f"coefficient {value!r} of {sorted(subset)} must be an integer")
            if value:
                clean[subset] = clean.get(subset, 0) + value
        object.__setattr__(self, "coeffs", {k: v for k, v in clean.items() if v})

    def __setattr__(self, name, value):
        raise AttributeError("TriClass is immutable")

    @classmethod
    def zero(cls) -> "TriClass":
        return cls({})

    @classmethod
    def one(cls) -> "TriClass":
        return cls({frozenset(): 1})

    @classmethod
    def generator(cls, name: str) -> "TriClass":
        return cls({frozenset({name}): 1})

    def coeff(self, subset) -> int:
        return self.coeffs.get(frozenset(subset), 0)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def is_homogeneous(self, k: int) -> bool:
        return all(len(s) == k for s in self.coeffs)

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.coeffs)
        for s, v in other.coeffs.items():
            out[s] = out.get(s, 0) + v
        return TriClass(out)

    __radd__ = __add__

    def __mul__(self, other):
        """Product with the square-zero rule: overlapping subsets annihilate."""
        if type(other) is int:
            return TriClass({s: v * other for s, v in self.coeffs.items()})
        if not isinstance(other, TriClass):
            return NotImplemented
        out: Dict[frozenset, int] = {}
        for s1, v1 in self.coeffs.items():
            for s2, v2 in other.coeffs.items():
                if s1 & s2:
                    continue
                key = s1 | s2
                out[key] = out.get(key, 0) + v1 * v2
        return TriClass(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def to_json(self) -> dict:
        return {
            ("".join(sorted(s)) or "1"): v
            for s, v in sorted(self.coeffs.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))
        }


def _coerce(value):
    if isinstance(value, TriClass):
        return value
    if type(value) is int:
        return TriClass({frozenset(): value}) if value else TriClass.zero()
    return NotImplemented


ALPHA = TriClass.generator("x")
BETA = TriClass.generator("y")
GAMMA = TriClass.generator("z")


@dataclass(frozen=True)
class CurveDegrees:
    """Degrees of the polarizations O(1) on the three curve factors."""

    deg_x: int = 6
    deg_y: int = 6
    deg_z: int = 6

    def __post_init__(self):
        if min(self.deg_x, self.deg_y, self.deg_z) <= 0:
            raise ValueError("curve degrees must be positive")


def segre_s2(a: TriClass = ALPHA, b: TriClass = BETA, c: TriClass = GAMMA) -> TriClass:
    """Second Segre class of a sum of three dual line classes: ab + ac + bc."""
    return a * b + a * c + b * c


def degree_wrt_first(cls: TriClass, degs: CurveDegrees = CurveDegrees()) -> int:
    """Degree of a curve class measured against the first factor's hyperplane.

    The class must be homogeneous of codimension 2; multiplying by the first
    generator kills everything but the yz-part, and the top monomial
    evaluates to the product of the three curve degrees.
    """
    if not cls.is_homogeneous(2):
        raise ValueError("degree is defined for homogeneous codimension-2 classes")
    top = ALPHA * cls
    return top.coeff({"x", "y", "z"}) * degs.deg_x * degs.deg_y * degs.deg_z


def diagonal_locus_degree(pair_points: int = 12, degs: CurveDegrees = CurveDegrees()) -> int:
    """Degree (against the first factor) of the locus where two coordinates merge.

    The last two curves meet in `pair_points` points; over each the locus is
    a copy of the first curve, of degree deg_x.
    """
    if pair_points < 0:
        raise ValueError("intersection count must be nonnegative")
    return pair_points * degs.deg_x


def collinearity_report(degs: CurveDegrees = CurveDegrees(), pair_points: int = 12) -> dict:
    """The degree comparison that makes honest collinear triples exist.

    deg_D2 counts the full rank-drop locus, deg_D2_prime the degenerate
    sublocus with two equal coordinates; the strict inequality leaves room
    for triples of pairwise distinct collinear points.
    """
    d2 = degree_wrt_first(segre_s2(), degs)
    d2_prime = diagonal_locus_degree(pair_points, degs)
    return {
        "deg_D2": d2,
        "deg_D2_prime": d2_prime,
        "strict_inequality": d2 > d2_prime,
        "degrees": [degs.deg_x, degs.deg_y, degs.deg_z],
        "pair_points": pair_points,
        "s2": segre_s2().to_json(),
    }


# --- pencil condition for three pairwise skew lines ------------------------

#: Standard skew triple: X0=X1=0, X2=X3=0, X0-X2=X1-X3=0, each as a spanning pair.
STANDARD_LINES = (
    ((0, 0, 1, 0), (0, 0, 0, 1)),
    ((1, 0, 0, 0), (0, 1, 0, 0)),
    ((1, 0, 1, 0), (0, 1, 0, 1)),
)


def matrix_rank(rows: Sequence[Sequence]) -> int:
    """Exact rank over Q."""
    return len(_eliminate(rows)[0])


def plane_rows(u: Tuple, v: Tuple, w: Tuple) -> list:
    """Coefficient rows of the planes through the standard lines.

    u = (u0:u1) picks u0*X0 + u1*X1 through the first line, v = (v2:v3)
    picks v2*X2 + v3*X3 through the second, w = (w:w') picks
    w*(X0-X2) + w'*(X1-X3) through the third.
    """
    for pair in (u, v, w):
        if len(pair) != 2 or all(Fraction(c) == 0 for c in pair):
            raise ValueError("each plane parameter must be a nonzero pair")
    u0, u1 = (Fraction(c) for c in u)
    v2, v3 = (Fraction(c) for c in v)
    w0, w1 = (Fraction(c) for c in w)
    return [
        [u0, u1, 0, 0],
        [0, 0, v2, v3],
        [w0, w1, -w0, -w1],
    ]


def pencil_rank(u: Tuple, v: Tuple, w: Tuple) -> int:
    """Rank of the three plane forms: 2 means they generate a pencil."""
    return matrix_rank(plane_rows(u, v, w))


def diagonal_triple(param: Tuple) -> Tuple[Tuple, Tuple, Tuple]:
    """The diagonal parameter triple; always yields a pencil."""
    return tuple(param), tuple(param), tuple(param)


def _span_matches(points, standard) -> bool:
    std = [list(v) for v in standard]
    return matrix_rank(std) == 2 and all(matrix_rank(std + [list(p)]) == 2 for p in points)


def pencil_condition_solve(lines=STANDARD_LINES) -> dict:
    """Describe the plane triples through the standard skew lines forming a pencil.

    The input lines must be the standard triple (reduce arbitrary skew
    triples first with `standardize_skew_lines`).  The family is the
    diagonal copy of P^1: parameters (u0:u1) = (v2:v3) = (w:w'); the result
    carries sample verifications at a few exact parameters.
    """
    for line, standard in zip(lines, STANDARD_LINES):
        if not _span_matches(line, standard):
            raise NotInStandardPosition(
                "expected the lines X0=X1=0, X2=X3=0, X0-X2=X1-X3=0"
            )
    samples = []
    for a, b in ((1, 0), (0, 1), (1, 1), (2, -3)):
        triple = diagonal_triple((a, b))
        samples.append({"param": [a, b], "rank": pencil_rank(*triple)})
    off = pencil_rank((1, 0), (0, 1), (1, 0))
    return {
        "family": "diagonal",
        "description": "(u0:u1) = (v2:v3) = (w:w')",
        "diagonal_samples": samples,
        "off_diagonal_example_rank": off,
    }


def pencil_report(samples: int, seed: int = 0) -> dict:
    """The pencil condition's family, and the counts of pencil ranks over `samples`
    random diagonal parameter triples and as many off-diagonal ones, keyed by rank."""
    rng = random.Random(seed)
    diagonal, off = Counter(), Counter()
    for _ in range(samples):
        a, b = rng.randint(-9, 9), rng.randint(-9, 9)
        if (a, b) == (0, 0):
            a = 1
        diagonal[str(pencil_rank(*diagonal_triple((a, b))))] += 1
        u, v, w = (a, b), (b - 1, a + 2), (a + 1, b) if a + 1 or b else (1, 1)
        if matrix_rank([[u[0], u[1]], [v[0], v[1]]]) < 2:
            v = (v[0] + 1, v[1] + 1)
        off[str(pencil_rank(u, v, w))] += 1
    return {"family": pencil_condition_solve(), "samples": samples,
            "diagonal_rank_counts": dict(diagonal), "off_diagonal_rank_counts": dict(off)}


def _solve(a, b) -> tuple:
    """(d, x) with a^-1 * b = x / d for a square matrix a, x an integer matrix, by one
    elimination of [a | b]: every pivot entry is d."""
    n = len(a)
    pivots, reduced = _eliminate([list(row) + list(rhs) for row, rhs in zip(a, b)])
    if pivots != list(range(n)):
        raise ValueError("singular matrix")
    return reduced[0][0], [row[n:] for row in reduced]


def standardize_skew_lines(lines) -> list:
    """A coordinate change carrying three pairwise skew lines to the standard triple.

    Each line is a pair of spanning 4-vectors.  Raises LinesIntersect when
    two of the lines meet (their four spanning vectors have rank < 4); otherwise
    returns the 4x4 matrix T (new coordinates = T * old) and guarantees
    T maps the lines onto the spans of STANDARD_LINES.  Int entries stay ints:
    T is formed on integers over one denominator, divided out last.
    """
    pts = [[tuple(c if type(c) is int else Fraction(c) for c in p) for p in line] for line in lines]
    for i, j in itertools.combinations(range(3), 2):
        stack = [list(pts[i][0]), list(pts[i][1]), list(pts[j][0]), list(pts[j][1])]
        if matrix_rank(stack) < 4:
            raise LinesIntersect(f"lines {i} and {j} intersect")
    # Columns (p2, q2, p1, q1) send line 2 to span(e0, e1), line 1 to span(e2, e3).
    basis = [
        [pts[1][0][r], pts[1][1][r], pts[0][0][r], pts[0][1][r]] for r in range(4)
    ]
    # t0 = basis^-1 = m[:, :4] / d, solved together with the third line's coordinates in the basis
    d, m = _solve(basis, [[int(r == c) for c in range(4)] + [p[r] for p in pts[2]] for r in range(4)])
    # Re-spanned so its lower half is the identity, the third line has upper
    # half A = top * bottom^-1; both halves are invertible because it meets
    # neither other line, and diag(A^-1, I) straightens it onto the diagonal
    # while preserving the first two.
    top, bottom = [row[4:] for row in m[:2]], [row[4:] for row in m[2:]]
    d2, upper = _solve(top, [row[:4] for row in m[:2]])  # bottom * top^-1 * t0[:2] = bottom * upper / (d * d2)
    transform = [[b0 * u + b1 * v for u, v in zip(*upper)] for b0, b1 in bottom]
    transform += [[v * d2 for v in row[:4]] for row in m[2:]]
    for line, standard in zip(pts, STANDARD_LINES):
        if not _span_matches([[sum(a * b for a, b in zip(row, p)) for row in transform] for p in line], standard):
            raise AssertionError("standardization failed to reach the normal form")
    return [[Fraction(v, d * d2) for v in row] for row in transform]
