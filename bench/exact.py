"""Small exact-arithmetic helpers shared by the generators and the oracles.

Plain `fractions` code written for the benchmark, independent of `zerocycles`.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def q(value) -> str:
    """Canonical "num/den" string, as the program prints rationals."""
    value = Fraction(value)
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def monomial(exp, point) -> Fraction:
    out = Fraction(1)
    for c, e in zip(point, exp):
        out *= Fraction(c) ** e
    return out


def form_value(terms: dict, point) -> Fraction:
    return sum((c * monomial(e, point) for e, c in terms.items()), Fraction(0))


def restrict(terms: dict, p, q_) -> list:
    """Coefficients [a0..a3] of S(p + t q) by direct monomial expansion."""
    total = [Fraction(0)] * 4
    for exp, coeff in terms.items():
        poly = [coeff]
        for pi, qi, e in zip(p, q_, exp):
            for _ in range(e):
                nxt = [Fraction(0)] * (len(poly) + 1)
                for k, a in enumerate(poly):
                    nxt[k] += a * pi
                    nxt[k + 1] += a * qi
                poly = nxt
        for k, a in enumerate(poly):
            total[k] += a
    return total


def det(rows) -> Fraction:
    """Determinant by cofactor expansion (small matrices only)."""
    n = len(rows)
    if n == 1:
        return Fraction(rows[0][0])
    out = Fraction(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        out += (-1) ** j * Fraction(rows[0][j]) * det(minor)
    return out


def rank(rows) -> int:
    """Rank as the largest size of a nonzero minor."""
    rows = [list(r) for r in rows]
    for size in range(min(len(rows), len(rows[0])), 0, -1):
        for ri in itertools.combinations(range(len(rows)), size):
            for ci in itertools.combinations(range(len(rows[0])), size):
                if det([[rows[r][c] for c in ci] for r in ri]) != 0:
                    return size
    return 0


def solve(rows, rhs):
    """Solution of a square linear system over Q, or None when it is singular."""
    n = len(rows)
    m = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col] / m[col][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return [m[i][n] / m[i][i] for i in range(n)]
