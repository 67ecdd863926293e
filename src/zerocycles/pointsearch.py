"""Height-bounded point enumeration and secant/tangent saturation on cubic surfaces.

Enumeration runs over primitive integer coordinate vectors (first nonzero
coordinate positive) with denominators cleared, sharded by the first
coordinate; every emitted point is rechecked exactly.  Saturation closes a
seed set under the chord construction and under residuals of low-height
tangent directions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm
from typing import Iterable, List, Optional, Sequence

from .geometry import (
    CubicForm,
    GeometryError,
    Line,
    ProjPoint,
    check_invariant,
    line_section,
    third_point,
)

SOURCE_ENUMERATED = "enumerated"
SOURCE_LINE = "line_intersection"
SOURCE_THIRD = "third_point"
SOURCE_TANGENT = "tangent_process"


@dataclass(frozen=True)
class PointRecord:
    """A verified surface point with its degree, height and provenance."""

    point: ProjPoint
    degree: int
    height: Optional[int]
    source: str

    def to_json(self) -> dict:
        return {
            "point": self.point.to_json(),
            "degree": self.degree,
            "height": self.height,
            "source": self.source,
        }


def _primitive_key(coords: Sequence[Fraction]) -> Optional[tuple]:
    """Primitive integer representative with positive first nonzero entry."""
    denom = lcm(*(c.denominator for c in coords))
    ints = [int(c * denom) for c in coords]
    g = gcd(*ints)
    if g == 0:
        return None
    ints = [v // g for v in ints]
    for v in ints:
        if v != 0:
            if v < 0:
                ints = [-w for w in ints]
            break
    return tuple(ints)


def rational_record(point: ProjPoint, source: str) -> PointRecord:
    key = _primitive_key(point.rational_coords())
    return PointRecord(
        point=ProjPoint.rational(key).normalized(),
        degree=1,
        height=max(abs(v) for v in key),
        source=source,
    )


def _int_eval(terms, coords) -> int:
    total = 0
    for exp, coeff in terms:
        term = coeff
        for c, e in zip(coords, exp):
            if e:
                term *= c**e
        total += term
    return total


def _enumerate_shard(terms, height: int, first: int) -> Iterable[tuple]:
    """Solutions with the given first coordinate, canonical and primitive."""
    lo = -height
    if first == 0:
        # first coordinate zero: canonical form needs the next nonzero positive
        for b in range(0, height + 1):
            c_range = range(lo, height + 1) if b > 0 else range(0, height + 1)
            for c in c_range:
                d_range = (
                    range(lo, height + 1) if (b or c) else range(1, height + 1)
                )
                for d in d_range:
                    coords = (0, b, c, d)
                    if gcd(b, c, d) != 1:
                        continue
                    if _int_eval(terms, coords) == 0:
                        yield coords
        return
    for b in range(lo, height + 1):
        for c in range(lo, height + 1):
            for d in range(lo, height + 1):
                coords = (first, b, c, d)
                if gcd(first, b, c, d) != 1:
                    continue
                if _int_eval(terms, coords) == 0:
                    yield coords


def enumerate_rational(surface: CubicForm, height_bound: int) -> List[PointRecord]:
    """All primitive rational points of height up to the bound, in sorted order.

    Height is the max absolute value of the primitive integer coordinates.
    The box is sharded by the first coordinate (shards are independent and
    could run in parallel); results are merged and re-sorted so the output
    order is deterministic.
    """
    if height_bound < 1:
        raise ValueError("height bound must be >= 1")
    terms = surface.integer_terms()
    found = []
    for first in range(0, height_bound + 1):
        found.extend(_enumerate_shard(terms, height_bound, first))
    found.sort()
    records = []
    for coords in found:
        point = ProjPoint.rational(coords)
        check_invariant(surface.evaluate(point).is_zero, "an enumerated point must lie on the surface")
        records.append(
            PointRecord(
                point=point.normalized(),
                degree=1,
                height=max(abs(v) for v in coords),
                source=SOURCE_ENUMERATED,
            )
        )
    return records


def degree3_from_line(surface: CubicForm, line: Line) -> PointRecord:
    """Package a line section as a point record of degree <= 3."""
    scheme = line_section(surface, line)
    return PointRecord(
        point=scheme.point,
        degree=scheme.degree,
        height=None,
        source=SOURCE_LINE,
    )


def _tangent_direction_residuals(
    surface: CubicForm, point: ProjPoint, direction_height: int
) -> Iterable[ProjPoint]:
    """Residual points of low-height tangent lines at a rational surface point.

    Directions are primitive integer vectors in the tangent plane at the
    point; each tangent line meets the surface doubly at the point and the
    leftover intersection is returned (when it is a genuine point).
    """
    coords = point.rational_coords()
    grad = surface.gradient_at(coords)
    box = range(-direction_height, direction_height + 1)
    for direction in product(box, repeat=4):
        key = _primitive_key(tuple(Fraction(v) for v in direction))
        if key is None or tuple(direction) != key:
            continue
        if sum(Fraction(g) * v for g, v in zip(grad, direction)) != 0:
            continue
        # skip directions proportional to the point itself
        if all(
            coords[i] * direction[j] == coords[j] * direction[i]
            for i, j in combinations(range(4), 2)
        ):
            continue
        s0 = surface.value_at(coords)
        dirf = tuple(Fraction(v) for v in direction)
        plus = surface.value_at(tuple(a + b for a, b in zip(coords, dirf)))
        minus = surface.value_at(tuple(a - b for a, b in zip(coords, dirf)))
        s3 = surface.value_at(dirf)
        c2 = (plus + minus) / 2 - s0
        c3 = s3
        if c2 == 0 and c3 == 0:
            continue  # tangent line inside the surface
        residual = tuple(c3 * a - c2 * b for a, b in zip(coords, dirf))
        if all(v == 0 for v in residual):
            continue
        yield ProjPoint.rational(residual)


def saturate(
    surface: CubicForm,
    seeds: Sequence[PointRecord],
    rounds: int,
    max_points: int = 400,
    direction_height: int = 1,
) -> List[PointRecord]:
    """Close a rational seed set under chords and tangent residuals.

    Runs the stated number of rounds, deduplicating normalized points, and
    caps the result size.  Monotone in rounds: the seeds are always kept.
    """
    for record in seeds:
        if not surface.evaluate(record.point).is_zero:
            raise ValueError("seed point is not on the surface")
    known = {}
    for record in seeds:
        fixed = rational_record(record.point, record.source)
        known.setdefault(fixed.point.key(), fixed)
    for _ in range(rounds):
        if len(known) >= max_points:
            break
        current = sorted(known.values(), key=lambda r: r.point.key())
        fresh = []
        for a, b in combinations(current, 2):
            try:
                new_point = third_point(surface, a.point, b.point)
            except GeometryError:
                continue
            fresh.append(rational_record(new_point, SOURCE_THIRD))
        for record in current:
            for residual in _tangent_direction_residuals(
                surface, record.point, direction_height
            ):
                check_invariant(
                    surface.evaluate(residual).is_zero, "a tangent residual must lie on the surface"
                )
                fresh.append(rational_record(residual, SOURCE_TANGENT))
        added = False
        for record in fresh:
            if len(known) >= max_points:
                break
            if record.point.key() not in known:
                known[record.point.key()] = record
                added = True
        if not added:
            break
    return sorted(known.values(), key=lambda r: r.point.key())
