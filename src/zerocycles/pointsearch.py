"""Height-bounded point enumeration and secant/tangent saturation on cubic surfaces.

Both hot loops run on integers.  Enumeration solves each fibre cubic in the
last coordinate over the height box, on the form's primitive integer
multiple, from a cube table when the fibre is a binomial and by a scan otherwise;
every emitted point is rechecked exactly.  Saturation closes a seed set under
the chord construction and under residuals of low-height tangent directions,
in geometry's integer kernel on each point's primitive integer coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations, product
from math import gcd
from typing import Iterable, List, Optional, Sequence

from .algebra import ZeroDivisorFound
from .geometry import (
    CubicForm,
    GeometryError,
    ProjPoint,
    _on_surface,
    check_invariant,
    restrict,
    third_point,
)

SOURCE_ENUMERATED = "enumerated"
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


def rational_record(point: ProjPoint, source: str) -> PointRecord:
    point = point.normalized()
    return PointRecord(
        point=point, degree=1, height=max(abs(v) for v in point.primitive()), source=source
    )


def enumerate_rational(surface: CubicForm, height_bound: int) -> List[PointRecord]:
    """All primitive rational points of height up to the bound, in sorted order.

    Height is the max absolute value of the primitive integer coordinates
    (a, b, c, d), first nonzero one positive.  The integer form is reduced
    to (b, c, d) once per `a`, to (c, d) once per (a, b), and to the fibre
    cubic c0 + c1*d + c2*d^2 + c3*d^3 once per (a, b, c).  A binomial fibre
    (c1 = c2 = 0, c3 != 0, every fibre of a diagonal form) has at most one
    root, -c0/c3 read off a table of the cubes in the height range.  Any
    other fibre scans the canonical range of `d` by Horner, skipping what
    cannot be a root: the whole fibre when |c0| outweighs the other terms on
    the box, and any nonzero d not dividing the lowest nonzero coefficient.
    Only roots get the primitivity test; a fibre whose cubic vanishes keeps
    its whole range.  The output is sorted so its order is deterministic,
    and each point is kept as its primitive integer vector.
    """
    if height_bound < 1:
        raise ValueError("height bound must be >= 1")
    h = height_bound
    full = range(-h, h + 1)
    cubes = {d**3: d for d in full}
    terms = surface.integer_terms()
    found = []
    for a in range(0, h + 1):
        over_a = [(e[1], e[2], e[3], k * a ** e[0]) for e, k in terms]
        for b in range(0, h + 1) if a == 0 else full:
            rows = [[0, 0, 0, 0], [0, 0, 0], [0, 0], [0]]  # rows[k][j]: coefficient of c^j d^k
            for eb, ec, ed, k in over_a:
                rows[ed][ec] += k * b**eb
            (k00, k01, k02, k03), (k10, k11, k12), (k20, k21), (c3,) = rows
            for c in full if (a or b) else range(0, h + 1):
                c0 = ((k03 * c + k02) * c + k01) * c + k00
                c1 = (k12 * c + k11) * c + k10
                c2 = k21 * c + k20
                d_range = full if (a or b or c) else range(1, h + 1)
                low = c0 or c1 or c2 or c3
                if c3 and not c1 and not c2:  # c3*d^3 = -c0 has one candidate root
                    d = None if c0 % c3 else cubes.get(-c0 // c3)
                    roots = (d,) if d is not None and d in d_range else ()
                elif abs(c0) > ((abs(c3) * h + abs(c2)) * h + abs(c1)) * h:
                    continue
                elif low:
                    roots = [
                        d
                        for d in d_range
                        if not (d and low % d) and ((c3 * d + c2) * d + c1) * d + c0 == 0
                    ]
                else:
                    roots = d_range
                if roots:
                    g = gcd(a, b, c)
                    found.extend((a, b, c, d) for d in roots if gcd(g, d) == 1)
    found.sort()
    records = []
    for coords in found:
        point = ProjPoint.from_integers(coords)
        check_invariant(_on_surface(surface, point), "an enumerated point must lie on the surface")
        records.append(rational_record(point, SOURCE_ENUMERATED))
    return records


@cache
def _directions(height: int) -> tuple:
    """Primitive integer vectors of height up to `height`, first nonzero entry > 0, in `product` order."""
    box = range(-height, height + 1)
    return tuple(v for v in product(box, repeat=4) if gcd(*v) == 1 and next(x for x in v if x) > 0)


def _tangent_direction_residuals(
    surface: CubicForm, p: Sequence[int], direction_height: int
) -> Iterable[ProjPoint]:
    """Residual points of low-height tangent lines at a rational surface point.

    `p` is the point's primitive integer vector.  Directions are `_directions`
    in the tangent plane at `p`; along each, `restrict` gives the coefficients
    of F(p + t*v) = c2*t^2 + c3*t^3 up to one factor, and the residual
    c3*p - c2*v is returned, normalized, when it is a genuine point.
    """
    grad = surface.gradient_at(p)
    for v in _directions(direction_height):
        if sum(g * x for g, x in zip(grad, v)) != 0:
            continue
        # skip directions proportional to the point itself
        if all(p[i] * v[j] == p[j] * v[i] for i, j in combinations(range(4), 2)):
            continue
        _, _, c2, c3 = restrict(surface.value_at, p, v)
        if not c2 and not c3:
            continue  # tangent line inside the surface
        residual = tuple(c3 * a - c2 * b for a, b in zip(p, v))
        if any(residual):
            yield ProjPoint.from_integers(residual)


def saturate(
    surface: CubicForm,
    seeds: Sequence[PointRecord],
    rounds: int,
    max_points: int = 400,
) -> List[PointRecord]:
    """Close a rational seed set under chords and tangent residuals.

    Runs the stated number of rounds, deduplicating normalized points, and
    caps the result size.  Tangent directions have height at most 1.
    Monotone in rounds: the seeds are always kept.  Each seed is re-based
    onto its primitive integer vector over Q, whatever algebra it came in;
    a seed with no rational normal form is refused.
    """
    if rounds < 0:
        raise ValueError(f"rounds must be >= 0, got {rounds}")
    known = {}
    for record in seeds:
        try:
            point = ProjPoint.from_integers(record.point.normalized().primitive())
        except (ValueError, ZeroDivisorFound):
            raise ValueError("saturation seeds must be rational points") from None
        if not _on_surface(surface, point):
            raise ValueError("seed point is not on the surface")
        known.setdefault(point.key(), rational_record(point, record.source))
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
            for residual in _tangent_direction_residuals(surface, record.point.primitive(), 1):
                check_invariant(
                    _on_surface(surface, residual), "a tangent residual must lie on the surface"
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
