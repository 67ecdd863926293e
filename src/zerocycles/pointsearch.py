"""Height-bounded point enumeration and secant/tangent saturation on cubic surfaces.

Both hot loops run on integers.  Enumeration joins two tables of binary cubics
when the form splits over two coordinate pairs, else scans fibre by fibre, and
rechecks every point exactly.  Saturation closes a seed set under chords and
low-height tangent residuals on primitive integer vectors, semi-naively.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product
from math import gcd, lcm
from operator import itemgetter
from typing import Collection, Iterable, List, Optional, Sequence

from .geometry import (
    CubicForm,
    GeometryError,
    RATIONALS,
    ProjPoint,
    _cubic,
    _line_residual,
    _on_surface,
    check_invariant,
    third_point,
)

SOURCE_ENUMERATED = "enumerated"
SOURCE_THIRD = "third_point"
SOURCE_TANGENT = "tangent_process"
#: The largest height `enumerate_rational` accepts: the join keeps (2h+1)^2 values.
MAX_HEIGHT = 256
#: The three ways to cut the four coordinates into two pairs.
_PAIRINGS = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))


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
    return PointRecord(point=point, degree=1, height=max(map(abs, point.primitive())), source=source)


def enumerate_rational(surface: CubicForm, height_bound: int) -> List[PointRecord]:
    """All primitive rational points of height up to the bound (1..MAX_HEIGHT), sorted.

    Height is the max absolute value of the primitive integer coordinates
    (a, b, c, d), first nonzero one positive.  A form that splits over two
    coordinate pairs runs `_join`, any other `_scan`; each vector found is
    rechecked exactly and kept as its point's primitive integer vector.
    """
    if not 1 <= height_bound <= MAX_HEIGHT:
        raise ValueError(f"height bound must lie in 1..{MAX_HEIGHT}, got {height_bound}")
    terms = surface.integer_terms()
    split = _split(terms)
    found = _join(*split, height_bound) if split else _scan(terms, height_bound)
    cubic, records = surface._integer_kernel()[1], []
    for coords in sorted(found):
        check_invariant(not _cubic(cubic, *coords), "an enumerated point must lie on the surface")
        records.append(PointRecord(ProjPoint.from_integers(coords), 1, max(map(abs, coords)), SOURCE_ENUMERATED))
    return records


def _split(terms: Sequence) -> Optional[tuple]:
    """(((i, j), (k, l)), (g, h)) for the first pairing with P = G(x_i, x_j) + H(x_k, x_l),
    g[e] and h[e] the coefficients of x^(3-e) y^e in G and H; None if there is none."""
    for (i, j), (k, l) in _PAIRINGS:
        g, h = [0] * 4, [0] * 4
        for exp, c in terms:
            if exp[i] + exp[j] == 3:
                g[exp[j]] += c
            elif exp[k] + exp[l] == 3:
                h[exp[l]] += c
            else:
                break
        else:
            return ((i, j), (k, l)), (g, h)
    return None


def _binary_rows(coeffs: Sequence[int], box: range) -> Iterable[tuple]:
    """(x, [c0*x^3 + c1*x^2*y + c2*x*y^2 + c3*y^3 for y in box]) for x in box, by Horner in y."""
    c0, c1, c2, c3 = coeffs
    for x in box:
        k2, k1, k0 = c2 * x, c1 * x * x, c0 * x * x * x
        yield x, [((c3 * y + k2) * y + k1) * y + k0 for y in box]


def _join(pairing: tuple, sides: tuple, h: int) -> list:
    """The canonical primitive zeros of G(x_i, x_j) + H(x_k, x_l) in the height box, by a
    meet in the middle: the values of -G form one set (of ints, so no container per
    value), H's rows stream past it, and only values that meet are traced back."""
    box = range(-h, h + 1)
    g_rows = list(_binary_rows([-k for k in sides[0]], box))
    values = set().union(*(row for _, row in g_rows))
    hits = [(s, t, value) for s, row in _binary_rows(sides[1], box) if not values.isdisjoint(row)
            for t, value in zip(box, row) if value in values]
    pairs = {value: [] for _, _, value in hits}
    for x, row in g_rows:
        for y, value in zip(box, row):
            if value in pairs:
                pairs[value].append((x, y))
    place = itemgetter(*(sum(pairing, ()).index(m) for m in range(4)))  # (x_i, x_j, x_k, x_l) -> (a, b, c, d)
    found = [place((x, y, s, t)) for s, t, value in hits for x, y in pairs[value]]
    return [coords for coords in found if coords > (0, 0, 0, 0) and gcd(*coords) == 1]  # canonical, primitive


def _scan(terms: Sequence, h: int) -> list:
    """The canonical primitive zeros of P in the height box, fibre by fibre: P reduced
    once per a, per (a, b) and per (a, b, c) to c0 + c1*d + c2*d^2 + c3*d^3.  A binomial
    fibre (c1 = c2 = 0) has one candidate, -c0/c3 in a table of cubes.  Any other scans
    d by Horner, skipping a fibre whose |c0| outweighs the rest on the box and any
    nonzero d not dividing the lowest nonzero coefficient; a zero fibre keeps all d."""
    full = range(-h, h + 1)
    cubes = {d**3: d for d in full}
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
    return found


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
    in the tangent plane at `p` and off `p`; along each, F(p + t*v) = c2*t^2 +
    c3*t^3 up to one factor, and the residual c3*p - c2*v is returned when it
    is a genuine point (`_line_residual`).
    """
    g0, g1, g2, g3 = surface.gradient_at(p)
    p0, p1, p2, p3 = p
    for v in _directions(direction_height):
        v0, v1, v2, v3 = v
        if g0 * v0 + g1 * v1 + g2 * v2 + g3 * v3:
            continue
        # skip directions proportional to the point itself: every 2x2 minor of (p, v) vanishes
        if (p0 * v1 == p1 * v0 and p0 * v2 == p2 * v0 and p0 * v3 == p3 * v0
                and p1 * v2 == p2 * v1 and p1 * v3 == p3 * v1 and p2 * v3 == p3 * v2):
            continue
        residual = _line_residual(surface, RATIONALS, p, v, 2)
        if residual is not None:  # else the tangent line lies in the surface
            yield ProjPoint.from_integers(residual)


def _in_key_order(vectors: Collection[tuple]) -> list:
    """Primitive vectors sorted as `ProjPoint.key` sorts their points, on integers: each
    coordinate over its vector's last nonzero entry, then over den, the lcm of those
    entries, and a zero coordinate first, below every numerator (each >= -den * height)."""
    lasts = [next(v for v in reversed(vector) if v) for vector in vectors]
    den = lcm(*lasts)
    zero = -den * max((max(map(abs, vector)) for vector in vectors), default=0) - 1
    scales = [den // last for last in lasts]
    keys = {vector: tuple([v * scale if v else zero for v in vector]) for vector, scale in zip(vectors, scales)}
    return sorted(vectors, key=keys.__getitem__)


def saturate(
    surface: CubicForm, seeds: Sequence[PointRecord], rounds: int, max_points: int = 400
) -> List[PointRecord]:
    """Close a rational seed set under chords and tangent residuals.

    Runs the stated number of rounds, deduplicating points by their primitive
    integer vectors, and caps the result size.  Tangent directions have height
    at most 1.  Monotone in rounds: the seeds are always kept.  Each seed is
    re-based onto its primitive integer vector over Q, whatever algebra it came
    in; a seed with no rational normal form is refused.  A round adds, in key
    order up to the cap, the third points of chords with a point new since the
    last round, then the tangent residuals at new points: the other chords and
    scans ran before and all they give is known, as a round the cap cut is last.
    """
    if rounds < 0:
        raise ValueError(f"rounds must be >= 0, got {rounds}")
    known = {}
    for record in seeds:
        try:
            point = ProjPoint.from_integers(record.point.normalized().primitive())
        except ValueError:
            raise ValueError("saturation seeds must be rational points") from None
        if not _on_surface(surface, point):
            raise ValueError("seed point is not on the surface")
        if point.primitive() not in known:
            known[point.primitive()] = rational_record(point, record.source)
    new = set(known)
    for _ in range(rounds):
        if len(known) >= max_points:
            break
        current = [(known[v], v in new) for v in _in_key_order(known)]
        fresh = []
        for i, (a, a_new) in enumerate(current):
            for b, b_new in current[i + 1:]:
                try:
                    if a_new or b_new:
                        fresh.append((third_point(surface, a.point, b.point), SOURCE_THIRD))
                except GeometryError:
                    continue
        for record in [a for a, a_new in current if a_new]:
            for residual in _tangent_direction_residuals(surface, record.point.primitive(), 1):
                check_invariant(_on_surface(surface, residual), "a tangent residual must lie on the surface")
                fresh.append((residual, SOURCE_TANGENT))
        new = set()
        for point, source in fresh:
            if len(known) < max_points and point.primitive() not in known:
                known[point.primitive()] = rational_record(point, source)
                new.add(point.primitive())
        if not new:
            break
    return [known[v] for v in _in_key_order(known)]
