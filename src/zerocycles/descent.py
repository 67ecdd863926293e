"""Degree descent for 0-cycles on del Pezzo surfaces of degree 1, 2, 3.

A `CycleState` records the identity  z = sign * z' + sum(coeff_b * b)  in the
Chow group of 0-cycles, where z' is an unknown effective cycle of the stated
degree and b runs over the basis cycles (h, the degree-d_S class cut by the
anticanonical geometry, and optionally x4 of degree 4 on cubic surfaces).
Moves rewrite the right-hand side; each move is guarded by exact inequality
side conditions on the section counts h0(l) = 1 + d_S*(l^2+l)/2 and is
treated as a sound axiom (the geometry backing the moves is not finitely
checkable and is not re-derived here).

Certificates are replayable chains of moves carrying their inequality
witnesses; the verifier recomputes every count through a separate code path
(a recurrence instead of the closed form) so that search and verification
cannot share an arithmetic bug.
"""

from __future__ import annotations

import functools
import math
from array import array
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

BASIS_H = "h"
BASIS_X4 = "x4"

#: Smallest m with O(m) very ample, per surface degree.
VERY_AMPLE_MIN = {3: 1, 2: 2, 1: 3}
#: Smallest l with O(l) globally generated, per surface degree.
GLOBALLY_GENERATED_MIN = {3: 1, 2: 1, 1: 2}
#: Each surface's basis, name -> degree, one dict shared by its instances.
_BASES = {(d, False): {BASIS_H: d} for d in (1, 2, 3)}
_BASES[3, True] = {BASIS_H: 3, BASIS_X4: 4}


class DescentError(Exception):
    pass


class PreconditionFailed(DescentError):
    """A move's guarding inequality does not hold; names the failed condition."""

    def __init__(self, move_kind: str, condition: str):
        super().__init__(f"{move_kind}: {condition}")
        self.move_kind = move_kind
        self.condition = condition


class DegreeOutOfRange(DescentError, ValueError):
    """A start degree whose search caps reach past `R_MAX`; nothing is searched."""


class CertificateNotFound(DescentError):
    def __init__(self, surface, start_degree, goal, explored):
        super().__init__(
            f"no certificate from degree {start_degree} to goal {goal.name} "
            f"on dP{surface.degree} (explored {explored} states)"
        )
        self.explored = explored


def h0(d_S: int, l: int) -> int:
    """Sections of O(l) on a del Pezzo surface of degree d_S: 1 + d_S(l^2+l)/2."""
    if d_S not in (1, 2, 3):
        raise ValueError(f"surface degree must be 1, 2 or 3, got {d_S}")
    if l < 0:
        raise ValueError("l must be nonnegative")
    return 1 + d_S * (l * l + l) // 2


def h0_by_recurrence(d_S: int, l: int) -> int:
    """Independent route to h0 for the verifier: h0(l) = h0(l-1) + d_S*l."""
    if d_S not in (1, 2, 3):
        raise ValueError(f"surface degree must be 1, 2 or 3, got {d_S}")
    if l < 0:
        raise ValueError("l must be nonnegative")
    return _recurrence(d_S, l)


@functools.lru_cache(maxsize=1024, typed=True)  # l = 2.0 must not read l = 2's entry
def _recurrence(d_S: int, l: int) -> int:
    value = 1
    for k in range(1, l + 1):
        value += d_S * k
    return value


def genus(d_S: int, l: int) -> int:
    """Genus of a smooth curve C in |O(l)|: h0(l-1) = 1 + d_S*l*(l-1)/2.

    By adjunction K_C = O(l-1)|_C, and every section of it comes from the
    surface, since h0 and h1 of O(-1) = K vanish.
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    return h0(d_S, l - 1)


def _require_object(obj, what: str) -> None:
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, not {type(obj).__name__}")


def _require_int(value, what: str) -> None:
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, not {type(value).__name__}")


def _require_combo(combo, what: str) -> None:
    _require_object(combo, what)
    for name, value in combo.items():
        if type(name) is not str:
            raise ValueError(f"basis cycle names must be strings, not {type(name).__name__}")
        _require_int(value, f"coefficient of {name!r}")


@dataclass(frozen=True, slots=True)
class DelPezzo:
    """Surface degree plus the available basis of 0-cycle classes."""

    degree: int
    with_x4: bool = False
    _basis: Dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if type(self.degree) is not int or self.degree not in (1, 2, 3):
            raise ValueError("surface degree must be 1, 2 or 3")
        if self.with_x4 and self.degree != 3:
            raise ValueError("a degree-4 basis cycle is only tracked on cubic surfaces")
        object.__setattr__(self, "_basis", _BASES[self.degree, bool(self.with_x4)])

    @property
    def basis(self) -> Dict[str, int]:
        return dict(self._basis)

    def combo_degree(self, combo: Dict[str, int]) -> int:
        basis = self._basis
        for name in combo:
            if name not in basis:
                raise ValueError(f"unknown basis cycle {name!r}")
        return sum(basis[name] * mult for name, mult in combo.items())

    def to_json(self) -> dict:
        return {"dS": self.degree, "basis": sorted(self._basis)}

    @classmethod
    def from_json(cls, obj: dict) -> "DelPezzo":
        _require_object(obj, "surface")
        _require_int(obj["dS"], "dS")
        basis = obj.get("basis", [])
        if not isinstance(basis, list) or not all(isinstance(b, str) for b in basis):
            raise ValueError("basis must be a JSON list of basis cycle names")
        return cls(degree=obj["dS"], with_x4=BASIS_X4 in basis)


@dataclass(frozen=True, slots=True)
class CycleState:
    """z = sign * z' + sum(coeffs[b] * b), with z' effective of unknown_degree."""

    sign: int
    unknown_degree: int
    coeffs: Tuple[Tuple[str, int], ...] = ()

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if self.unknown_degree < 0:
            raise ValueError("unknown degree must be nonnegative")

    @classmethod
    def entry(cls, degree: int) -> "CycleState":
        return cls(sign=1, unknown_degree=degree)

    @classmethod
    def make(cls, sign: int, unknown_degree: int, coeffs: Dict[str, int]) -> "CycleState":
        if unknown_degree == 0:
            sign = 1  # the sign of an empty cycle carries no content
        items = [(k, v) for k, v in coeffs.items() if v != 0]
        return cls(sign, unknown_degree, tuple(sorted(items)) if len(items) > 1 else tuple(items))

    def coeff_dict(self) -> Dict[str, int]:
        return dict(self.coeffs)

    def total_degree(self, surface: DelPezzo) -> int:
        basis = surface._basis
        return self.sign * self.unknown_degree + sum(
            basis[name] * mult for name, mult in self.coeffs
        )

    def to_json(self) -> dict:
        return {
            "sign": self.sign,
            "unknown_degree": self.unknown_degree,
            "coeffs": self.coeff_dict(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CycleState":
        _require_object(obj, "cycle state")
        coeffs = obj.get("coeffs", {})
        _require_combo(coeffs, "coeffs")
        _require_int(obj["sign"], "sign")
        _require_int(obj["unknown_degree"], "unknown_degree")
        return cls.make(obj["sign"], obj["unknown_degree"], coeffs)


@dataclass(frozen=True, slots=True)
class Move:
    """One rewrite step; `kind` selects the rule, parameters are rule-specific.

    Each rule names a class C: the flipping ones replace z' by C - z', the
    others replace z' by z' - C (`apply_move`).  kinds and their data:
      Complement(l)           -- flips, C = c1(O(l+1))^2 = (l+1)^2*h
      VariantComplement(l)    -- flips, C = l(l+1)*c1(O(1))^2 = l(l+1)*h
      VBSubtract(l, target)   -- C = target, an effective basis combo
      InvolutionFlip          -- degree-2 only, flips: z' + iota(z') =
                                 (deg z')*h, so C = (deg z')*h
      CurveRR(l, combo)       -- flips, C = combo, via Riemann-Roch on a
                                 curve in |O(l)| supporting the pieces
      AddBasis(combo)         -- C = -combo: absorb a nonnegative basis
                                 combo into z'
      EntryRR(gamma)          -- entry only, C = -gamma*h: an abstract class
                                 z of degree d satisfies z + gamma*h
                                 effective for some gamma; records one
                                 concrete choice
    """

    kind: str
    l: Optional[int] = None
    gamma: Optional[int] = None
    combo: Tuple[Tuple[str, int], ...] = ()
    _plain: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # 1.0 == 1 and hash alike, so only a move of ints and names uses `_rule`'s memo
        plain = type(self.kind) is str and type(self.l) in (int, type(None))
        pairs = self.combo if type(self.combo) is tuple else [None]
        plain = plain and all(type(p) is tuple and tuple(map(type, p)) == (str, int) for p in pairs)
        object.__setattr__(self, "_plain", plain)

    @classmethod
    def complement(cls, l: int) -> "Move":
        return cls(kind="Complement", l=l)

    @classmethod
    def vb_subtract(cls, l: int, target: Dict[str, int]) -> "Move":
        return cls(kind="VBSubtract", l=l, combo=tuple(sorted(target.items())))

    @classmethod
    def add_basis(cls, combo: Dict[str, int]) -> "Move":
        return cls(kind="AddBasis", combo=tuple(sorted(combo.items())))

    @classmethod
    def entry_rr(cls, gamma: int) -> "Move":
        return cls(kind="EntryRR", gamma=gamma)

    def combo_dict(self) -> Dict[str, int]:
        return dict(self.combo)

    def to_json(self, witness: Optional[dict] = None) -> dict:
        out = {"kind": self.kind}
        if self.l is not None:
            out["l"] = self.l
        if self.gamma is not None:
            out["gamma"] = self.gamma
        if self.combo:
            key = "target" if self.kind == "VBSubtract" else "combo"
            out[key] = self.combo_dict()
        if witness is not None:
            out["witness"] = dict(witness)
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "Move":
        _require_object(obj, "move")
        combo = obj.get("target", obj.get("combo", {}))
        _require_combo(combo, "move target/combo")
        for key in ("l", "gamma"):
            if obj.get(key) is not None:
                _require_int(obj[key], key)
        return cls(
            kind=obj["kind"],
            l=obj.get("l"),
            gamma=obj.get("gamma"),
            combo=tuple(sorted(combo.items())),
        )


def apply_move(
    surface: DelPezzo, state: CycleState, move: Move, h0_fn=h0, is_entry: bool = False
) -> Tuple[CycleState, dict]:
    """Apply one move, checking its side conditions exactly.

    Each rule checks its guards and names a class C (a basis combo), its
    degree c and a witness of the section counts it used; then one of two
    rewrites applies, and either adds sign * C to the basis coefficients:
    z' -> C - z' (sign flips, new degree c - d) for Complement,
    VariantComplement, InvolutionFlip and CurveRR, and z' -> z' - C (sign
    kept, new degree d - c) for VBSubtract, AddBasis and EntryRR.  CurveRR
    reads its genus as h0_fn(l - 1), as `genus` does.  Every rule but EntryRR
    reads only d of the state, and is memoized (`_rule`).

    Returns (new state, witness dict of the section counts used).  Raises
    PreconditionFailed naming the violated inequality.
    """
    d, sign = state.unknown_degree, state.sign
    if move.kind == "EntryRR":  # the one rule that reads more than d
        if not is_entry:
            raise PreconditionFailed("EntryRR", "EntryRR is only valid as the first move of a certificate")
        if sign != 1 or state.coeffs:
            raise PreconditionFailed("EntryRR", "EntryRR applies to a bare class state")
        if move.gamma is None or move.gamma < 1:
            raise PreconditionFailed("EntryRR", "gamma must be a positive integer")
        flips, combo, c, witness = False, ((BASIS_H, -move.gamma),), -move.gamma * surface.degree, {}
    else:
        rule = _rule if move._plain and type(d) is int else _rule.__wrapped__
        args = surface.degree, surface.with_x4, move.kind, move.l, move.combo, d, h0_fn
        flips, combo, c, witness = rule(*args)
    coeffs = dict(state.coeffs)
    for name, mult in combo:
        coeffs[name] = coeffs.get(name, 0) + sign * mult
    new_sign, new_degree = (-sign, c - d) if flips else (sign, d - c)
    return CycleState.make(new_sign, new_degree, coeffs), witness.copy()


@functools.lru_cache(maxsize=512)
def _rule(d_S: int, with_x4: bool, kind: str, l: Optional[int], combo: tuple, d: int, h0_fn) -> tuple:
    """(flips, C as (name, multiple) pairs, c, witness) of a move but EntryRR
    at unknown degree d, or PreconditionFailed, which is not cached.  Search
    and verifier share the memo, each keyed on its own pure `h0_fn`; the
    witness is the memo's, so `apply_move` hands out a copy."""
    surface = DelPezzo(d_S, with_x4)

    def fail(condition: str):
        raise PreconditionFailed(kind, condition)

    def checked_degree(combo: Dict[str, int]) -> int:
        for name in combo:
            if name not in surface._basis:
                fail(f"basis cycle {name!r} is not available on this surface")
        return surface.combo_degree(combo)

    if kind == "Complement":
        m = l + 1
        if m < VERY_AMPLE_MIN[d_S]:
            fail(f"O({m}) is not very ample on dP{d_S}")
        count = h0_fn(d_S, m)
        if not d <= count - 2:
            fail(f"d={d} <= h0({d_S},{m})-2={count - 2} fails")
        return True, ((BASIS_H, m * m),), d_S * m * m, {"h0_m": count}
    if kind == "VariantComplement":
        if l < GLOBALLY_GENERATED_MIN[d_S]:
            fail(f"O({l}) is not globally generated on dP{d_S}")
        count_l, count_l1, count_1 = h0_fn(d_S, l), h0_fn(d_S, l + 1), h0_fn(d_S, 1)
        if not count_l >= d + 1:
            fail(f"h0({d_S},{l})={count_l} >= d+1={d + 1} fails")
        if not count_l1 - d > count_1:
            fail(f"h0({d_S},{l + 1})-d={count_l1 - d} > h0({d_S},1)={count_1} fails")
        witness = {"h0_l": count_l, "h0_l1": count_l1, "h0_1": count_1}
        return True, ((BASIS_H, l * (l + 1)),), d_S * l * (l + 1), witness
    if kind == "VBSubtract":
        combo = dict(combo)
        if not combo or any(v <= 0 for v in combo.values()):
            fail("subtraction target must be a nonzero nonnegative basis combo")
        if d_S in (1, 2) and set(combo) != {BASIS_H}:
            fail(f"on dP{d_S} only multiples of h may be subtracted")
        c = checked_degree(combo)
        if d_S == 3 and l < 0 or d_S in (1, 2) and l < 1:
            fail(f"l={l} out of range for dP{d_S}")
        count_l, count_l1 = h0_fn(d_S, l), h0_fn(d_S, l + 1)
        if not count_l < d:
            fail(f"h0({d_S},{l})={count_l} < d={d} fails")
        if not count_l1 - d >= 2 * c:
            fail(f"h0({d_S},{l + 1})-d={count_l1 - d} >= 2s={2 * c} fails")
        if d - c < 0:
            fail("subtracted degree exceeds the unknown degree")
        return False, tuple(combo.items()), c, {"h0_l": count_l, "h0_l1": count_l1}
    if kind == "InvolutionFlip":
        if d_S != 2:
            fail("the anticanonical involution exists only on dP2")
        return True, ((BASIS_H, d),), d_S * d, {}
    if kind == "CurveRR":
        combo = dict(combo)
        if l < 1:
            fail("CurveRR needs l >= 1")
        c = checked_degree(combo)
        positive = {n: v for n, v in combo.items() if v > 0}
        if set(positive) != {BASIS_H} or positive.get(BASIS_H, 0) % l != 0:
            fail("the intrinsic part of the combo must be a multiple of l times h")
        support = d - sum(surface._basis[n] * v for n, v in combo.items() if v < 0)
        count_l = h0_fn(d_S, l)
        if not support <= count_l - 2:
            fail(f"support degree {support} <= h0({d_S},{l})-2={count_l - 2} fails")
        g = h0_fn(d_S, l - 1)
        if not c - d >= g:
            fail(f"rewritten degree {c - d} >= genus {g} fails")
        return True, tuple(combo.items()), c, {"h0_l": count_l, "genus_l": g}
    if kind == "AddBasis":
        absorbed = dict(combo)
        if not absorbed or any(v <= 0 for v in absorbed.values()):
            fail("absorbed combo must be nonzero and nonnegative")
        c = -checked_degree(absorbed)
        return False, tuple((name, -mult) for name, mult in absorbed.items()), c, {}
    fail(f"unknown move kind {kind!r}")


@dataclass(frozen=True)
class Goal:
    """Target condition on the final state of a descent."""

    name: str
    max_degree: Optional[int] = None
    degrees: Tuple[int, ...] = ()
    sign: Optional[int] = None

    def admits(self, sign: int, degree: int) -> bool:
        """The goal test on a (sign, unknown degree) pair; degree 0 has no sign."""
        in_range = self.max_degree is not None and degree <= self.max_degree
        if not (in_range or degree in self.degrees):
            return False
        return self.sign is None or degree == 0 or sign == self.sign

    def describe(self) -> dict:
        out = {"name": self.name}
        if self.max_degree is not None:
            out["max_degree"] = self.max_degree
        if self.degrees:
            out["degrees"] = sorted(self.degrees)
        if self.sign is not None:
            out["sign"] = self.sign
        return out


GOALS = {
    "cubic": Goal("cubic", max_degree=18),
    "cubic-pos": Goal("cubic-pos", max_degree=18, sign=1),
    "cubic-neg": Goal("cubic-neg", max_degree=18, sign=-1),
    "cubic-x4": Goal("cubic-x4", max_degree=4),
    "cubic-x4-pos": Goal("cubic-x4-pos", max_degree=4, sign=1),
    "coray": Goal("coray", degrees=(1, 4)),
    "dp2": Goal("dp2", max_degree=13, sign=1),
    "dp2-refined": Goal("dp2-refined", max_degree=7, degrees=(12, 13), sign=1),
    "dp1": Goal("dp1", max_degree=15, sign=1),
    "dp1-refined": Goal("dp1-refined", max_degree=4, degrees=(7, 15)),
}


def default_goal(surface: DelPezzo, refined: bool = False) -> Goal:
    if surface.degree == 3:
        return GOALS["cubic-x4"] if surface.with_x4 else GOALS["cubic"]
    if surface.degree == 2:
        return GOALS["dp2-refined"] if refined else GOALS["dp2"]
    return GOALS["dp1-refined"] if refined else GOALS["dp1"]


@dataclass
class Certificate:
    """Replayable descent: initial state, moves with witnesses, final state."""

    surface: DelPezzo
    initial: CycleState
    moves: List[Move]
    witnesses: List[dict]
    final: CycleState
    abstract_entry: bool = False

    def to_json(self) -> dict:
        return {
            "surface": self.surface.to_json(),
            "abstract_entry": self.abstract_entry,
            "initial": self.initial.to_json(),
            "moves": [m.to_json(w) for m, w in zip(self.moves, self.witnesses)],
            "final": self.final.to_json(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Certificate":
        _require_object(obj, "certificate")
        if not isinstance(obj["moves"], list):
            raise ValueError(f"moves must be a JSON list, not {type(obj['moves']).__name__}")
        abstract_entry = obj.get("abstract_entry", False)
        if type(abstract_entry) is not bool:
            raise ValueError(f"abstract_entry must be a boolean, not {type(abstract_entry).__name__}")
        surface = DelPezzo.from_json(obj["surface"])
        initial, final = CycleState.from_json(obj["initial"]), CycleState.from_json(obj["final"])
        for state in (initial, final):
            surface.combo_degree(state.coeff_dict())  # refuses an unknown basis cycle
        return cls(
            surface=surface,
            initial=initial,
            moves=[Move.from_json(m) for m in obj["moves"]],
            witnesses=[m.get("witness", {}) for m in obj["moves"]],
            final=final,
            abstract_entry=abstract_entry,
        )


@dataclass
class VerificationReport:
    ok: bool
    failure: Optional[str] = None
    states: List[CycleState] = field(default_factory=list)

    def to_json(self) -> dict:
        return {"ok": self.ok, "failure": self.failure, "steps": len(self.states) - 1}


def verify_certificate(cert: Certificate) -> VerificationReport:
    """Replay a certificate, rechecking every inequality independently.

    Recomputes section counts by recurrence (not the closed form the search
    uses), compares them against the recorded witnesses, and checks degree
    conservation of the tracked class at every step.
    """
    state = cert.initial
    states = [state]
    surface = cert.surface
    invariant = state.total_degree(surface)
    for idx, (move, recorded) in enumerate(zip(cert.moves, cert.witnesses)):
        try:
            state, witness = apply_move(
                surface, state, move, h0_fn=h0_by_recurrence, is_entry=(idx == 0)
            )
        except PreconditionFailed as exc:
            return VerificationReport(False, f"move {idx}: {exc}", states)
        except (TypeError, ValueError) as exc:
            return VerificationReport(False, f"move {idx}: malformed move ({exc})", states)
        if recorded and recorded != witness:
            return VerificationReport(
                False,
                f"move {idx}: recorded witness {recorded} != recomputed {witness}",
                states,
            )
        if state.total_degree(surface) != invariant:
            return VerificationReport(
                False,
                f"move {idx}: degree conservation broken "
                f"({state.total_degree(surface)} != {invariant})",
                states,
            )
        states.append(state)
    if state != cert.final:
        return VerificationReport(
            False, f"final state mismatch: replay ended at {state}", states
        )
    return VerificationReport(True, None, states)


def _first_l(d_S: int, bound: int, lo: int) -> int:
    """Smallest l >= lo with h0(d_S, l) >= bound, in closed form.

    h0(l) >= bound  iff  l*(l+1) >= t := ceil(2*(bound-1)/d_S), since l*(l+1)
    is an integer; l = (isqrt(4t+1)-1)//2 is the largest l with l*(l+1) <= t.
    """
    t = -(-2 * (bound - 1) // d_S)
    if t <= 0:
        return lo
    l = (math.isqrt(4 * t + 1) - 1) // 2
    if l * (l + 1) < t:
        l += 1
    return max(l, lo)


def _menu(surface: DelPezzo, degree: int) -> list:
    """Deterministically ordered move menu at a given unknown degree.

    Entries are plain tuples (flips_sign, new_degree, l or -1, kind, basis
    name or None, multiple); `_move_of` turns one into a `Move`.  Move guards
    depend only on the unknown degree.  Order mirrors the proofs' preference:
    subtract while the strict section inequality holds, fall back to
    complements, then bookkeeping additions and the involution flip.

    Each complement kind offers one entry, at its smallest legal parameter:
    Complement at the smallest very ample m with degree <= h0(m) - 2, and
    VariantComplement at the smallest l with h0(l) >= degree + 1.  Larger
    parameters are legal too, but a menu with three more of each finds the
    same chain for every default goal from every start up to 2*10**4, and
    the same chain or failure for every goal and surface from starts 0..300.
    """
    d_S = surface.degree
    out = []
    # Only the last l with h0(l) < degree can subtract: for a smaller l,
    # h0(l+1) <= h0(l_top) < degree, so h0(l+1) - degree >= 2s fails.
    l_lo = 0 if d_S == 3 else 1
    l = _first_l(d_S, degree, l_lo) - 1
    if l >= l_lo:
        room = h0(d_S, l + 1) - degree
        targets = [(BASIS_H, 1, d_S), (BASIS_H, 2, 2 * d_S)]
        if d_S == 1:
            targets.append((BASIS_H, 3, 3))
        if surface.with_x4:
            targets.append((BASIS_X4, 1, 4))
        for name, mult, s in targets:
            if room >= 2 * s and degree >= s:
                out.append((False, degree - s, l, "VBSubtract", name, mult))
    m = _first_l(d_S, degree + 2, VERY_AMPLE_MIN[d_S])
    out.append((True, d_S * m * m - degree, m - 1, "Complement", None, 0))
    # With l >= 1 and h0(l) >= degree + 1, h0(l+1) - degree >= 1 + d_S*(l+1)
    # > h0(1), so this entry is legal.
    l = _first_l(d_S, degree + 1, GLOBALLY_GENERATED_MIN[d_S])
    out.append((True, d_S * l * (l + 1) - degree, l, "VariantComplement", None, 0))
    out += [(False, degree + k * d_S, -1, "AddBasis", BASIS_H, k) for k in (1, 2, 3)]
    if surface.with_x4:
        out.append((False, degree + 4, -1, "AddBasis", BASIS_X4, 1))
        out.append((False, degree + 8, -1, "AddBasis", BASIS_X4, 2))
    if d_S == 2:
        out.append((True, degree, -1, "InvolutionFlip", None, 0))
    return out


def _move_of(entry: tuple) -> Move:
    return _move(*entry[2:])


@functools.lru_cache(maxsize=1024)
def _move(l: int, kind: str, name: Optional[str], mult: int) -> Move:
    """The one `Move` that every chain taking this menu move shares."""
    return Move(kind=kind, l=None if l < 0 else l, combo=((name, mult),) if name else ())


def _child(node: int, flips: bool, new_degree: int) -> int:
    """Search nodes are sign * unknown degree, so degree 0 keeps sign +1."""
    return -new_degree if (node < 0) != flips else new_degree


def _bfs(surface: DelPezzo, start_degree: int, goal: Goal) -> list:
    """Reference search: breadth-first from the start, menu entries of the chain.

    Nodes are expanded in FIFO order and children in menu order, and each
    node keeps the first parent that reaches it, so the chain is the
    lexicographically least (by menu index) among the shortest chains in the
    graph of degrees <= start_degree + 20 and parameters l <= start_degree + 4.
    """
    cap = start_degree + 20
    l_max = start_degree + 4
    parents = {start_degree: None}
    queue = deque([start_degree])
    goal_node = start_degree if goal.admits(1, start_degree) else None
    while queue and goal_node is None:
        node = queue.popleft()
        for entry in _menu(surface, abs(node)):
            flips, new_degree, l = entry[:3]
            if new_degree > cap or l > l_max:
                continue
            child = _child(node, flips, new_degree)
            if child in parents:
                continue
            parents[child] = (node, entry)
            if goal.admits(-1 if child < 0 else 1, new_degree):
                goal_node = child
                break
            queue.append(child)

    if goal_node is None:
        raise CertificateNotFound(surface, start_degree, goal, len(parents))
    chain = []
    node = goal_node
    while parents[node] is not None:
        node, entry = parents[node]
        chain.append(entry)
    chain.reverse()
    return chain


#: Largest degree a distance table covers, so every start up to 10**6 gets one
#: (its caps reach start + 20).  A start above R_MAX - 20 is refused.
R_MAX = 10**6 + 20

#: (surface degree, with_x4, goal) -> (R, distances to the goal of the nodes
#: -R..R, stored at index node + R and -1 where the goal is out of reach,
#: the first menu entry one step closer from each node walked so far).
_tables: Dict[tuple, Tuple[int, array, Dict[int, tuple]]] = {}


def _distance_table(surface: DelPezzo, goal: Goal, R: int) -> array:
    """Exact distances to the goal in the move graph on degrees <= R, no l cap.

    A reverse breadth-first search from the goal nodes over predecessor
    lists kept in flat arrays (compressed rows), which are freed on return.
    """
    size = 2 * R + 1
    sources, targets = array("i"), array("i")
    for degree in range(R + 1):
        nodes = (degree, -degree) if degree else (0,)
        for flips, new_degree, *_ in _menu(surface, degree):
            if new_degree <= R:
                for node in nodes:
                    sources.append(node + R)
                    targets.append(_child(node, flips, new_degree) + R)
    row = array("i", [0]) * (size + 1)
    for t in targets:
        row[t + 1] += 1
    for i in range(size):
        row[i + 1] += row[i]
    fill = row[:-1]
    preds = array("i", [0]) * len(sources)
    for s, t in zip(sources, targets):
        preds[fill[t]] = s
        fill[t] += 1
    del sources, targets, fill

    dist = array("i", [-1]) * size
    queue = deque(
        node + R for node in range(-R, R + 1) if goal.admits(-1 if node < 0 else 1, abs(node))
    )
    for i in queue:
        dist[i] = 0
    while queue:
        i = queue.popleft()
        step = dist[i] + 1
        for k in range(row[i], row[i + 1]):
            p = preds[k]
            if dist[p] < 0:
                dist[p] = step
                queue.append(p)
    return dist


def _walk(surface: DelPezzo, table: tuple, start_degree: int) -> Optional[list]:
    """The lexicographically least shortest chain in the table's graph, if it
    keeps to the start's caps (then it is exactly what `_bfs` returns)."""
    R, dist, closer = table
    remaining = dist[start_degree + R]
    if remaining < 0:
        return None
    cap = start_degree + 20
    l_max = start_degree + 4
    node = start_degree
    chain = []
    while remaining:
        remaining -= 1
        entry = closer.get(node)
        if entry is None:
            for entry in _menu(surface, abs(node)):
                flips, new_degree = entry[:2]
                if new_degree <= R and dist[_child(node, flips, new_degree) + R] == remaining:
                    break
            closer[node] = entry
        flips, new_degree, l = entry[:3]
        if new_degree > cap or l > l_max:
            return None
        node = _child(node, flips, new_degree)
        chain.append(entry)
    return chain


def _chain(surface: DelPezzo, start_degree: int, goal: Goal) -> List[Move]:
    """The moves of `_bfs`'s chain from the start, found through a shared table.

    Every call shares one table per (surface, goal) of exact distances to
    the goal in the move graph on degrees <= R without the l cap.  With
    R >= start_degree + 20 that graph contains the start's, so walking it
    from the start by the first menu move one step closer gives `_bfs`'s
    chain whenever every step keeps to the start's caps.  The first call
    builds the table at R = cap; a later call with R < cap <= 2R rebuilds it
    at min(2R, R_MAX).  A call with cap > 2R -- an isolated start far above
    the earlier ones -- a walk that leaves the caps, and an unreachable goal
    run `_bfs` itself.  A start with cap > R_MAX raises DegreeOutOfRange.
    """
    if start_degree < 0:
        raise ValueError("start degree must be nonnegative")
    cap = start_degree + 20
    if cap > R_MAX:
        raise DegreeOutOfRange(f"start degree {start_degree} reaches {cap} > R_MAX = {R_MAX}")
    key = (surface.degree, surface.with_x4, goal)
    table = _tables.get(key)
    chain = None
    if table is None or cap <= 2 * table[0]:
        if table is None or cap > table[0]:
            R = cap if table is None else min(2 * table[0], R_MAX)
            table = _tables[key] = (R, _distance_table(surface, goal, R), {})
        chain = _walk(surface, table, start_degree)
    if chain is None:
        chain = _bfs(surface, start_degree, goal)
    return [_move_of(entry) for entry in chain]


def _replay(surface: DelPezzo, initial: CycleState, moves: List[Move], abstract_entry=False):
    """The certificate of `moves` from `initial`, with each move's witness."""
    state = initial
    witnesses = []
    for idx, move in enumerate(moves):
        state, witness = apply_move(surface, state, move, is_entry=(idx == 0))
        witnesses.append(witness)
    return Certificate(surface, initial, moves, witnesses, state, abstract_entry)


def find_certificate(surface: DelPezzo, start_degree: int, goal: Goal) -> Certificate:
    """Shortest verified descent from an effective cycle of the start degree.

    The search runs over (sign, unknown degree) nodes -- move guards depend
    on nothing else -- with move parameters capped at start_degree + 4 and
    degrees at start_degree + 20.  The answer is the chain `_bfs` returns:
    the lexicographically least, by menu index, among the shortest chains.
    """
    return _replay(surface, CycleState.entry(start_degree), _chain(surface, start_degree, goal))


def entry_certificate(surface: DelPezzo, class_degree: int, gamma: int, goal: Goal) -> Certificate:
    """Certificate for an abstract class: EntryRR first, then a found descent."""
    entry_move = Move.entry_rr(gamma)
    initial = CycleState.entry(class_degree)
    # Checks gamma before any search and gives the degree the descent starts at.
    after_entry, _ = apply_move(surface, initial, entry_move, is_entry=True)
    tail = _chain(surface, after_entry.unknown_degree, goal)
    return _replay(surface, initial, [entry_move] + tail, abstract_entry=True)


@dataclass
class SuiteRow:
    start_degree: int
    final_degree: int
    final_sign: int
    moves: int
    verified: bool


@dataclass
class SuiteReport:
    surface: DelPezzo
    goal: Goal
    rows: List[SuiteRow]

    @property
    def all_verified(self) -> bool:
        return all(r.verified for r in self.rows)

    @property
    def max_final_degree(self) -> int:
        return max(r.final_degree for r in self.rows)

    def to_json(self) -> dict:
        return {
            "surface": self.surface.to_json(),
            "goal": self.goal.describe(),
            "all_verified": self.all_verified,
            "max_final_degree": self.max_final_degree,
            "rows": [
                {
                    "start": r.start_degree,
                    "final": r.final_degree,
                    "sign": r.final_sign,
                    "moves": r.moves,
                    "verified": r.verified,
                }
                for r in self.rows
            ],
        }


def prove_bound_suite(
    surface: DelPezzo,
    goal: Optional[Goal] = None,
    ceiling: int = 200,
) -> SuiteReport:
    """Find and verify a descent certificate for every start degree 1..ceiling.

    Raises CertificateNotFound if any degree fails; a sound suite is the
    machine-checked content of the effectivity bounds.  Raises ValueError
    if the ceiling is below 1, which leaves nothing to certify.
    """
    if ceiling < 1:
        raise ValueError(f"the range 1..{ceiling} holds no degree")
    goal = goal or default_goal(surface)
    rows = []
    for degree in range(1, ceiling + 1):
        cert = find_certificate(surface, degree, goal)
        report = verify_certificate(cert)
        rows.append(
            SuiteRow(
                start_degree=degree,
                final_degree=cert.final.unknown_degree,
                final_sign=cert.final.sign,
                moves=len(cert.moves),
                verified=report.ok,
            )
        )
    return SuiteReport(surface=surface, goal=goal, rows=rows)


def effectivity_threshold_report(
    surface: DelPezzo,
    threshold: int,
    ceiling: int = 200,
    even_only: bool = False,
) -> dict:
    """Replay the sign-resolution argument behind an effectivity threshold.

    For every class degree D >= threshold (even degrees only, if requested),
    wrap an abstract class via EntryRR with gamma = 1, descend to the
    positive-sign goal, and check that the leftover basis coefficient is
    nonnegative -- which is what makes the original class effective.  With
    a mixed (h, x4) basis the leftover combo is effective as soon as its
    degree is at least the genus of a supporting quadric section, and that
    rule is reported instead.  Raises ValueError if the range holds no
    degree, which leaves nothing to check.
    """
    degrees = [D for D in range(threshold, ceiling + 1) if not even_only or D % 2 == 0]
    if not degrees:
        even = "even " if even_only else ""
        raise ValueError(f"the range {threshold}..{ceiling} holds no {even}degree")
    goal = default_goal(surface)
    if surface.degree == 3:
        goal = GOALS["cubic-x4-pos"] if surface.with_x4 else GOALS["cubic-pos"]
    basis_genus = genus(surface.degree, 2) if surface.with_x4 else None
    if surface.with_x4:
        rule = f"leftover degree >= genus {basis_genus}"
    else:
        rule = "h coefficient >= 0"
    rows = []
    ok = True
    for degree in degrees:
        cert = entry_certificate(surface, degree, 1, goal)
        verified = verify_certificate(cert).ok
        final = cert.final
        coeffs = final.coeff_dict()
        leftover_degree = degree - final.unknown_degree
        if surface.with_x4:
            effective = final.sign == 1 and leftover_degree >= basis_genus
        else:
            effective = final.sign == 1 and coeffs.get(BASIS_H, 0) >= 0
        row_ok = verified and effective
        ok = ok and row_ok
        rows.append(
            {
                "degree": degree,
                "final": final.unknown_degree,
                "sign": final.sign,
                "coeffs": coeffs,
                "verified": verified,
                "effective": effective,
            }
        )
    return {
        "surface": surface.to_json(),
        "threshold": threshold,
        "even_only": even_only,
        "rule": rule,
        "all_effective": ok,
        "rows": rows,
    }


def induction_step_moves(degree: int) -> List[Move]:
    """The proof-mirroring descent step on a cubic surface for degree >= 20.

    Returns at most 3 moves that strictly decrease the unknown degree:
    handle the two exceptional degrees below h0(l+1) by adding h and
    subtracting with doubled target, complement when the degree sits in the
    upper half of its window, and subtract h otherwise.
    """
    if degree < 20:
        raise ValueError("the induction step starts at degree 20")
    l = _first_l(3, degree, 2) - 1
    # now h0(3, l) < degree <= h0(3, l + 1)
    if degree in (h0(3, l + 1), h0(3, l + 1) - 1):
        return [Move.add_basis({BASIS_H: 1}), Move.vb_subtract(l + 1, {BASIS_H: 2})]
    if 2 * degree > 3 * (l + 1) ** 2:
        return [Move.complement(l)]
    return [Move.vb_subtract(l, {BASIS_H: 1})]
