import functools
import hashlib
import json
import random
from collections import Counter
from pathlib import Path

import pytest

from zerocycles import descent
from zerocycles.descent import (
    BASIS_H,
    BASIS_X4,
    GLOBALLY_GENERATED_MIN,
    VERY_AMPLE_MIN,
    Certificate,
    CertificateNotFound,
    CycleState,
    DegreeOutOfRange,
    DelPezzo,
    GOALS,
    Goal,
    Move,
    PreconditionFailed,
    apply_move,
    default_goal,
    effectivity_threshold_report,
    entry_certificate,
    find_certificate,
    genus,
    h0,
    h0_by_recurrence,
    induction_step_moves,
    prove_bound_suite,
    verify_certificate,
)

CUBIC = DelPezzo(3)
CUBIC_X4 = DelPezzo(3, with_x4=True)
DP2 = DelPezzo(2)
DP1 = DelPezzo(1)


class TestSectionCounts:
    def test_pinned_values(self):
        assert h0(3, 3) == 19
        assert h0(2, 3) == 13
        assert h0(1, 5) == 16

    def test_recurrence_agrees_with_closed_form(self):
        for d_S in (1, 2, 3):
            for l in range(0, 30):
                assert h0_by_recurrence(d_S, l) == h0(d_S, l)
            for l in range(1, 41):
                assert genus(d_S, l) == h0_by_recurrence(d_S, l - 1)
                assert 2 * genus(d_S, l) - 2 == d_S * l * (l - 1)  # adjunction

    def test_genus_values(self):
        assert genus(3, 2) == 4
        assert genus(2, 3) == 7
        for d_S in (1, 2, 3):
            assert genus(d_S, 1) == 1  # anticanonical curves are elliptic

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            h0(4, 1)
        with pytest.raises(ValueError):
            h0(3, -1)
        with pytest.raises(ValueError):
            genus(3, 0)
        with pytest.raises(ValueError):
            genus(4, 2)
        for route in (h0, h0_by_recurrence):
            with pytest.raises(ValueError, match="^l must be nonnegative$"):
                route(3, -1)
            with pytest.raises(ValueError, match="^surface degree must be 1, 2 or 3, got 4$"):
                route(4, 1)
        assert h0_by_recurrence(3, 3) == 19
        with pytest.raises(TypeError):  # a float l never reads the memo entry of its int
            h0_by_recurrence(3, 3.0)


def state(sign, degree, coeffs=None):
    return CycleState.make(sign, degree, coeffs or {})


class TestApplyMove:
    def test_complement_on_degree_28(self):
        # effective degree 28 = h0(3,4) - 3 rewrites to 16h - z' of degree 20
        st = state(1, 28, {BASIS_H: -3})
        new, witness = apply_move(CUBIC, st, Move.complement(3))
        assert witness == {"h0_m": 31}
        assert new == state(-1, 20, {BASIS_H: 13})

    def test_vb_subtract_on_degree_11(self):
        st = state(-1, 11, {BASIS_H: 7})
        new, witness = apply_move(CUBIC, st, Move.vb_subtract(2, {BASIS_H: 1}))
        assert witness == {"h0_l": 10, "h0_l1": 19}
        assert new == state(-1, 8, {BASIS_H: 6})

    def test_vb_subtract_requires_strict_inequality(self):
        st = state(1, 10)
        with pytest.raises(PreconditionFailed):
            apply_move(CUBIC, st, Move.vb_subtract(2, {BASIS_H: 1}))

    def test_involution_flip(self):
        st = state(1, 9, {BASIS_H: 2})
        new, _ = apply_move(DP2, st, Move(kind="InvolutionFlip"))
        assert new == state(-1, 9, {BASIS_H: 11})
        back, _ = apply_move(DP2, new, Move(kind="InvolutionFlip"))
        assert back == st  # self-inverse

    def test_involution_only_on_dp2(self):
        with pytest.raises(PreconditionFailed):
            apply_move(CUBIC, state(1, 5), Move(kind="InvolutionFlip"))

    def test_add_basis_bookkeeping(self):
        st = state(-1, 4, {BASIS_H: 1})
        new, _ = apply_move(CUBIC_X4, st, Move.add_basis({BASIS_X4: 1}))
        assert new == state(-1, 8, {BASIS_H: 1, BASIS_X4: 1})

    def test_curve_rr_sign_resolution(self):
        # -z' of degree 4 rewrites through 4h - x4 - z' on a genus-4 curve
        st = state(-1, 4, {BASIS_H: 2, BASIS_X4: 1})
        move = Move(kind="CurveRR", l=2, combo=((BASIS_H, 4), (BASIS_X4, -1)))
        new, witness = apply_move(CUBIC_X4, st, move)
        assert witness == {"h0_l": 10, "genus_l": 4}
        assert new.sign == 1 and new.unknown_degree == 4
        assert new.coeff_dict() == {BASIS_H: -2, BASIS_X4: 2}

    def test_curve_rr_support_bound(self):
        st = state(-1, 5, {})
        with pytest.raises(PreconditionFailed):
            apply_move(CUBIC_X4, st, Move(kind="CurveRR", l=2, combo=((BASIS_H, 4), (BASIS_X4, -1))))

    def test_entry_rr_only_first(self):
        st = state(1, 9)
        new, _ = apply_move(CUBIC, st, Move.entry_rr(2), is_entry=True)
        assert new == state(1, 15, {BASIS_H: -2})
        with pytest.raises(PreconditionFailed):
            apply_move(CUBIC, st, Move.entry_rr(2))

    def test_dp1_subtraction_restricted_to_h(self):
        st = state(1, 8)
        with pytest.raises(PreconditionFailed):
            apply_move(DP1, st, Move.vb_subtract(3, {BASIS_X4: 1}))

    def test_degree_conservation_random_chains(self):
        rng = random.Random(24)
        for _ in range(200):
            surface = rng.choice([CUBIC, CUBIC_X4, DP2, DP1])
            degree = rng.randint(0, 40)
            st = CycleState.entry(degree)
            total = st.total_degree(surface)
            for _ in range(rng.randint(1, 8)):
                moves = []
                for l in range(0, 8):
                    moves.extend(
                        [
                            Move.complement(l),
                            Move(kind="VariantComplement", l=l),
                            Move.vb_subtract(l, {BASIS_H: 1}),
                        ]
                    )
                moves.extend([Move.add_basis({BASIS_H: 1}), Move(kind="InvolutionFlip")])
                move = rng.choice(moves)
                try:
                    st, _ = apply_move(surface, st, move)
                except PreconditionFailed:
                    continue
                assert st.total_degree(surface) == total


def curve_rr(l, combo):
    return Move(kind="CurveRR", l=l, combo=tuple(sorted(combo.items())))


#: Section counts for guards that no true count can reach, each named once.
def _flat_10(d_S, l):
    return 10


def _steep_100(d_S, l):
    return 100 * l


FLIP, VARIANT = Move(kind="InvolutionFlip"), Move(kind="VariantComplement", l=2)

#: (surface, state, move, is_entry, h0_fn or None for both routes, the exact error text)
GUARDS = [
    (DP1, state(1, 1), Move.complement(1), False, None,
     "Complement: O(2) is not very ample on dP1"),
    (CUBIC, state(1, 9), Move.complement(1), False, None,
     "Complement: d=9 <= h0(3,2)-2=8 fails"),
    (DP1, state(1, 1), Move(kind="VariantComplement", l=1), False, None,
     "VariantComplement: O(1) is not globally generated on dP1"),
    (CUBIC, state(1, 10), VARIANT, False, None,
     "VariantComplement: h0(3,2)=10 >= d+1=11 fails"),
    (CUBIC, state(1, 5), VARIANT, False, _flat_10,
     "VariantComplement: h0(3,3)-d=5 > h0(3,1)=10 fails"),
    (CUBIC, state(1, 5), Move(kind="VBSubtract", l=2), False, None,
     "VBSubtract: subtraction target must be a nonzero nonnegative basis combo"),
    (CUBIC, state(1, 5), Move.vb_subtract(2, {BASIS_H: 0}), False, None,
     "VBSubtract: subtraction target must be a nonzero nonnegative basis combo"),
    (DP2, state(1, 9), Move.vb_subtract(2, {BASIS_X4: 1}), False, None,
     "VBSubtract: on dP2 only multiples of h may be subtracted"),
    (CUBIC, state(1, 11), Move.vb_subtract(2, {BASIS_X4: 1}), False, None,
     "VBSubtract: basis cycle 'x4' is not available on this surface"),
    (CUBIC, state(1, 2), Move.vb_subtract(-1, {BASIS_H: 1}), False, None,
     "VBSubtract: l=-1 out of range for dP3"),
    (DP2, state(1, 2), Move.vb_subtract(0, {BASIS_H: 1}), False, None,
     "VBSubtract: l=0 out of range for dP2"),
    (CUBIC, state(1, 10), Move.vb_subtract(2, {BASIS_H: 1}), False, None,
     "VBSubtract: h0(3,2)=10 < d=10 fails"),
    (CUBIC, state(1, 18), Move.vb_subtract(2, {BASIS_H: 1}), False, None,
     "VBSubtract: h0(3,3)-d=1 >= 2s=6 fails"),
    (CUBIC, state(1, 2), Move.vb_subtract(0, {BASIS_H: 1}), False, _steep_100,
     "VBSubtract: subtracted degree exceeds the unknown degree"),
    (CUBIC, state(1, 5), FLIP, False, None,
     "InvolutionFlip: the anticanonical involution exists only on dP2"),
    (CUBIC, state(1, 3), curve_rr(0, {BASIS_H: 3}), False, None,
     "CurveRR: CurveRR needs l >= 1"),
    (CUBIC, state(-1, 4), curve_rr(2, {BASIS_H: 4, BASIS_X4: -1}), False, None,
     "CurveRR: basis cycle 'x4' is not available on this surface"),
    (CUBIC_X4, state(-1, 4), curve_rr(2, {BASIS_H: 3}), False, None,
     "CurveRR: the intrinsic part of the combo must be a multiple of l times h"),
    (CUBIC_X4, state(-1, 5), curve_rr(2, {BASIS_H: 4, BASIS_X4: -1}), False, None,
     "CurveRR: support degree 9 <= h0(3,2)-2=8 fails"),
    (CUBIC, state(1, 3), curve_rr(2, {BASIS_H: 2}), False, None,
     "CurveRR: rewritten degree 3 >= genus 4 fails"),
    (CUBIC, state(1, 4), Move.add_basis({BASIS_H: 0}), False, None,
     "AddBasis: absorbed combo must be nonzero and nonnegative"),
    (CUBIC, state(1, 4), Move.add_basis({BASIS_X4: 1}), False, None,
     "AddBasis: basis cycle 'x4' is not available on this surface"),
    (CUBIC, state(1, 9), Move.entry_rr(2), False, None,
     "EntryRR: EntryRR is only valid as the first move of a certificate"),
    (CUBIC, state(-1, 9), Move.entry_rr(2), True, None,
     "EntryRR: EntryRR applies to a bare class state"),
    (CUBIC, state(1, 9, {BASIS_H: 1}), Move.entry_rr(2), True, None,
     "EntryRR: EntryRR applies to a bare class state"),
    (CUBIC, state(1, 9), Move.entry_rr(0), True, None,
     "EntryRR: gamma must be a positive integer"),
    (CUBIC, state(1, 9), Move(kind="Twist"), False, None,
     "Twist: unknown move kind 'Twist'"),
]

#: (surface, state, move, new state, witness): one legal move of each kind on
#: each surface where that kind is legal.  EntryRR runs as a first move.
LEGAL = [
    (CUBIC, state(1, 28, {BASIS_H: -3}), Move.complement(3),
     state(-1, 20, {BASIS_H: 13}), {"h0_m": 31}),
    (CUBIC_X4, state(1, 5, {BASIS_X4: 1}), Move.complement(1),
     state(-1, 7, {BASIS_H: 4, BASIS_X4: 1}), {"h0_m": 10}),
    (DP2, state(-1, 5), Move.complement(1), state(1, 3, {BASIS_H: -4}), {"h0_m": 7}),
    (DP1, state(1, 4), Move.complement(2), state(-1, 5, {BASIS_H: 9}), {"h0_m": 7}),
    (CUBIC, state(1, 9), VARIANT,
     state(-1, 9, {BASIS_H: 6}), {"h0_l": 10, "h0_l1": 19, "h0_1": 4}),
    (CUBIC_X4, state(-1, 3, {BASIS_X4: 2}), Move(kind="VariantComplement", l=1),
     state(1, 3, {BASIS_H: -2, BASIS_X4: 2}), {"h0_l": 4, "h0_l1": 10, "h0_1": 4}),
    (DP2, state(1, 6), VARIANT,
     state(-1, 6, {BASIS_H: 6}), {"h0_l": 7, "h0_l1": 13, "h0_1": 3}),
    (DP1, state(1, 3), VARIANT,
     state(-1, 3, {BASIS_H: 6}), {"h0_l": 4, "h0_l1": 7, "h0_1": 2}),
    (CUBIC, state(-1, 11, {BASIS_H: 7}), Move.vb_subtract(2, {BASIS_H: 1}),
     state(-1, 8, {BASIS_H: 6}), {"h0_l": 10, "h0_l1": 19}),
    (CUBIC_X4, state(1, 11), Move.vb_subtract(2, {BASIS_X4: 1}),
     state(1, 7, {BASIS_X4: 1}), {"h0_l": 10, "h0_l1": 19}),
    (DP2, state(1, 9), Move.vb_subtract(2, {BASIS_H: 1}),
     state(1, 7, {BASIS_H: 1}), {"h0_l": 7, "h0_l1": 13}),
    (DP1, state(1, 5), Move.vb_subtract(2, {BASIS_H: 1}),
     state(1, 4, {BASIS_H: 1}), {"h0_l": 4, "h0_l1": 7}),
    (DP2, state(1, 9, {BASIS_H: 2}), FLIP, state(-1, 9, {BASIS_H: 11}), {}),
    (CUBIC, state(1, 3), curve_rr(2, {BASIS_H: 4}),
     state(-1, 9, {BASIS_H: 4}), {"h0_l": 10, "genus_l": 4}),
    (CUBIC_X4, state(-1, 4, {BASIS_H: 2, BASIS_X4: 1}), curve_rr(2, {BASIS_H: 4, BASIS_X4: -1}),
     state(1, 4, {BASIS_H: -2, BASIS_X4: 2}), {"h0_l": 10, "genus_l": 4}),
    (DP2, state(1, 2), curve_rr(2, {BASIS_H: 4}),
     state(-1, 6, {BASIS_H: 4}), {"h0_l": 7, "genus_l": 3}),
    (DP1, state(1, 1), curve_rr(3, {BASIS_H: 6}),
     state(-1, 5, {BASIS_H: 6}), {"h0_l": 7, "genus_l": 4}),
    (CUBIC, state(1, 4), Move.add_basis({BASIS_H: 2}), state(1, 10, {BASIS_H: -2}), {}),
    (CUBIC_X4, state(-1, 4, {BASIS_H: 1}), Move.add_basis({BASIS_X4: 1}),
     state(-1, 8, {BASIS_H: 1, BASIS_X4: 1}), {}),
    (DP2, state(-1, 3), Move.add_basis({BASIS_H: 1}), state(-1, 5, {BASIS_H: 1}), {}),
    (DP1, state(1, 2), Move.add_basis({BASIS_H: 3}), state(1, 5, {BASIS_H: -3}), {}),
    (CUBIC, state(1, 9), Move.entry_rr(2), state(1, 15, {BASIS_H: -2}), {}),
    (CUBIC_X4, state(1, 5), Move.entry_rr(1), state(1, 8, {BASIS_H: -1}), {}),
    (DP2, state(1, 5), Move.entry_rr(3), state(1, 11, {BASIS_H: -3}), {}),
    (DP1, state(1, 0), Move.entry_rr(1), state(1, 1, {BASIS_H: -1}), {}),
]


def _case_id(surface, move):
    return f"{move.kind}-dP{surface.degree}{'+x4' if surface.with_x4 else ''}"


class TestRuleTable:
    """Every guard's exact text, and one legal move of each kind per surface,
    under the closed-form and the recurrence section counts."""

    @pytest.mark.parametrize(
        "surface, st, move, is_entry, h0_fn, message",
        GUARDS,
        ids=[f"{_case_id(c[0], c[2])}-{i}" for i, c in enumerate(GUARDS)],
    )
    def test_guard_texts(self, surface, st, move, is_entry, h0_fn, message):
        for route in [h0_fn] if h0_fn else [h0, h0_by_recurrence]:
            with pytest.raises(PreconditionFailed) as info:
                apply_move(surface, st, move, h0_fn=route, is_entry=is_entry)
            assert str(info.value) == message
            assert info.value.move_kind == move.kind

    @pytest.mark.parametrize("route", [h0, h0_by_recurrence], ids=["h0", "h0_by_recurrence"])
    @pytest.mark.parametrize(
        "surface, st, move, new, witness", LEGAL, ids=[_case_id(c[0], c[2]) for c in LEGAL]
    )
    def test_legal_moves(self, surface, st, move, new, witness, route):
        is_entry = move.kind == "EntryRR"
        assert apply_move(surface, st, move, h0_fn=route, is_entry=is_entry) == (new, witness)
        assert new.total_degree(surface) == st.total_degree(surface)

    def test_every_kind_is_in_both_tables(self):
        kinds = {"Complement", "VariantComplement", "VBSubtract", "InvolutionFlip",
                 "CurveRR", "AddBasis", "EntryRR"}
        assert {case[2].kind for case in LEGAL} == kinds
        assert {case[2].kind for case in GUARDS} == kinds | {"Twist"}


def _outcome(surface, st, move, route, is_entry):
    """What one `apply_move` call gives, exact to the type of every number."""
    try:
        new, witness = apply_move(surface, st, move, h0_fn=route, is_entry=is_entry)
    except Exception as exc:  # every exception must match, whatever it is
        return type(exc), str(exc)
    return repr(new), repr(witness)


def _random_cases(rng):
    """A well-typed move twice, as two equal objects, each a (surface, state,
    move, is_entry); a kind may be unknown, `l` None and a basis name unknown.
    Also a zero-argument builder of a twin of the move or state with one field
    made ill-typed (an equal float or bool, a string, a list or None), and that
    twin's type name."""
    surface = rng.choice([CUBIC, CUBIC_X4, DP2, DP1])
    coeffs = rng.choice([{}, {BASIS_H: rng.randint(-9, 9)}, {BASIS_H: 2, BASIS_X4: -1}])
    st = CycleState.make(rng.choice([1, -1]), rng.randint(0, 30), coeffs)
    kind = rng.choice(["Complement", "VariantComplement", "VBSubtract", "InvolutionFlip", "CurveRR",
                       "AddBasis", "EntryRR", "Twist"])
    l = rng.choice([rng.randint(-1, 6)] * 6 + [None])
    gamma = rng.choice([None, 0, 1, 2])
    mult = rng.randint(-2, 6)
    combo = rng.choice([
        (), ((BASIS_H, mult),), ((BASIS_X4, mult),), ((BASIS_H, 4), (BASIS_X4, -1)),
        ((BASIS_H, 6), (BASIS_X4, mult)), (("zz", 1),), ((BASIS_H, 1), (BASIS_H, 2)),
    ])
    move, is_entry = Move(kind, l, gamma, combo), rng.random() < 0.2
    cases = [(surface, st, move, is_entry),
             (surface, CycleState(st.sign, st.unknown_degree, st.coeffs), Move(kind, l, gamma, combo), is_entry)]

    def twin(v):
        if type(v) is int and rng.random() < 0.6:
            return bool(v) if v in (0, 1) and rng.random() < 0.5 else float(v)
        return rng.choice([str(v), [v], None])

    field = rng.choice(["degree", "sign", "kind", "l", "gamma", "combo", "pairs"])
    if field in ("degree", "sign"):
        bad = twin(st.unknown_degree if field == "degree" else st.sign)
        args = (st.sign, bad) if field == "degree" else (bad, st.unknown_degree)
        return cases, (lambda: CycleState(*args, st.coeffs)), type(bad).__name__
    fields = {"kind": kind, "l": l, "gamma": gamma, "combo": combo}
    if field == "kind":
        fields["kind"] = rng.choice([[kind], None, 1])
    elif field in ("l", "gamma"):
        fields[field] = twin(rng.randint(0, 6)) if fields[field] is None else twin(fields[field])
        if fields[field] is None:
            fields[field] = [0]
    elif field == "combo":
        fields["combo"] = rng.choice([[list(p) for p in combo], None, dict(combo)])
    else:
        fields["combo"] = ((BASIS_H, twin(mult)),)
    bad = fields["combo"][0][1] if field == "pairs" else fields[field]
    return cases, (lambda: Move(**fields)), type(bad).__name__


class TestRuleMemo:
    """`apply_move` memoizes each rule on (surface, move, unknown degree, h0_fn):
    search and verifier share the memo, and no answer may depend on it.  A
    float or bool equals and hashes like an int, so moves and states refuse
    every field that is not of its exact type when they are built."""

    def test_memo_changes_no_outcome(self, monkeypatch):
        rng = random.Random(18)
        draws = [_random_cases(rng) for _ in range(34_000)]
        cases = [case for pair, _, _ in draws for case in pair]
        routes = (h0, h0_by_recurrence)
        memo = descent._rule
        monkeypatch.setattr(descent, "_rule", functools.lru_cache(maxsize=0)(memo.__wrapped__))
        uncached = [_outcome(*case[:3], route, case[3]) for case in cases for route in routes]
        monkeypatch.setattr(descent, "_rule", memo)
        memo.cache_clear()
        memoized = [_outcome(*case[:3], route, case[3]) for case in cases for route in routes]
        assert memoized == uncached
        info = memo.cache_info()
        assert info.hits > 2_000 and info.currsize == info.maxsize
        assert {PreconditionFailed, TypeError} <= {kind for kind, _ in uncached}
        assert sum(isinstance(kind, str) for kind, _ in uncached) > 20_000  # legal moves
        refused = Counter()
        for _, build, bad_type in draws:
            with pytest.raises(ValueError, match="must be"):
                build()
            refused[bad_type] += 1
        assert set(refused) == {"float", "bool", "str", "list", "NoneType", "int", "dict"}
        assert min(refused[t] for t in ("float", "bool", "str", "list", "NoneType")) > 500

    def test_returned_witness_is_fresh(self):
        st = state(1, 28, {BASIS_H: -3})
        for route in (h0, h0_by_recurrence):
            _, witness = apply_move(CUBIC, st, Move.complement(3), h0_fn=route)
            witness["h0_m"] = -1
            witness["extra"] = 0
            assert apply_move(CUBIC, st, Move.complement(3), h0_fn=route)[1] == {"h0_m": 31}

    def test_memo_stays_within_its_bound(self):
        n = 10_000
        moves = [Move.add_basis({BASIS_H: k}) for k in range(1, n + 1)]
        cert = descent._replay(CUBIC, CycleState.entry(0), moves)
        assert cert.final.unknown_degree == 3 * n * (n + 1) // 2
        assert verify_certificate(cert).ok
        info = descent._rule.cache_info()
        assert info.maxsize <= 1024 and info.currsize == info.maxsize

    def test_verifier_counts_come_from_its_own_route(self, monkeypatch):
        cert = find_certificate(CUBIC, 40, GOALS["cubic"])
        assert verify_certificate(cert).ok
        payload = json.loads(json.dumps(cert.to_json()))
        idx = next(i for i, m in enumerate(payload["moves"]) if m["witness"])
        key = sorted(payload["moves"][idx]["witness"])[0]
        payload["moves"][idx]["witness"][key] += 1
        report = verify_certificate(Certificate.from_json(payload))
        assert not report.ok and report.failure.startswith(f"move {idx}: recorded witness")
        # a verifier route that disagrees with the closed form must not read
        # the entries the search left under `h0`
        monkeypatch.setattr(descent, "h0_by_recurrence", lambda d_S, l: h0(d_S, l) + 1)
        report = verify_certificate(cert)
        assert not report.ok and "recorded witness" in report.failure

    def test_payload_witnesses_are_copies(self):
        # editing a `to_json` payload in place must leave the certificate as it was
        cert = find_certificate(CUBIC, 40, GOALS["cubic"])
        before = [dict(w) for w in cert.witnesses]
        payload = cert.to_json()
        idx = next(i for i, m in enumerate(payload["moves"]) if m["witness"])
        key = sorted(payload["moves"][idx]["witness"])[0]
        payload["moves"][idx]["witness"][key] += 1
        assert cert.witnesses == before
        assert verify_certificate(cert).ok
        assert not verify_certificate(Certificate.from_json(payload)).ok


class TestCertificates:
    def test_coray_chain_from_degree_10(self):
        cert = find_certificate(CUBIC, 10, GOALS["coray"])
        kinds = [(m.kind, m.l, m.combo_dict()) for m in cert.moves]
        assert kinds == [
            ("AddBasis", None, {BASIS_H: 2}),
            ("Complement", 2, {}),
            ("VBSubtract", 2, {BASIS_H: 1}),
            ("Complement", 1, {}),
        ]
        degrees = [cert.initial.unknown_degree]
        st = cert.initial
        for idx, move in enumerate(cert.moves):
            st, _ = apply_move(CUBIC, st, move, is_entry=(idx == 0))
            degrees.append(st.unknown_degree)
        assert degrees == [10, 16, 11, 8, 4]
        assert verify_certificate(cert).ok

    def test_degree_19_chain_matches_proof(self):
        cert = find_certificate(CUBIC, 19, Goal("le17neg", max_degree=17, sign=-1))
        kinds = [(m.kind, m.l) for m in cert.moves]
        assert kinds == [("AddBasis", None), ("Complement", 3), ("VBSubtract", 3)]
        assert cert.moves[0].combo_dict() == {BASIS_H: 3}
        assert cert.final.unknown_degree == 17
        # final identity: z = -z'' + 12h with z'' effective of degree 17
        assert cert.final.sign == -1 and cert.final.coeff_dict() == {BASIS_H: 12}

    def test_dp2_degree_9_single_subtraction(self):
        cert = find_certificate(DP2, 9, Goal("le7", max_degree=7))
        assert [(m.kind, m.l) for m in cert.moves] == [("VBSubtract", 2)]
        assert cert.final.unknown_degree == 7

    def test_empty_chain_verifies(self):
        cert = Certificate(
            surface=CUBIC,
            initial=state(1, 4),
            moves=[],
            witnesses=[],
            final=state(1, 4),
        )
        assert verify_certificate(cert).ok

    def test_corrupted_witness_named(self):
        cert = find_certificate(CUBIC, 10, GOALS["coray"])
        payload = cert.to_json()
        payload["moves"][2]["witness"]["h0_l1"] = 18
        report = verify_certificate(Certificate.from_json(payload))
        assert not report.ok
        assert "witness" in report.failure

    def test_corrupted_precondition_named(self):
        cert = find_certificate(CUBIC, 10, GOALS["coray"])
        payload = cert.to_json()
        payload["moves"][2]["l"] = 1  # h0(3,2)-based inequality now fails
        report = verify_certificate(Certificate.from_json(payload))
        assert not report.ok
        assert "h0" in report.failure

    def test_unavailable_basis_reported_not_crashed(self):
        cert = find_certificate(CUBIC, 10, GOALS["coray"])
        payload = cert.to_json()
        payload["moves"][2]["target"] = {BASIS_X4: 1}
        report = verify_certificate(Certificate.from_json(payload))
        assert not report.ok and "x4" in report.failure

    def test_malformed_move_reported_not_crashed(self):
        cert = find_certificate(CUBIC, 10, GOALS["coray"])
        payload = cert.to_json()
        payload["moves"][1] = {"kind": "Complement"}  # missing l
        report = verify_certificate(Certificate.from_json(payload))
        assert not report.ok

    def test_corrupted_final_state(self):
        cert = find_certificate(CUBIC, 10, GOALS["coray"])
        payload = cert.to_json()
        payload["final"]["unknown_degree"] = 1
        report = verify_certificate(Certificate.from_json(payload))
        assert not report.ok and "final" in report.failure

    def test_state_sign_is_checked_at_degree_zero_too(self):
        # an empty cycle drops the sign -1, but no other value stands in for a sign
        for sign in (5, 0, 1.0, -1.0, True, "1"):
            with pytest.raises(ValueError, match="sign must be"):
                CycleState.from_json({"sign": sign, "unknown_degree": 0})
        assert CycleState.from_json({"sign": -1, "unknown_degree": 0}) == CycleState.entry(0)

    def test_non_object_documents_rejected(self):
        payload = find_certificate(CUBIC, 10, GOALS["coray"]).to_json()
        for bad in ([payload], "certificate", 3, None):
            with pytest.raises(ValueError, match="JSON object"):
                Certificate.from_json(bad)
        payload["surface"] = [3]
        with pytest.raises(ValueError, match="surface must be a JSON object"):
            Certificate.from_json(payload)

    def test_json_roundtrip(self):
        cert = find_certificate(CUBIC_X4, 18, GOALS["cubic-x4"])
        payload = json.loads(json.dumps(cert.to_json()))
        again = Certificate.from_json(payload)
        assert verify_certificate(again).ok
        assert again.to_json() == cert.to_json()

    def test_golden_coray_chain(self):
        golden_path = Path(__file__).parent / "golden" / "coray_d10.json"
        cert = find_certificate(CUBIC, 10, GOALS["coray"])
        got = json.dumps(cert.to_json(), indent=2, sort_keys=True) + "\n"
        assert got == golden_path.read_text()

    def test_unreachable_goal_reports_not_found(self):
        with pytest.raises(CertificateNotFound):
            find_certificate(CUBIC, 3, Goal("impossible", degrees=(2,)))
            # degree 3 only moves by multiples of 3 without x4


class TestSuites:
    def test_cubic_suite_small(self):
        report = prove_bound_suite(CUBIC, GOALS["cubic"], ceiling=60)
        assert report.all_verified and report.max_final_degree <= 18

    def test_exceptional_degrees_covered(self):
        report = prove_bound_suite(CUBIC, GOALS["cubic"], ceiling=120)
        starts = {r.start_degree for r in report.rows}
        l = 1
        while h0(3, l + 1) <= 120:
            assert h0(3, l + 1) in starts and h0(3, l + 1) - 1 in starts
            l += 1
        by_start = {r.start_degree: r for r in report.rows}
        for row in by_start.values():
            assert row.verified

    def test_dp2_refined_finals(self):
        report = prove_bound_suite(DP2, GOALS["dp2-refined"], ceiling=60)
        finals = {r.final_degree for r in report.rows}
        assert finals <= set(range(0, 8)) | {12, 13}

    def test_dp1_refined_finals(self):
        report = prove_bound_suite(DP1, GOALS["dp1-refined"], ceiling=60)
        finals = {r.final_degree for r in report.rows}
        assert finals <= set(range(0, 5)) | {7, 15}

    def test_both_signs_reachable_on_cubic(self):
        # both signs of the residual decomposition are achievable
        for degree in range(1, 61):
            for goal_name in ("cubic-pos", "cubic-neg"):
                cert = find_certificate(CUBIC, degree, GOALS[goal_name])
                assert verify_certificate(cert).ok

    def test_monotone_induction_step(self):
        for degree in range(20, 201):
            moves = induction_step_moves(degree)
            assert len(moves) <= 3
            st = CycleState.entry(degree)
            for idx, move in enumerate(moves):
                st, _ = apply_move(CUBIC, st, move, is_entry=(idx == 0))
            assert st.unknown_degree < degree


class TestThresholds:
    def test_entry_certificate_structure(self):
        cert = entry_certificate(CUBIC, 25, 2, GOALS["cubic-pos"])
        assert cert.abstract_entry
        assert cert.moves[0].kind == "EntryRR" and cert.moves[0].gamma == 2
        assert verify_certificate(cert).ok
        assert cert.initial.unknown_degree == 25
        assert cert.final.total_degree(CUBIC) == 25

    def test_cubic_threshold_18(self):
        report = effectivity_threshold_report(CUBIC, 18, ceiling=80)
        assert report["all_effective"]

    def test_cubic_x4_threshold_8(self):
        report = effectivity_threshold_report(CUBIC_X4, 8, ceiling=80)
        assert report["all_effective"]
        assert "genus" in report["rule"]

    def test_dp2_thresholds(self):
        assert effectivity_threshold_report(DP2, 13, ceiling=80)["all_effective"]
        even = effectivity_threshold_report(DP2, 12, ceiling=80, even_only=True)
        assert even["all_effective"]
        assert all(row["degree"] % 2 == 0 for row in even["rows"])

    def test_dp1_threshold_15(self):
        assert effectivity_threshold_report(DP1, 15, ceiling=80)["all_effective"]

    def test_empty_ranges_are_refused(self):
        with pytest.raises(ValueError, match=r"^the range 5\.\.3 holds no degree$"):
            effectivity_threshold_report(CUBIC, 5, ceiling=3)
        with pytest.raises(ValueError, match=r"^the range 13\.\.13 holds no even degree$"):
            effectivity_threshold_report(DP2, 13, ceiling=13, even_only=True)
        with pytest.raises(ValueError, match=r"^the range 1\.\.0 holds no degree$"):
            prove_bound_suite(CUBIC, ceiling=0)


class TestSurfaceModel:
    def test_basis(self):
        assert CUBIC.basis == {BASIS_H: 3}
        assert CUBIC_X4.basis == {BASIS_H: 3, BASIS_X4: 4}
        assert DP2.basis == {BASIS_H: 2}
        with pytest.raises(ValueError):
            DelPezzo(2, with_x4=True)

    def test_default_goals(self):
        assert default_goal(CUBIC).name == "cubic"
        assert default_goal(CUBIC_X4).name == "cubic-x4"
        assert default_goal(DP2, refined=True).name == "dp2-refined"
        assert default_goal(DP1).name == "dp1"

    def test_goal_test_on_sign_and_degree(self):
        neg, refined = GOALS["cubic-neg"], GOALS["dp2-refined"]
        assert neg.admits(-1, 18) and not neg.admits(1, 18) and not neg.admits(-1, 19)
        assert neg.admits(1, 0)  # an empty cycle has no sign
        assert refined.admits(1, 12) and refined.admits(1, 7) and not refined.admits(1, 10)
        assert not refined.admits(-1, 13)


def linear_menu(surface, degree, window):
    """The move menu by linear searches over l, with `window` more parameters for
    each complement kind: window 0 is the reference for `descent._menu`, and
    window 3 a wider menu that finds the same chains (`TestOneComplementEach`)."""
    d_S = surface.degree
    out = []
    targets = [(BASIS_H, 1), (BASIS_H, 2)]
    if d_S == 1:
        targets.append((BASIS_H, 3))
    if surface.with_x4:
        targets.append((BASIS_X4, 1))
    sized = [(name, mult, surface.combo_degree({name: mult})) for name, mult in targets]
    l = 0 if d_S == 3 else 1
    while h0(d_S, l) < degree:
        for name, mult, s in sized:
            if h0(d_S, l + 1) - degree >= 2 * s and degree - s >= 0:
                out.append((False, degree - s, l, "VBSubtract", name, mult))
        l += 1
    m = VERY_AMPLE_MIN[d_S]
    while degree > h0(d_S, m) - 2:
        m += 1
    for mm in range(m, m + window + 1):
        out.append((True, d_S * mm * mm - degree, mm - 1, "Complement", None, 0))
    l = GLOBALLY_GENERATED_MIN[d_S]
    while h0(d_S, l) < degree + 1:
        l += 1
    for ll in range(l, l + window + 1):
        if h0(d_S, ll + 1) - degree > h0(d_S, 1):
            out.append((True, d_S * ll * (ll + 1) - degree, ll, "VariantComplement", None, 0))
    for k in (1, 2, 3):
        out.append((False, degree + k * d_S, -1, "AddBasis", BASIS_H, k))
    if surface.with_x4:
        out.append((False, degree + 4, -1, "AddBasis", BASIS_X4, 1))
        out.append((False, degree + 8, -1, "AddBasis", BASIS_X4, 2))
    if d_S == 2:
        out.append((True, degree, -1, "InvolutionFlip", None, 0))
    return out


def linear_induction_step(degree):
    """`induction_step_moves` with its linear search over l, as the reference."""
    l = 1
    while h0(3, l + 1) < degree:
        l += 1
    if degree in (h0(3, l + 1), h0(3, l + 1) - 1):
        return [Move.add_basis({BASIS_H: 1}), Move.vb_subtract(l + 1, {BASIS_H: 2})]
    if 2 * degree > 3 * (l + 1) ** 2:
        return [Move.complement(l)]
    return [Move.vb_subtract(l, {BASIS_H: 1})]


HUGE_DEGREES = (10**6 + 7, 10**9 + 3)


class TestClosedForms:
    @pytest.mark.parametrize("surface", [CUBIC, CUBIC_X4, DP2, DP1], ids=["dP3", "dP3+x4", "dP2", "dP1"])
    def test_menus_match_linear_search(self, surface):
        for degree in [*range(0, 6001), *HUGE_DEGREES]:
            assert descent._menu(surface, degree) == linear_menu(surface, degree, 0), degree

    def test_menu_entries_become_the_named_moves(self):
        entries = descent._menu(CUBIC_X4, 32) + descent._menu(DP2, 5)
        moves = {descent._move_of(entry) for entry in entries}
        assert Move.vb_subtract(4, {BASIS_X4: 1}) in moves
        assert Move.complement(4) in moves and Move(kind="VariantComplement", l=5) in moves
        assert Move.add_basis({BASIS_X4: 2}) in moves and Move(kind="InvolutionFlip") in moves

    def test_induction_step_matches_linear_search(self):
        for degree in [*range(20, 6001), *HUGE_DEGREES]:
            assert induction_step_moves(degree) == linear_induction_step(degree), degree


def goal_surface(name):
    if name.startswith("dp2"):
        return DP2
    if name.startswith("dp1"):
        return DP1
    return CUBIC_X4 if name.startswith("cubic-x4") else CUBIC


def outcome(search, surface, start, goal):
    try:
        return search(surface, start, goal)
    except CertificateNotFound as exc:
        return str(exc)


class TestSharedTable:
    """`find_certificate` walks a table shared across calls; `_bfs` is the reference."""

    STARTS = range(0, 201)

    def test_matches_bfs_in_any_call_order(self):
        def bfs_moves(surface, start, goal):
            return [descent._move_of(entry) for entry in descent._bfs(surface, start, goal)]

        def found_moves(surface, start, goal):
            cert = find_certificate(surface, start, goal)
            assert goal.admits(cert.final.sign, cert.final.unknown_degree)
            return cert.moves

        cases = [
            (goal, goal_surface(name), start)
            for name, goal in sorted(GOALS.items())
            for start in self.STARTS
        ]
        expected = {case: outcome(bfs_moves, case[1], case[2], case[0]) for case in cases}
        assert any(isinstance(v, str) for v in expected.values())  # unreachable goals too
        shuffled = cases[:]
        random.Random(7).shuffle(shuffled)
        for order in (cases, cases[::-1], shuffled):
            descent._tables.clear()
            for goal, surface, start in order:
                got = outcome(found_moves, surface, start, goal)
                assert got == expected[goal, surface, start], (goal.name, surface, start)

    def test_parameter_cap_alone_sends_the_start_to_bfs(self):
        # From degree 0 on dP1 the table's shortest chain to degree 18 stays
        # at degrees <= 20 but needs l = 5 > 0 + 4, so `_bfs` answers.
        goal = Goal("eighteen-pos", degrees=(18,), sign=1)
        table = (20, descent._distance_table(DP1, goal, 20), {})
        assert descent._walk(DP1, table, 0) is None
        descent._tables.clear()
        expected = [descent._move_of(entry) for entry in descent._bfs(DP1, 0, goal)]
        assert find_certificate(DP1, 0, goal).moves == expected

    def test_table_never_grows_past_r_max(self, monkeypatch):
        # With R_MAX lowered to 60: the table at 50 rebuilds at 60, not 100,
        # the answer stays `_bfs`'s, and a start whose cap passes R_MAX is
        # refused before any table or search.
        monkeypatch.setattr(descent, "R_MAX", 60)
        goal = GOALS["cubic"]
        descent._tables.clear()
        find_certificate(CUBIC, 30, goal)
        assert descent._tables[3, False, goal][0] == 50
        expected = [descent._move_of(entry) for entry in descent._bfs(CUBIC, 40, goal)]
        assert find_certificate(CUBIC, 40, goal).moves == expected
        assert descent._tables[3, False, goal][0] == 60

        def forbidden(*args):
            raise AssertionError("no table and no search above R_MAX")

        monkeypatch.setattr(descent, "_bfs", forbidden)
        monkeypatch.setattr(descent, "_distance_table", forbidden)
        descent._tables.clear()
        with pytest.raises(DegreeOutOfRange):
            find_certificate(CUBIC, 41, goal)
        descent._tables.clear()

    def test_r_max_covers_every_start_up_to_a_million(self):
        assert descent.R_MAX >= 10**6 + 20

    @pytest.mark.parametrize(
        "goal, d_S, with_x4, sha256",
        [
            ("cubic", 3, False, "ee76e54e6e76137f8bfbb07141ec0f6025ddb8d7122a6e80ed6e816cc15d8e97"),
            ("cubic-x4", 3, True, "aa2ac18777ca84e152f776d769dcd84d1d89fc1d025d6f99cbed8161bd063b44"),
            ("dp2-refined", 2, False, "f6b6df844c102f451f53f1af12d97cd37a49e213c196d1a6a872e2db75e0dee7"),
            ("dp1-refined", 1, False, "30f6001e803f6efff9ac9b03b50777d488b96821f4c6e1208c20c8e799b0e07b"),
        ],
    )
    def test_suite_json_pinned_at_ceiling_1000(self, goal, d_S, with_x4, sha256):
        # Pinned from the per-start breadth-first search before the shared table.
        report = prove_bound_suite(DelPezzo(d_S, with_x4=with_x4), GOALS[goal], ceiling=1000)
        text = json.dumps(report.to_json(), indent=2, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == sha256


SURFACES = {"dP3": CUBIC, "dP3+x4": CUBIC_X4, "dP2": DP2, "dP1": DP1}
DEFAULT_PAIRS = {
    "cubic": CUBIC, "cubic-x4": CUBIC_X4, "dp2": DP2, "dp2-refined": DP2, "dp1": DP1, "dp1-refined": DP1,
}


class TestOneComplementEach:
    """`_menu` offers one parameter per complement kind; a menu with three more of
    each (`linear_menu` with window 3) finds the same chains."""

    @staticmethod
    def widen(monkeypatch):
        monkeypatch.setattr(descent, "_menu", lambda surface, degree: linear_menu(surface, degree, 3))

    def test_bfs_agrees_with_the_wider_menu_on_every_goal_and_surface(self, monkeypatch):
        cases = [
            (goal, surface, start)
            for goal in GOALS.values()
            for surface in SURFACES.values()
            for start in range(0, 41)
        ]
        expected = {case: outcome(descent._bfs, case[1], case[2], case[0]) for case in cases}
        assert any(isinstance(v, str) for v in expected.values())  # unreachable goals too
        self.widen(monkeypatch)
        for goal, surface, start in cases:
            got = outcome(descent._bfs, surface, start, goal)
            assert got == expected[goal, surface, start], (goal.name, surface, start)

    @pytest.mark.parametrize("goal_name", DEFAULT_PAIRS)
    def test_no_first_step_closer_takes_a_wider_parameter(self, monkeypatch, goal_name):
        # Then the two menus' tables agree and so do the chains walked on them:
        # the narrow menu is the wide one with entries removed, order kept.
        surface, goal, R = DEFAULT_PAIRS[goal_name], GOALS[goal_name], 2000
        wide = [linear_menu(surface, degree, 3) for degree in range(R + 1)]
        narrow = descent._distance_table(surface, goal, R)
        monkeypatch.setattr(descent, "_menu", lambda surface, degree: wide[degree])
        dist = descent._distance_table(surface, goal, R)
        assert dist == narrow
        monkeypatch.undo()
        for node in range(-R, R + 1):
            remaining = dist[node + R] - 1
            if remaining < 0:
                continue
            first = next(
                entry
                for entry in wide[abs(node)]
                if entry[1] <= R and dist[descent._child(node, entry[0], entry[1]) + R] == remaining
            )
            assert first in descent._menu(surface, abs(node)), node
