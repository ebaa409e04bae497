"""Tests for Harish-Chandra module families: validation, fibers, isomorphism."""

import contextlib
import dataclasses
import io
import json
import math
import types
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hcfam.scalars import (
    INFINITY,
    GaussianRational,
    LaurentPoly,
    PoleAtPoint,
    QI_I,
    QI_ZERO,
    UnsplitQuadratic,
    poly_roots,
)
from hcfam.hcmod import (
    DEFAULT_WINDOW,
    DegreeBoundViolated,
    DegreeProfile,
    HCModuleFamily,
    NotValidated,
    TailRule,
    TransitionData,
    WeightNotPresent,
    WeightSet,
    casimir_triple,
    fiber_irreducible,
    iso_check,
    picard_twist,
    profiles_equal,
    reducible_locus,
    swap_transitions,
    validate,
)
from hcfam import classify, hcmod
from hcfam.classify import ClassSpec, construct

QI = GaussianRational


class TestWeightSet:
    def test_membership(self):
        assert WeightSet("even").contains(-4) and not WeightSet("even").contains(3)
        assert WeightSet("lowest", 3).contains(5) and not WeightSet("lowest", 3).contains(1)
        assert WeightSet("highest", -1).contains(-7)
        fin = WeightSet("finite", 4)
        assert fin.contains(-4) and fin.contains(4) and not fin.contains(6)

    def test_transitions(self):
        assert WeightSet("finite", 2).transitions_in((-100, 100)) == [-2, 0]
        assert WeightSet("lowest", 1).transitions_in((-4, 5)) == [1, 3, 5]
        assert WeightSet("highest", -1).transitions_in((-6, 6)) == [-5, -3]

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            WeightSet("lowest", 0)
        with pytest.raises(ValueError):
            WeightSet("highest", 2)
        with pytest.raises(ValueError):
            WeightSet("banana")

    @given(st.integers(-30, 30))
    def test_has_transition_consistent(self, n):
        for w in (WeightSet("even"), WeightSet("odd"), WeightSet("finite", 6)):
            assert w.has_transition(n) == (w.contains(n) and w.contains(n + 2))


class TestDegreeProfile:
    def test_linear_tails_and_overrides(self):
        p = DegreeProfile(0, 5, 1, -1, overrides=((2, 9),))
        assert p.deg(0) == 5 and p.deg(4) == 7 and p.deg(-6) == 2
        assert p.deg(2) == 9
        assert p.step(0) == 4  # into the override
        assert p.shifted(3).deg(2) == 12

    def test_profiles_equal_is_functional(self):
        a = DegreeProfile(0, 0, 1, -1)
        b = DegreeProfile(2, 1, 1, -1)  # same function, different anchor
        assert profiles_equal(a, b, WeightSet("even"))
        c = DegreeProfile(0, 0, 1, 1)
        assert not profiles_equal(a, c, WeightSet("even"))
        # Flat profiles that differ only at a degree override at 10^20.
        far = 10**20
        flat = DegreeProfile(0, 0, 0, 0)
        assert not profiles_equal(flat, DegreeProfile(0, 0, 0, 0, ((far, 1),)), WeightSet("even"))
        assert profiles_equal(flat, DegreeProfile(0, 0, 0, 0, ((far, 0),)), WeightSet("even"))
        assert profiles_equal(flat, DegreeProfile(0, 0, 0, 0, ((far + 1, 1),)), WeightSet("even"))


def ascending_module():
    return construct(WeightSet("even"), ClassSpec("III"), casimir_triple(0, 0, 1))


def fresh_validate(module, window=DEFAULT_WINDOW):
    """validate on an unrecorded copy of the module, so that every call runs
    every check: a module found ok once answers later calls from its record."""
    return validate(dataclasses.replace(module), window)


class TestValidation:
    def test_canonical_modules_validate(self):
        for cls in (ClassSpec("III"), ClassSpec("IV"), ClassSpec("I", 0), ClassSpec("II", 0)):
            module = construct(WeightSet("even"), cls, casimir_triple(1, 0, 1))
            report = fresh_validate(module)
            assert report.ok, report.to_json()
            assert validate(module).ok

    def test_zero_transition_polynomial_flagged(self):
        module = ascending_module()
        broken = module.transitions.with_overrides({2: (LaurentPoly({}), LaurentPoly.constant(1))})
        import dataclasses

        bad = dataclasses.replace(module, transitions=broken)
        report = validate(bad)
        assert not report.ok
        assert any("zero transition" in v.message for v in report)

    def test_casimir_equation_enforced(self):
        module = ascending_module()
        broken = module.transitions.with_overrides({0: (LaurentPoly.constant(1), LaurentPoly.constant(1))})
        import dataclasses

        bad = dataclasses.replace(module, transitions=broken)
        report = validate(bad)
        assert any("Casimir equation" in v.message for v in report)

    def test_degree_bound_enforced(self):
        module = ascending_module()
        # Correct product, illegal split: both factors degree 1 where B must
        # be constant (ascending step).
        q = module.q_poly(2)
        import dataclasses

        half = q.scale(GaussianRational(Fraction(1, 4)))
        broken = module.transitions.with_overrides({2: (LaurentPoly.constant(1), half)})
        bad = dataclasses.replace(module, transitions=broken)
        report = validate(bad)
        assert any("exceeds bound" in v.message for v in report)

    def test_tail_rule_side_must_match_slope(self):
        # Ascending degrees with the unit on A would force the partner beyond
        # its degree bound on the whole upper tail.
        module = HCModuleFamily(
            WeightSet("even"),
            DegreeProfile(0, 0, 1, -1),
            TransitionData(0, TailRule("A"), TailRule("B")),
            casimir_triple(0, 0, 1),
        )
        report = validate(module)
        assert ("tail-up", "deg B_n = 1 exceeds bound 0") in [(v.where, v.message) for v in report]

    def test_identically_zero_q_rejected(self):
        module = HCModuleFamily(
            WeightSet("even"),
            DegreeProfile(0, 0, 1, -1),
            TransitionData(0, TailRule("B"), TailRule("B")),
            casimir_triple(0, 8, 0),  # q_2 == 0 identically
        )
        report = validate(module)
        assert not report.ok


    def test_a_passing_verdict_is_recorded_on_the_object(self):
        """construct validates what it builds; the record holds on every
        window and leaves equality, hashing and the document unchanged."""
        module = ascending_module()
        assert hcmod._VALID in vars(module)
        for window in ((-6, 6), DEFAULT_WINDOW, (-10**20, 10**20)):
            assert validate(module, window).to_json() == {"ok": True, "violations": []}
        twin = dataclasses.replace(module)
        assert hcmod._VALID not in vars(twin)
        assert twin == module and hash(twin) == hash(module) and twin.to_json() == module.to_json()

    def test_a_failing_verdict_is_never_recorded(self):
        module = ascending_module()
        broken = module.transitions.with_overrides({2: (LaurentPoly.constant(2), LaurentPoly.constant(1))})
        bad = dataclasses.replace(module, transitions=broken)  # made from a recorded module
        for _ in range(2):
            with pytest.raises(NotValidated):
                fiber_irreducible(bad, QI(1))
            assert [v.message for v in validate(bad)] == ["Casimir equation 4 A_n B_n = q_n fails"]


class TestFibers:
    def test_interior_scalars_are_evaluations(self):
        module = ascending_module()
        scalars = fiber_irreducible(module, QI(2), (-4, 4)).scalars
        for n, (a, b) in scalars.items():
            A, B = module.transition_polys(n)
            assert a == A.evaluate(QI(2)) and b == B.evaluate(QI(2))

    def test_boundary_scalar_semantics_at_infinity(self):
        module = ascending_module()
        scalars = fiber_irreducible(module, INFINITY, (-4, 4)).scalars
        for n, (a, b) in scalars.items():
            # deg A_n = 1 < bound 2, so the raising scalar degenerates; the
            # lowering unit attains its zero bound.
            assert a == QI_ZERO
            assert b == QI(1)

    def test_fiber_irreducible_interior(self):
        module = ascending_module()
        assert fiber_irreducible(module, QI(1))
        assert not fiber_irreducible(module, QI(Fraction(1, 8)))  # root of A_2
        assert fiber_irreducible(module, QI_I)

    def test_tail_vanishing_detected_beyond_window(self):
        # 1/(n(n+2)) for n = 30 lies outside the window; the closed-form tail
        # scan must still catch it.
        module = ascending_module()
        p = QI(Fraction(1, 30 * 32))
        assert not fiber_irreducible(module, p, (-10, 10))

    def test_discrete_series_locus_confined_to_boundary(self):
        weights = WeightSet("lowest", 1)
        module = construct(weights, ClassSpec("I", 1), casimir_triple(0, -1, 0))
        locus = reducible_locus(module, (1, 9))
        assert locus.points == frozenset({QI_ZERO})
        assert locus.boundary == frozenset({QI_ZERO, INFINITY})

    def test_unsplit_quadratic_reported(self):
        # q_2 = z^2 - 8z - 1 has discriminant 68, not a square in Q(i).
        module = construct(WeightSet("even"), ClassSpec("III"), casimir_triple(1, 0, -1))
        locus = reducible_locus(module, (-6, 6))
        assert locus.unsplit
        assert all(which == "A" for _, which, _ in locus.unsplit)

    def test_validation_required(self):
        module = HCModuleFamily(
            WeightSet("even"),
            DegreeProfile(0, 0, 1, -1),
            TransitionData(0, TailRule("A"), TailRule("B")),
            casimir_triple(0, 0, 1),
        )
        with pytest.raises(NotValidated):
            fiber_irreducible(module, QI(1))

    @pytest.mark.parametrize(
        "query",
        [
            reducible_locus,
            lambda m: fiber_irreducible(m, QI(0)),
            lambda m: fiber_irreducible(m, INFINITY).scalars,
        ],
        ids=["reducible_locus", "fiber_irreducible", "fiber_scalars"],
    )
    def test_one_validation_per_query(self, monkeypatch, query):
        from hcfam import hcmod

        calls = []

        def counting(module, window=DEFAULT_WINDOW):
            calls.append(window)
            return validate(module, window)

        monkeypatch.setattr(hcmod, "validate", counting)
        query(dataclasses.replace(ascending_module()))  # a new object, without the record construct left
        assert calls == [DEFAULT_WINDOW]

    def test_verdict_carries_fiber_scalars(self):
        module = ascending_module()
        for p in (QI(0), INFINITY, QI(Fraction(1, 8)), QI_I):
            verdict = fiber_irreducible(module, p, (-6, 6))
            assert verdict.scalars == hcmod._fiber_scalars(module, p, (-6, 6))
            assert bool(verdict) is verdict.irreducible

    @pytest.mark.parametrize(
        "cls", [ClassSpec("I", 2), ClassSpec("II", 0), ClassSpec("III"), ClassSpec("IV")], ids=str
    )
    def test_verdicts_unchanged_as_window_grows(self, cls):
        # Rescaled overrides at 0 and 2 and the pivot (0 or 2) all lie in the
        # smallest window; the larger ones scan explicitly what it leaves to
        # the tail rules.
        module = construct(WeightSet("even"), cls, casimir_triple(0, Fraction(1, 3), 1))
        t = module.transitions
        for n, mu in ((0, QI(2)), (2, QI(0, 1))):
            A, B = module.transition_polys(n)
            t = t.with_overrides({n: (A.scale(mu), B.scale(mu.inverse()))})
        module = dataclasses.replace(module, transitions=t)
        # q_n = (1/3 - n(n+2)) z + 1 vanishes at 3/23 for n = 2 (inside every
        # window) and at 3/1319 for n = 20 (beyond the smallest one).
        inner, tail = QI(Fraction(3, 23)), QI(Fraction(3, 1319))
        windows = [(-6, 6), (-8, 8), (-30, 30)]
        assert inner in reducible_locus(module, windows[0]).points
        for p in (QI(0), INFINITY, inner, tail):
            verdicts = [fiber_irreducible(module, p, w).irreducible for w in windows]
            assert verdicts == [verdicts[0]] * len(windows), p
        for p in (inner, tail):
            assert not fiber_irreducible(module, p, windows[0])
        boundaries = [reducible_locus(module, w).boundary for w in windows]
        assert boundaries == [boundaries[0]] * len(windows)


GROWING_WINDOWS = [(-6, 6), (-8, 8), (-30, 30)]
CLASSES_I_TO_IV = [ClassSpec("I", 2), ClassSpec("II", 0), ClassSpec("III"), ClassSpec("IV")]


def class_module_with_overrides(cls):
    """A class I-IV module with rescaled overrides at 0 and 2; the overrides and
    the pivot (0 or 2) lie in the smallest of GROWING_WINDOWS."""
    module = construct(WeightSet("even"), cls, casimir_triple(0, Fraction(1, 3), 1))
    t = module.transitions
    for n, mu in ((0, QI(2)), (2, QI(0, 1))):
        A, B = module.transition_polys(n)
        t = t.with_overrides({n: (A.scale(mu), B.scale(mu.inverse()))})
    return dataclasses.replace(module, transitions=t)


class TestWindowGrowth:
    """Once the window holds every override and the pivot, growing it must not
    change the verdicts of ``validate`` and ``iso_check``."""

    @pytest.mark.parametrize("cls", CLASSES_I_TO_IV, ids=str)
    def test_validate_verdicts_unchanged(self, cls):
        module = class_module_with_overrides(cls)
        t = module.transitions
        A, B = module.transition_polys(2)
        corrupted = dataclasses.replace(module, transitions=t.with_overrides({2: (A.scale(2), B)}))

        def flipped(side):
            rule = getattr(t, side)
            other = TailRule("B" if rule.unit_on == "A" else "A", rule.value)
            return dataclasses.replace(module, transitions=dataclasses.replace(t, **{side: other}))

        assert all(fresh_validate(module, w).ok for w in GROWING_WINDOWS)
        reports = [fresh_validate(corrupted, w).to_json() for w in GROWING_WINDOWS]
        assert reports == [reports[0]] * len(reports)
        assert [v["where"] for v in reports[0]["violations"]] == ["2"]
        for side, where in (("rule_up", "tail-up"), ("rule_down", "tail-down")):
            bad = flipped(side)
            # The in-window violations grow with the window; the tail's, read
            # on its runs beyond the window, must not.
            tails = []
            for w in GROWING_WINDOWS:
                report = fresh_validate(bad, w)
                assert not report.ok
                tails.append([v.to_json() for v in report if str(v.where).startswith("tail")])
            assert [[v["where"] for v in tv] for tv in tails] == [[where]] * len(tails)
            assert tails == [tails[0]] * len(tails)

    @pytest.mark.parametrize("cls", CLASSES_I_TO_IV, ids=str)
    def test_iso_check_verdicts_unchanged(self, cls):
        module = class_module_with_overrides(cls)
        canonical = construct(WeightSet("even"), cls, casimir_triple(0, Fraction(1, 3), 1))
        other_casimir = construct(WeightSet("even"), cls, casimir_triple(0, Fraction(1, 5), 1))
        pairs = {
            "rescaled": (canonical, module),
            "twisted": (module, picard_twist(module, 1)),
            "casimir": (module, other_casimir),
        }
        for name, (m1, m2) in pairs.items():
            results = [iso_check(m1, m2, w) for w in GROWING_WINDOWS]
            verdicts = [(r.isomorphic, r.obstruction) for r in results]
            assert verdicts == [verdicts[0]] * len(verdicts), name
            assert verdicts[0][0] is (name == "rescaled"), name
        small, *larger = [iso_check(canonical, module, w).scalars for w in GROWING_WINDOWS]
        assert small[0] == QI(2) and small[2] == QI(0, 1)
        for scalars in larger:
            assert {n: scalars[n] for n in small} == small


    @staticmethod
    def degree_override_pair():
        """An even module with q_4 = 1 and flat degrees, and its copy with deg F_6
        raised to 1: both are valid on -4..4 and on -8..8."""
        A = TailRule("A", QI(1))
        flat = HCModuleFamily(WeightSet("even"), DegreeProfile(0, 0, 0, 0), TransitionData(0, A, A),
                              casimir_triple(0, 24, 1))
        return flat, _with_degree(flat, 6, 1)

    def test_iso_compares_degrees_validate_admits_beyond_the_window(self):
        flat, raised = self.degree_override_pair()
        for w in ((-4, 4), (-8, 8)):
            assert fresh_validate(flat, w).ok and fresh_validate(raised, w).ok
            result = iso_check(flat, raised, w)
            assert (result.isomorphic, result.obstruction) == (False, "degree profiles differ"), w

    def test_tail_witness_names_checked_transitions_beyond_the_window(self):
        # At n = 6 the step is -1: A_6 = 1 attains its bound 0 and B_6, of
        # degree 1 below its bound 2, is the scalar that vanishes at infinity.
        _, raised = self.degree_override_pair()
        small = fiber_irreducible(raised, INFINITY, (-4, 4))
        assert [e for e in small.tail if e[0] == "up"] == [("up", 6, "B"), ("up", None, "A")]
        # q_{-6} = 1: both scalars of n = -6 vanish, the unit A on the rest.
        assert [e for e in small.tail if e[0] == "down"] == [("down", -6, "A"), ("down", -6, "B"), ("down", None, "A")]
        assert small.count() == 2  # n = 6 and n = -6, each once
        large = fiber_irreducible(raised, INFINITY, (-8, 8))
        assert (6, "B") in large.vanishing and (6, "A") not in large.vanishing
        assert {(n, x) for _, n, x in small.tail if n is not None} <= set(large.vanishing)


class TestIsomorphism:
    def test_rescaled_module_isomorphic(self):
        module = ascending_module()
        t = module.transitions
        mu = QI(3, 2)
        for n in (-2, 0, 2):
            A, B = module.transition_polys(n)
            t = t.with_overrides({n: (A.scale(mu), B.scale(mu.inverse()))})
        import dataclasses

        other = dataclasses.replace(module, transitions=t)
        result = iso_check(module, other, (-6, 6))
        assert result
        assert result.scalars[0] == mu

    def test_equivalence_relation_on_triple(self):
        base = ascending_module()
        import dataclasses

        variants = [base]
        for mu in (QI(2), QI(0, 1)):
            t = base.transitions
            for n in (0, 2):
                A, B = base.transitions.override_for(n) or base.transition_polys(n)
                t = t.with_overrides({n: (A.scale(mu), B.scale(mu.inverse()))})
            variants.append(dataclasses.replace(base, transitions=t))
        a, b, c = variants
        # reflexive, symmetric, transitive
        assert iso_check(a, a)
        assert bool(iso_check(a, b)) == bool(iso_check(b, a))
        if iso_check(a, b) and iso_check(b, c):
            assert iso_check(a, c)

    def test_different_casimir_not_isomorphic(self):
        a = ascending_module()
        b = construct(WeightSet("even"), ClassSpec("III"), casimir_triple(0, 1, 1))
        assert not iso_check(a, b)

    def test_picard_twist_changes_class(self):
        module = ascending_module()
        twisted = picard_twist(module, 2)
        assert validate(twisted).ok
        result = iso_check(module, twisted)
        assert not result and result.obstruction == "degree profiles differ"
        assert iso_check(picard_twist(twisted, -2), module)


class TestSwap:
    def equal_degree_module(self):
        return HCModuleFamily(
            WeightSet("even"),
            DegreeProfile(0, 0, 0, 0),
            TransitionData(0, TailRule("A"), TailRule("A")),
            casimir_triple(0, 0, 1),
        )

    def test_swap_requires_equal_degrees(self):
        module = ascending_module()
        with pytest.raises(DegreeBoundViolated):
            swap_transitions(module, [2])

    def test_swap_preserves_validity(self):
        module = self.equal_degree_module()
        swapped = swap_transitions(module, [2, 4])
        assert fresh_validate(swapped, (-8, 8)).ok
        A, B = swapped.transition_polys(2)
        A0, B0 = module.transition_polys(2)
        assert (A, B) == (B0, A0)

    def test_repeated_swap_index_swaps_once(self):
        module = self.equal_degree_module()
        A, B = module.transition_polys(2)
        twice = dataclasses.replace(module.transitions, overrides=((2, A, B), (2, B, A)))
        for m in (module, dataclasses.replace(module, transitions=twice)):
            swapped = swap_transitions(m, [2, 4, 2])
            assert swapped == swap_transitions(m, [2, 4])
            assert [n for n, _, _ in swapped.transitions.overrides] == [2, 4]
            assert swapped.transition_polys(2) == (B, A)

    def test_double_swap_is_identity(self):
        module = self.equal_degree_module()
        back = swap_transitions(swap_transitions(module, [2]), [2])
        assert iso_check(module, back, (-8, 8))


class TestSerialization:
    @pytest.mark.parametrize(
        "builder",
        [
            ascending_module,
            lambda: construct(WeightSet("lowest", 1), ClassSpec("I", 1), casimir_triple(0, -1, 0)),
            lambda: construct(WeightSet("finite", 4), ClassSpec("IV"), casimir_triple(0, 24, 0)),
        ],
    )
    def test_json_round_trip_bit_exact(self, builder):
        module = builder()
        blob = json.dumps(module.to_json(), sort_keys=True)
        back = HCModuleFamily.from_json(json.loads(blob))
        assert back == module
        assert json.dumps(back.to_json(), sort_keys=True) == blob

    def test_overrides_survive_round_trip(self):
        module = ascending_module()
        swappedless = module.transitions.with_overrides(
            {0: (LaurentPoly.constant(QI(1, 1)), module.q_poly(0).scale((QI(4) * QI(1, 1)).inverse()))}
        )
        import dataclasses

        m2 = dataclasses.replace(module, transitions=swappedless)
        back = HCModuleFamily.from_json(m2.to_json())
        assert back == m2


class TestTailWitness:
    def test_tail_only_reducibility_names_the_tail_weights(self):
        # q_n(p) = 0 iff n(n+2) = (c1 p^2 + c0 p + c_{-1}) / p; with these
        # values both roots n lie beyond the window.
        c1, c0, cm1, p, window = QI(1), QI(957), QI(2), QI(2), (-24, 24)
        module = construct(WeightSet("even"), ClassSpec("III"), casimir_triple(c1, c0, cm1))
        value = (c1 * p * p + c0 * p + cm1) / p
        assert value.is_real() and value.re.denominator == 1
        s = math.isqrt(1 + value.re.numerator)
        assert s * s == 1 + value.re.numerator
        up, down = s - 1, -s - 1
        assert up > window[1] and down < window[0]
        t = module.transitions
        partner = {"A": "B", "B": "A"}
        verdict = fiber_irreducible(module, p, window)
        assert not verdict.irreducible
        assert not any(a.is_zero() or b.is_zero() for a, b in verdict.scalars.values())
        assert verdict.tail == [("up", up, partner[t.rule_up.unit_on]), ("down", down, partner[t.rule_down.unit_on])]
        assert fiber_irreducible(module, p, (-40, 40)).tail == []

    def test_every_tail_transition_vanishes_at_the_boundary(self):
        # c_{-1} = 0: every q_n vanishes at 0; c1 = 0: no partner of degree
        # two at infinity, where class III needs it.
        module = construct(WeightSet("even"), ClassSpec("III"), casimir_triple(0, 1, 0))
        for p in (QI_ZERO, INFINITY):
            verdict = fiber_irreducible(module, p, (-6, 6))
            assert not verdict.irreducible
            assert verdict.tail == [("up", None, "A"), ("down", None, "A")]

    def test_cli_emits_tail_vanishing(self, tmp_path):
        from hcfam import cli

        module = construct(WeightSet("even"), ClassSpec("III"), casimir_triple(1, 957, 2))
        path = tmp_path / "module.json"
        path.write_text(json.dumps(module.to_json()))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(["module", "fiber", "--module", str(path), "--at", "2"])
        assert code == 1
        assert json.loads(out.getvalue()) == {
            "at": "2",
            "irreducible": False,
            "vanishing": [],
            "tail_vanishing": [{"side": "up", "n": 30, "poly": "A"}, {"side": "down", "n": -32, "poly": "A"}],
        }


class TestDerivedOnce:
    def test_replace_starts_fresh(self):
        module = HCModuleFamily(
            WeightSet("even"),
            DegreeProfile(0, 0, 0, 0, overrides=((4, 0),)),
            TransitionData(0, TailRule("A"), TailRule("A")),
            casimir_triple(0, 0, 1),
        )
        window = (-8, 8)
        assert validate(module, window).ok and fiber_irreducible(module, QI(1), window)
        A0, B0 = module.transition_polys(2)
        swapped = swap_transitions(module, [2])
        assert swapped.transition_polys(2) == (B0, A0)
        assert module.transition_polys(2) == (A0, B0)
        degrees = [module.degrees.deg(n) for n in range(-10, 11, 2)]
        twisted = picard_twist(module, 3)
        assert [twisted.degrees.deg(n) for n in range(-10, 11, 2)] == [d + 3 for d in degrees]
        assert [module.degrees.deg(n) for n in range(-10, 11, 2)] == degrees

    def test_with_overrides_replaces_every_copy_in_one_merge(self):
        one, two = LaurentPoly.constant(1), LaurentPoly.constant(2)
        t = TransitionData(0, TailRule("A"), TailRule("A"), overrides=((4, one, one), (2, one, two), (2, two, one)))
        merged = t.with_overrides({2: (two, two), 0: (one, two)})
        assert merged.overrides == ((0, one, two), (2, two, two), (4, one, one))
        assert t.with_overrides({}) is t

    def test_first_of_repeated_overrides_wins(self):
        one, two = LaurentPoly.constant(1), LaurentPoly.constant(2)
        t = TransitionData(0, TailRule("A"), TailRule("A"), overrides=((2, one, two), (2, two, one)))
        assert t.override_for(2) == (one, two) and t.override_for(4) is None
        assert t.with_overrides({0: (two, two)}).overrides[1:] == t.overrides
        d = DegreeProfile(0, 0, 0, 0, overrides=((2, 5), (2, 7)))
        assert d.deg(2) == 5 and d.deg(4) == 0


# -- differential check of the derive-once path ----------------------------------


def _scan_override(self, n):
    for m, A, B in self.overrides:
        if m == n:
            return (A, B)
    return None


def _scan_deg(self, n):
    for m, d in self.overrides:
        if m == n:
            return d
    if n >= self.anchor:
        return self.anchor_deg + self.slope_up * ((n - self.anchor) // 2)
    return self.anchor_deg + self.slope_down * ((self.anchor - n) // 2)


def _fresh_transition(self, n):
    """(A_n, B_n) derived afresh on every call, through the public
    constructors."""
    if not self.weights.has_transition(n):
        raise WeightNotPresent(f"no transition at weight {n}")
    c1, c0, cm1 = self.casimir
    q = LaurentPoly({2: c1, 1: c0 - QI(n * (n + 2)), 0: cm1})
    ov = _scan_override(self.transitions, n)
    if ov is not None:
        return ov
    rule = self.transitions.rule_for(n)
    unit = LaurentPoly.constant(rule.value)
    other = q.scale((QI(4) * rule.value).inverse())
    return (unit, other) if rule.unit_on == "A" else (other, unit)


def _term_sum(self, z0):
    z0 = GaussianRational._coerce(z0)
    if z0.is_zero() and any(e < 0 for e in self.coeffs):
        raise PoleAtPoint("Laurent polynomial has a pole at 0")
    out = QI_ZERO
    for e, c in self.coeffs.items():
        out = out + c * z0**e
    return out


@contextlib.contextmanager
def reference_derivation():
    """Derive every transition the way the library did before it kept them
    per object: linear override scans, a fresh q_n, term-by-term evaluation."""
    with contextlib.ExitStack() as stack:
        for owner, name, fn in (
            (TransitionData, "override_for", _scan_override),
            (DegreeProfile, "deg", _scan_deg),
            (HCModuleFamily, "transition_polys", _fresh_transition),
            (LaurentPoly, "evaluate", _term_sum),
        ):
            stack.enter_context(mock.patch.object(owner, name, fn))
        yield


small_qi = st.builds(QI, st.integers(-3, 3), st.integers(-1, 1))
nonzero_qi = small_qi.filter(lambda g: not g.is_zero())
small_polys = st.dictionaries(st.integers(-1, 3), nonzero_qi, max_size=3).map(LaurentPoly)


def applicable_classes(weights, window):
    """Class specs to draw from: III, IV, and I(k) and II(k) for each weight
    k of the window."""
    extremal = [ClassSpec(c, k) for k in weights.weights_in(window) for c in ("I", "II")]
    return [ClassSpec("III"), ClassSpec("IV"), *extremal]


def degree_override_at(weights, lo, hi):
    """Where a drawn degree override goes: a weight of lo - 2..hi + 2 (the end
    of a lowest or highest set when none lies there), and one time in eight
    any integer of that range, so that "degree override at an absent weight"
    is drawn too without making most cases invalid."""
    present = weights.weights_in((lo - 2, hi + 2)) or [weights.param]
    return st.integers(0, 7).flatmap(lambda k: st.sampled_from(present) if k else st.integers(lo - 2, hi + 2))


@st.composite
def module_cases(draw):
    """A module (valid or corrupted), a window, and fiber points."""
    kind = draw(st.sampled_from(["even", "odd", "lowest", "highest", "finite"]))
    param = {"lowest": st.integers(1, 7), "highest": st.integers(-7, -1), "finite": st.integers(0, 7)}
    weights = WeightSet(kind, draw(param[kind]) if kind in param else 0)
    lo = draw(st.integers(-30, 30))
    window = (lo, draw(st.integers(lo, min(30, lo + 40))))
    c1 = draw(st.one_of(st.just(QI_ZERO), small_qi))  # with c1 = 0 every q_n splits
    casimir = classify._forced_casimir(weights) or casimir_triple(c1, draw(small_qi), draw(small_qi))
    cls = draw(st.sampled_from(applicable_classes(weights, window)[:6]))
    try:
        if draw(st.integers(0, 5)) == 0:
            raise classify.IncompatibleClass("a module of random data")
        module = construct(weights, cls, casimir)
    except (classify.IncompatibleClass, classify.InadmissibleCasimir):
        slopes = st.integers(-1, 1)
        module = HCModuleFamily(
            weights,
            DegreeProfile(draw(st.integers(-4, 4)), draw(st.integers(-2, 2)), draw(slopes), draw(slopes)),
            TransitionData(draw(st.integers(*window)), TailRule(draw(st.sampled_from("AB")), draw(nonzero_qi)),
                           TailRule(draw(st.sampled_from("AB")), draw(nonzero_qi))),
            casimir,
        )
    t, d = module.transitions, module.degrees
    indices = weights.transitions_in(window)
    for n in draw(st.lists(st.sampled_from(indices), max_size=6)) if indices else []:
        A, B = module.transition_polys(n)
        if draw(st.integers(0, 7)):  # a rescaling keeps the module valid
            mu = draw(nonzero_qi)
            t = t.with_overrides({n: (A.scale(mu), B.scale(mu.inverse()))})
        else:
            t = t.with_overrides({n: (draw(small_polys), draw(small_polys))})
    if t.overrides and draw(st.integers(0, 3)) == 0:  # a repeated transition override
        n = draw(st.sampled_from(t.overrides))[0]
        t = dataclasses.replace(t, overrides=t.overrides + ((n, draw(small_polys), draw(small_polys)),))
    overrides = [(n, d.deg(n) + draw(st.sampled_from([0] * 8 + [1, -2])))
                 for n in draw(st.lists(degree_override_at(weights, *window), max_size=3))]
    d = dataclasses.replace(d, overrides=tuple(overrides))
    module = dataclasses.replace(module, transitions=t, degrees=d)
    points = [QI_ZERO, INFINITY, draw(small_qi), QI(Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 999))))]
    for m in (window[0] - 1, window[0] - 2, window[1] + 1, window[1] + 2):  # zeros of tail scalars
        if weights.has_transition(m):
            try:
                points += [r for r in poly_roots(module.q_poly(m)) if not r.is_zero()]
            except UnsplitQuadratic:
                pass
    return module, window, points


def _outcome_of(fn, *args):
    try:
        return fn(*args)
    except (NotValidated, DegreeBoundViolated, WeightNotPresent) as e:
        return (type(e).__name__, str(e))


def _rescaled_twin(module, window, mu=QI(2, 1)):
    """The module with every transition of the window rescaled by mu."""
    t = module.transitions
    for n in module.weights.transitions_in(window):
        A, B = module.transition_polys(n)
        t = t.with_overrides({n: (A.scale(mu), B.scale(mu.inverse()))})
    return dataclasses.replace(module, transitions=t)


def verdicts(module, window, points):
    """Every verdict the module answers, with a rescaled twin for iso_check."""
    twin = _rescaled_twin(module, window)
    out = {"validate": validate(module, window).to_json()}
    locus = _outcome_of(reducible_locus, module, window)
    if isinstance(locus, tuple):
        out["locus"] = locus
    else:
        out["locus"] = (locus.points, locus.boundary, [(n, w, str(p)) for n, w, p in locus.unsplit])
        points = points + sorted(locus.points, key=str)[:3]
    for p in points:
        v = _outcome_of(fiber_irreducible, module, p, window)
        out[f"fiber {p}"] = v if isinstance(v, tuple) else (v.irreducible, v.scalars, v.tail)
    iso = _outcome_of(iso_check, module, twin, window)
    out["iso"] = iso if isinstance(iso, tuple) else (iso.isomorphic, iso.scalars, iso.obstruction)
    for name, fn, arg in (("swap", swap_transitions, module.weights.transitions_in(window)[:2]),
                          ("twist", picard_twist, 1)):
        r = _outcome_of(fn, module, arg)
        out[name] = r if isinstance(r, tuple) else r.to_json()
    return out


class TestDifferential:
    @given(module_cases())
    @settings(max_examples=60, deadline=None)
    def test_derive_once_path_matches_fresh_derivation(self, case):
        module, window, points = case
        fresh = HCModuleFamily.from_json(module.to_json())
        expected_json = json.dumps(module.to_json())
        got = verdicts(module, window, points)
        with reference_derivation():
            expected = verdicts(fresh, window, points)
        assert got == expected
        assert json.dumps(module.to_json()) == expected_json


# c1 != 0 with flat degrees: every q_n = z (z - n(n+2)) has degree 2.  Overrides
# split it in the window; beyond it a constant unit leaves a partner of degree 2.
FLAT_TAILS_C1 = HCModuleFamily(
    WeightSet("even"), DegreeProfile(0, 0, 0, 0),
    TransitionData(4, TailRule("A"), TailRule("A"), tuple(
        (n, LaurentPoly({1: 1}), LaurentPoly({1: Fraction(1, 4), 0: Fraction(-n * (n + 2), 4)})) for n in (-2, 0, 2))),
    casimir_triple(1, 0, 0))


class TestValidatedFacts:
    """What the readers take from validate instead of checking it again,
    checked by polynomial arithmetic on every validated module of
    module_cases, in the window and 40 weights beyond it on each side."""

    @given(module_cases())
    @settings(max_examples=80, deadline=None)
    def test_casimir_unit_sides_and_equal_degree_bounds(self, case):
        module, (lo, hi), _ = case
        assume(validate(module, (lo, hi)).ok)
        for n in range(lo - 40, hi + 41):
            if not module.weights.has_transition(n):
                continue
            A, B = module.transition_polys(n)
            q = module.q_poly(n)
            assert not q.is_zero() and (A * B).scale(4) == q, n  # iso_check compares one side
            step = module.degrees.step(n)
            if step == -1:
                assert A.degree() == 0 and not A.is_zero(), n
            if step == 1:
                assert B.degree() == 0 and not B.is_zero(), n
            if step == 0:  # swap_transitions keeps both within its degree bounds
                assert A.degree() <= 1 and B.degree() <= 1, n

    def test_flat_tails_beyond_the_window_need_c1_zero(self):
        # Only the check beyond the window keeps these step-0 transitions
        # within degree one.
        assert FLAT_TAILS_C1.transition_polys(4)[1].degree() == 2
        assert [(v.where, v.message) for v in validate(FLAT_TAILS_C1, (-2, 2))] == [
            (side, "deg B_n = 2 exceeds bound 1") for side in ("tail-up", "tail-down")]

    def test_unsplit_quadratic_on_an_override_matches_the_loop(self):
        # q_n = z^2 - n(n+2) z - 1 splits only at n = 0 and n = -2 (roots
        # +-1); the rescaled overrides at 0 and 2 keep the quadratic on A.
        module = construct(WeightSet("even"), ClassSpec("III"), casimir_triple(1, 0, -1))
        t = module.transitions
        for n, mu in ((0, QI(2)), (2, QI(1, 3))):
            A, B = module.transition_polys(n)
            t = t.with_overrides({n: (A.scale(mu), B.scale(mu.inverse()))})
        module = dataclasses.replace(module, transitions=t)
        locus = reducible_locus(module, (-6, 6))
        assert locus == _loop_reducible_locus(module, (-6, 6))
        assert (2, "A", module.transitions.override_for(2)[0]) in locus.unsplit


class TestTransitionRanges:
    def test_transitions_in_is_the_filtered_weight_range(self):
        kinds = [("even", 0), ("odd", 0)]
        kinds += [("lowest", p) for p in range(1, 10)] + [("highest", -p) for p in range(1, 10)]
        kinds += [("finite", p) for p in range(10)]
        for kind, param in kinds:
            w = WeightSet(kind, param)
            for lo in range(-14, 15):
                for hi in range(lo, 15):
                    expected = [n for n in w.weights_in((lo, hi)) if w.has_transition(n)]
                    assert w.transitions_in((lo, hi)) == expected, (kind, param, lo, hi)


    @given(module_cases())
    @settings(max_examples=40, deadline=None)
    def test_runs_partition_the_window_at_the_breaks(self, case):
        module, window, _ = case
        runs = hcmod._window_runs(module, window)
        listed = [n for a, b in runs for n in range(a, b + 1, 2)]
        assert listed == module.weights.transitions_in(window)
        assert [a for a, b in runs if a == b and a in module.breaks] == [n for n in listed if n in module.breaks]
        for a, b in runs:  # on a run, the unit side, the degree step and deg q_n are those of its first n
            assert all((module.transitions.rule_for(n), module.degrees.step(n), module.q_lead(n)[0])
                       == (module.transitions.rule_for(a), module.degrees.step(a), module.q_lead(a)[0])
                       and module.transitions.override_for(n) is None for n in range(a + 2, b + 1, 2))
        # Overriding every transition of the window leaves the same runs as
        # the split at the breaks: one per transition.
        span = module.weights.transition_span(window)
        t = module.transitions
        for n in listed:
            t = t.with_overrides({n: module.transition_polys(n)})
        full = dataclasses.replace(module, transitions=t)
        assert hcmod._window_runs(full, window) == (hcmod._runs(full.breaks, *span) if span else []) == [(n, n) for n in listed]


def _pivot_beyond_window(window=(-24, 23)):
    """construct(even, I(0), (0, 1, 1)) with its in-window upper transitions
    made overrides and the pivot moved to hi + 2."""
    module = construct(WeightSet("even"), ClassSpec("I", 0), casimir_triple(0, 1, 1))
    t = module.transitions
    for n in module.weights.transitions_in(window):
        if n >= t.pivot:
            t = t.with_overrides({n: module.transition_polys(n)})
    return dataclasses.replace(module, transitions=dataclasses.replace(t, pivot=window[1] + 2))


def _with_degree(module, n, deg):
    d = module.degrees
    return dataclasses.replace(module, degrees=dataclasses.replace(d, overrides=d.overrides + ((n, deg),)))


@st.composite
def edge_cases(draw):
    """A case of module_cases; now and then its in-window transitions at and
    above the pivot become overrides and the pivot moves to hi + 1 or hi + 2,
    or a degree override lands just beyond the window (at a weight, or at the
    end of the set when none lies there, but for one time in eight), or the
    degree anchor moves."""
    module, window, _ = draw(module_cases())
    lo, hi = window
    if draw(st.booleans()):
        t = module.transitions
        for n in module.weights.transitions_in(window):
            if n >= t.pivot and t.override_for(n) is None:
                t = t.with_overrides({n: module.transition_polys(n)})
        t = dataclasses.replace(t, pivot=hi + draw(st.sampled_from([1, 2])))
        module = dataclasses.replace(module, transitions=t)
    if draw(st.booleans()):
        beyond = [lo - 2, lo - 1, hi + 1, hi + 2]
        present = [n for n in beyond if module.weights.contains(n)]
        n = draw(st.sampled_from((present or [module.weights.param]) if draw(st.integers(0, 7)) else beyond))
        module = _with_degree(module, n, module.degrees.deg(n) + draw(st.sampled_from([1, -1])))
    if draw(st.integers(0, 2)) == 0:  # the degree anchor moves, now and then beyond the window
        edges = st.sampled_from([lo - 2, lo - 1, lo, lo + 1, hi - 1, hi, hi + 1, hi + 2, hi + 3])
        d, a = module.degrees, draw(st.one_of(edges, st.integers(lo - 6, hi + 6)))
        module = dataclasses.replace(module, degrees=dataclasses.replace(d, anchor=a, anchor_deg=d.deg(a)))
    return module, window


WINDOWS = ((-25, 25), (-25, 39), (0, 10), (-1, 10), (-12, -8), (8, 12), (41, 99), (-10**20, 10**20))


class TestBeyondWindow:
    def test_anchor_beyond_the_window_is_read_as_runs(self):
        # Between the window and the anchor the degree step follows the lower
        # slope; at n = 39 it breaks the bound of the upper tail, a run of one
        # beyond the window that keeps its n.
        B = TailRule("B", QI(1))
        module = HCModuleFamily(WeightSet("odd"), DegreeProfile(40, 20, 1, -1), TransitionData(1, B, B),
                                casimir_triple(1, 0, 1))
        for window in ((-25, 25), (-25, 39)):
            assert [v.to_json() for v in fresh_validate(module, window)] == [
                {"where": "39", "message": "deg A_n = 2 exceeds bound 1"}]
        assert {fresh_validate(module, window).ok for window in WINDOWS} == {False}

    def test_anchor_at_lo_of_the_other_parity(self):
        # With odd weights and the anchor at lo = 0, the transition at -1 just
        # below the window crosses the anchor and has step 0, not the slope 1.
        B = TailRule("B", QI(1))
        module = HCModuleFamily(WeightSet("odd"), DegreeProfile(0, 0, 1, -1), TransitionData(1, B, B),
                                casimir_triple(1, 0, 1))
        assert [v.where for v in fresh_validate(module, (0, 10))] == [-1]
        assert [v.where for v in fresh_validate(module, (-1, 10))] == [-1]
        assert {fresh_validate(module, window).ok for window in WINDOWS} == {False}

    @pytest.mark.parametrize("kind, param", [("lowest", 5), ("highest", -5)])
    def test_anchor_at_the_end_of_a_half_infinite_set(self, kind, param):
        # A window on the far side of the set's end leaves no transition
        # between itself and an anchor at that end.
        B = TailRule("B", QI(1))
        module = HCModuleFamily(WeightSet(kind, param), DegreeProfile(param, 0, 0, 0), TransitionData(param, B, B),
                                casimir_triple(0, QI(1, 1), 1))
        assert len({fresh_validate(module, window).ok for window in WINDOWS}) == 1

    def test_transition_between_window_and_pivot_is_checked(self):
        module = _pivot_beyond_window()
        report = fresh_validate(module, (-24, 23))
        assert not report.ok
        assert list(report)[0].where == 24
        assert list(report)[0].message == "deg A_n = 1 exceeds bound 0"
        assert list(fresh_validate(module, (-24, 25)))[0].to_json() == list(report)[0].to_json()

    @pytest.mark.parametrize("side", ["hi", "lo"])
    @example(case=(_with_degree(ascending_module(), -8, -2), (-7, 6)))  # steps 3 and -1 below lo
    @example(case=(_with_degree(ascending_module(), 6, 2), (-6, 5)))  # step 2 above hi
    @given(case=edge_cases())
    @settings(max_examples=40, deadline=None)
    def test_ok_unchanged_when_the_window_grows_by_one(self, side, case):
        module, (lo, hi) = case
        grown = (lo, hi + 1) if side == "hi" else (lo - 1, hi)
        assert fresh_validate(module, (lo, hi)).ok == fresh_validate(module, grown).ok


# -- the closed form in n against the per-transition loops it replaces ---------


def _loop_scalar_at(poly, p, bound):
    if poly.is_zero():
        return QI_ZERO
    if p is INFINITY:
        return poly.leading_coeff() if poly.degree() == bound else QI_ZERO
    return poly.evaluate(GaussianRational._coerce(p))


def _integer_roots(c):
    """The integers n with n(n+2) = c, that is (n+1)^2 = c + 1."""
    if c.im or c.re.denominator != 1 or c.re < -1:
        return []
    s = math.isqrt(c.re.numerator + 1)
    return [s - 1, -s - 1] if s * s == c.re + 1 else []


def _walked_transitions(module, window):
    """Every transition of the weight set from the lowest to the highest of
    the window, the overrides, the degree overrides, the anchor, the pivot,
    the end of a lowest or highest set and the integer roots of n(n+2) = c0,
    and six weights past them on each side.  Beyond that point a tail's
    transitions follow one rule, one slope and one deg q_n, and the walk has
    checked some of them."""
    w, t, d = module.weights, module.transitions, module.degrees
    if w.kind == "finite":
        return w.transitions_in(window)
    marks = [*window, d.anchor, t.pivot, w.param, *_integer_roots(module.casimir[1])]
    marks += [n for n, _, _ in t.overrides] + [n for n, _ in d.overrides]
    return [n for n in range(min(marks) - 6, max(marks) + 7) if w.has_transition(n)]


def _loop_validate(module, window=DEFAULT_WINDOW):
    """validate as a walk over single transitions: every transition of
    :func:`_walked_transitions` through module.transition_polys(n) and
    4 A_n B_n = q_n, each violation listed with its n."""
    if window[0] > window[1]:
        raise ValueError("empty window")
    v = [hcmod.Violation(n, "override at an absent transition")
         for n, _, _ in module.transitions.overrides if not module.weights.has_transition(n)]
    v += [hcmod.Violation(n, "degree override at an absent weight")
          for n, _ in module.degrees.overrides if not module.weights.contains(n)]
    for n in _walked_transitions(module, window):
        A, B = module.transition_polys(n)
        q = module.q_poly(n)
        if q.is_zero():
            v.append(hcmod.Violation(n, "q_n is identically zero (excluded Casimir value)"))
            continue
        if not (A.is_ordinary() and B.is_ordinary()):
            v.append(hcmod.Violation(n, "transition data is not polynomial"))
            continue
        if A.is_zero() or B.is_zero():
            v.append(hcmod.Violation(n, "zero transition polynomial (not generically irreducible)"))
            continue
        if (A * B).scale(4) != q:
            v.append(hcmod.Violation(n, "Casimir equation 4 A_n B_n = q_n fails"))
        step = module.degrees.step(n)
        if abs(step) > 1:
            v.append(hcmod.Violation(n, "degree profile jumps by more than one"))
        ba, bb = 1 + step, 1 - step
        if A.degree() > ba:
            v.append(hcmod.Violation(n, f"deg A_n = {A.degree()} exceeds bound {ba}"))
        if B.degree() > bb:
            v.append(hcmod.Violation(n, f"deg B_n = {B.degree()} exceeds bound {bb}"))
    return hcmod.ValidationReport(v)


def _verdict_and_listing(module, window, report):
    """The ok verdict and the violations a report lists, less those on an
    infinite tail beyond the window: validate lists a longer run there once
    per tail, the walk each transition it reached."""
    w, (lo, hi) = module.weights, window

    def on_a_tail(where):
        if isinstance(where, str):
            return where.startswith("tail")
        return where > hi and w.unbounded_above or where < lo and w.unbounded_below

    return report.ok, [v.to_json() for v in report if not on_a_tail(v.where)]


def _loop_fiber_scalars(module, p, window):
    out = {}
    for n in module.weights.transitions_in(window):
        A, B = module.transition_polys(n)
        ba, bb = module.degree_bounds(n)
        out[n] = (_loop_scalar_at(A, p, ba), _loop_scalar_at(B, p, bb))
    return out


def _loop_reducible_locus(module, window=DEFAULT_WINDOW):
    hcmod._require_valid(module)
    points, unsplit = set(), []
    for n in module.weights.transitions_in(window):
        A, B = module.transition_polys(n)
        for which, poly in (("A", A), ("B", B)):
            try:
                points.update(poly_roots(poly))
            except UnsplitQuadratic:
                unsplit.append((n, which, poly))
    boundary = {bp for bp in (QI_ZERO, INFINITY) if not hcmod._fiber_verdict(module, bp, window)}
    return hcmod.ReducibleLocus(frozenset(points), frozenset(boundary), tuple(unsplit))


def _proportionality(a, b):
    """The constant mu with b = mu * a, or None: iso_check's test before it
    cross-multiplied on the integer triples."""
    if a.is_zero() or b.is_zero() or set(a.coeffs) != set(b.coeffs):
        return None
    mu = b.leading_coeff() / a.leading_coeff()
    return mu if a.scale(mu) == b else None


def _iso_result(isomorphic, obstruction=None, scalars=None):
    return types.SimpleNamespace(isomorphic=isomorphic, obstruction=obstruction, scalars=scalars or {})


def _loop_iso_check(m1, m2, window=DEFAULT_WINDOW):
    """iso_check as a walk over single transitions: the degrees on every
    weight of the walks of both modules and the tails' slopes, then every
    walked transition in the order (|n|, n) through transition_polys; the
    scalars listed are the window's, up to the first transition that fails."""
    hcmod._require_valid(m1)
    hcmod._require_valid(m2)
    if m1.weights != m2.weights:
        return _iso_result(False, "weight sets differ")
    w, d1, d2 = m1.weights, m1.degrees, m2.degrees
    walked = sorted({*_walked_transitions(m1, window), *_walked_transitions(m2, window)}, key=lambda n: (abs(n), n))
    weights = {m for n in walked for m in (n, n + 2)} or w.weights_in(window)
    if (any(d1.deg(n) != d2.deg(n) for n in weights) or w.unbounded_above and d1.slope_up != d2.slope_up
            or w.unbounded_below and d1.slope_down != d2.slope_down):
        return _iso_result(False, "degree profiles differ")
    if m1.casimir != m2.casimir:
        return _iso_result(False, "Casimir triples differ")
    if w.unbounded_above and m1.transitions.rule_up.unit_on != m2.transitions.rule_up.unit_on:
        return _iso_result(False, "upper tail rules place units on different sides")
    if w.unbounded_below and m1.transitions.rule_down.unit_on != m2.transitions.rule_down.unit_on:
        return _iso_result(False, "lower tail rules place units on different sides")
    listed, scalars = set(w.transitions_in(window)), {}
    for n in walked:
        A1, B1 = m1.transition_polys(n)
        A2, B2 = m2.transition_polys(n)
        mu = _proportionality(A1, A2)
        if mu is None or mu.is_zero():
            return _iso_result(False, f"A_{n} is not a scalar multiple", scalars)
        if B1.scale(mu.inverse()) != B2:
            return _iso_result(False, f"B_{n} does not match the scalar of A_{n}", scalars)
        if n in listed:
            scalars[n] = mu
    return _iso_result(True, None, scalars)


@contextlib.contextmanager
def per_transition_loops():
    """Swap the closed-form readers for the loops above."""
    with contextlib.ExitStack() as stack:
        for name, fn in (("validate", _loop_validate), ("_fiber_scalars", _loop_fiber_scalars),
                         ("reducible_locus", _loop_reducible_locus), ("iso_check", _loop_iso_check)):
            stack.enter_context(mock.patch.object(hcmod, name, fn))
        yield


def _with_rules(module, up, down):
    t = dataclasses.replace(module.transitions, rule_up=up(module.transitions.rule_up),
                            rule_down=down(module.transitions.rule_down))
    return dataclasses.replace(module, transitions=t)


def _iso_twins(module, window, lam, kappa):
    """Twins of the module: tail units rescaled by lam and kappa, the upper
    or the lower unit side flipped, and every other window transition
    overridden by its pair rescaled by lam."""
    flip = lambda r: TailRule("B" if r.unit_on == "A" else "A", r.value)  # noqa: E731
    twins = [
        _with_rules(module, lambda r: TailRule(r.unit_on, r.value * lam), lambda r: TailRule(r.unit_on, r.value * kappa)),
        _with_rules(module, flip, lambda r: r),
        _with_rules(module, lambda r: r, flip),
    ]
    partial = module.transitions
    for n in module.weights.transitions_in(window)[::2]:
        A, B = module.transition_polys(n)
        partial = partial.with_overrides({n: (A.scale(lam), B.scale(lam.inverse()))})
    return twins + [dataclasses.replace(module, transitions=partial)]


def _closed_form_example(module, window=(-6, 6)):
    return module, window, [QI_ZERO, INFINITY, QI(1), QI(Fraction(1, 3))], _iso_twins(module, window, QI(3), QI(1, 1))


@st.composite
def closed_form_cases(draw):
    """A module whose transitions mostly follow the tail rules, a window, fiber
    points, and iso twins: tail units rescaled (the closed-form mu), a unit
    side flipped, and some transitions overridden by a rescaled pair."""
    kind = draw(st.sampled_from(["even", "odd", "even", "odd", "lowest", "highest", "finite"]))
    param = {"lowest": st.integers(1, 5), "highest": st.integers(-5, -1), "finite": st.integers(0, 5)}
    weights = WeightSet(kind, draw(param[kind]) if kind in param else 0)
    lo = draw(st.integers(-12, 12))
    window = (lo, draw(st.integers(lo, lo + 16)))
    indices = weights.transitions_in(window)
    # Random tails: slopes in -1..1, units where the slopes allow them, pivot
    # at the anchor.  A flat tail needs c1 = 0 and makes deg q_n visible at
    # infinity through the partner's bound of 1.
    flat_or_not = st.sampled_from([0, 0, 1, -1])
    slopes = draw(st.tuples(flat_or_not, flat_or_not)) if draw(st.booleans()) else None
    c1 = draw(st.one_of(st.just(QI_ZERO), small_qi, st.just(QI(1, 2))))
    if slopes and 0 in slopes:
        c1 = QI_ZERO
    if indices and draw(st.booleans()):  # q_m drops to degree <= 0 at an in-window m
        m = draw(st.sampled_from(indices))
        c0 = QI(m * (m + 2))
    else:
        c0 = draw(small_qi)
    casimir = classify._forced_casimir(weights) or casimir_triple(c1, c0, draw(st.one_of(st.just(QI_ZERO), small_qi)))
    try:
        if slopes:
            raise classify.IncompatibleClass("a module of random tails")
        module = construct(weights, draw(st.sampled_from(applicable_classes(weights, window)[:6])), casimir)
    except (classify.IncompatibleClass, classify.InadmissibleCasimir):
        su, sd = slopes or (0, 0)
        up = "A" if su < 0 else "B" if su > 0 else draw(st.sampled_from("AB"))
        down = "A" if sd > 0 else "B" if sd < 0 else draw(st.sampled_from("AB"))
        anchor = draw(st.integers(lo - 2, window[1] + 2))  # of either parity
        module = HCModuleFamily(
            weights,
            DegreeProfile(anchor, 0, su, sd),
            TransitionData(anchor, TailRule(up, draw(nonzero_qi)), TailRule(down, draw(nonzero_qi))),
            casimir,
        )
    t = module.transitions
    if draw(st.integers(0, 2)) == 0:  # the pivot moves, to either parity
        t = dataclasses.replace(t, pivot=draw(st.integers(lo, window[1] + 2)))
    for n in draw(st.lists(st.sampled_from(indices), max_size=2)) if indices else []:
        A, B = module.transition_polys(n)
        mu = draw(nonzero_qi)
        t = t.with_overrides({n: (A.scale(mu), B.scale(mu.inverse()))})
    ends = [n for n in (lo - 2, window[1] + 2) if weights.contains(n)]
    at = degree_override_at(weights, *window)
    degs = [(n, module.degrees.deg(n) + draw(st.sampled_from([0, 0, 1, -1])))
            for n in draw(st.lists(st.one_of(st.sampled_from(ends), at) if ends else at, max_size=2))]
    module = dataclasses.replace(module, transitions=t,
                                 degrees=dataclasses.replace(module.degrees, overrides=tuple(degs)))
    twins = _iso_twins(module, window, draw(nonzero_qi), draw(nonzero_qi))
    points = [QI_ZERO, INFINITY, draw(small_qi), QI(Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 99))))]
    return module, window, points, twins


def _loop_zero_letters(module, n, p):
    A, B = module.transition_polys(n)
    ba, bb = module.degree_bounds(n)
    return [x for x, poly, bound in (("A", A, ba), ("B", B, bb)) if _loop_scalar_at(poly, p, bound).is_zero()]


def assert_tail_agrees(module, p, window, tail, reach=40):
    """Each tail entry with its own n names the zero scalars of that
    transition, and those with n None name the zero scalars of every other
    transition of their tail: checked by evaluation for reach weights beyond
    the window on each side.  On a side that ends, every transition from the
    window to the end of the weight set is listed with its own n."""
    w, (lo, hi) = module.weights, window
    for side, near in (("up", range(hi + 1, hi + reach)), ("down", range(lo - reach, lo))):
        entries = [(n, x) for s, n, x in tail if s == side]
        if not (w.unbounded_above if side == "up" else w.unbounded_below):
            stretch = range(w.param, lo) if w.kind == "lowest" else range(hi + 1, w.param) if w.kind == "highest" else ()
            assert entries == [(n, x) for n in stretch if w.has_transition(n) for x in _loop_zero_letters(module, n, p)]
            continue
        own = {}
        for n, x in entries:
            if n is not None:
                own.setdefault(n, []).append(x)
        every_other = [x for n, x in entries if n is None]
        for n in sorted(set(near) | set(own)):
            if w.has_transition(n):
                assert _loop_zero_letters(module, n, p) == own.get(n, every_other), (side, n, p)


def closed_form_verdicts(module, window, points, twins):
    """Every verdict the four readers give, looked up on hcmod at call time."""
    out = {"validate": [_verdict_and_listing(m, window, hcmod.validate(dataclasses.replace(m), window))
                        for m in [module, *twins]]}

    def outcome(fn, *args):  # a refusal quotes validate's listing, compared above
        got = _outcome_of(fn, *args)
        return got[:1] if isinstance(got, tuple) and got[0] == "NotValidated" else got

    locus = outcome(hcmod.reducible_locus, module, window)
    if isinstance(locus, tuple):
        out["locus"] = locus
    else:
        out["locus"] = (locus.points, locus.boundary, [(n, w, str(p)) for n, w, p in locus.unsplit])
        points = points + sorted(locus.points, key=str)[:3]
    for p in points:
        v = outcome(hcmod.fiber_irreducible, module, p, window)
        out[f"fiber {p}"] = v if isinstance(v, tuple) else (v.irreducible, v.scalars, v.tail)
        if not isinstance(v, tuple):
            loop = _loop_fiber_scalars(module, p, window)
            assert v.vanishing == [(n, x) for n in sorted(loop) for x, c in zip("AB", loop[n]) if c.is_zero()]
            assert_tail_agrees(module, p, window, v.tail)
            assert v.irreducible is not (v.vanishing or v.tail)
            assert v.count() == len({(s, n) for s, n, _ in v.tail if n is not None})
    for i, twin in enumerate(twins):
        for a, b in ((module, twin), (twin, module)):
            iso = outcome(hcmod.iso_check, a, b, window)
            out[f"iso {i} {a is module}"] = iso if isinstance(iso, tuple) else (iso.isomorphic, iso.scalars, iso.obstruction)
    return out


class TestClosedForm:
    # Flat tails with q_2 = 1: the partner's bound of 1 is missed by deg q_2 = 0
    # and by every unit at infinity.  Then unsplit q_n beside the unit 1.
    @example(_closed_form_example(HCModuleFamily(
        WeightSet("even"), DegreeProfile(0, 0, 0, 0), TransitionData(0, TailRule("A", QI(2)), TailRule("B", QI(1, 1))),
        casimir_triple(0, 8, 1))))
    @example(_closed_form_example(construct(WeightSet("even"), ClassSpec("III"), casimir_triple(1, 0, -1))))
    # q_n(1) = 15 - n(n+2) vanishes at the odd n = 3 and n = -5 only.
    @example(_closed_form_example(construct(WeightSet("even"), ClassSpec("III"), casimir_triple(0, 0, 15))))
    # The one violation lies between the window and the end of the weight set:
    # at the lowest transition n = 1, and at the highest n = -3.
    @example(_closed_form_example(HCModuleFamily(
        WeightSet("lowest", 1), DegreeProfile(0, 0, 1, 0), TransitionData(3, TailRule("B"), TailRule("A")),
        casimir_triple(0, -1, 0)), (3, 9)))
    @example(_closed_form_example(HCModuleFamily(
        WeightSet("highest", -1), DegreeProfile(0, 0, 0, 1), TransitionData(-3, TailRule("B"), TailRule("A")),
        casimir_triple(0, -1, 0)), (-9, -5)))
    @given(closed_form_cases())
    @settings(max_examples=60, deadline=None)
    def test_closed_form_matches_per_transition_loops(self, case):
        got = closed_form_verdicts(*case)
        with per_transition_loops():
            expected = closed_form_verdicts(*case)
        assert got == expected

    @pytest.mark.parametrize("weights, cls, casimir", [
        (WeightSet("even"), ClassSpec("III"), (0, Fraction(1, 3), 1)),
        (WeightSet("odd"), ClassSpec("I", 1), (1, 2, 3)),
        (WeightSet("lowest", 3), ClassSpec("I", 3), (0, 3, 0)),
    ], ids=["even-III", "odd-I", "lowest-I"])
    def test_work_does_not_grow_with_the_window(self, monkeypatch, weights, cls, casimir):
        # No n(n+2) = q_0(1/3) / (1/3) lies in either window, so the verdicts
        # match as they stand.
        counts = []
        for name in ("_transition_violations", "_scalar_pair"):
            real = getattr(hcmod, name)
            monkeypatch.setattr(hcmod, name, lambda *args, real=real, name=name: counts.append(name) or real(*args))
        module = construct(weights, cls, casimir_triple(*casimir))
        seen = []
        for window in ((-10**2, 10**2), (-10**6, 10**6)):
            counts.clear()
            report = fresh_validate(module, window).to_json()
            verdicts = [fiber_irreducible(module, p, window) for p in (QI_ZERO, INFINITY, QI(Fraction(1, 3)))]
            seen.append((sorted(counts), report, [(v.irreducible, v.tail, len(v.zeros)) for v in verdicts]))
        assert seen[0] == seen[1]
        assert 0 < len(seen[0][0]) < 100

    def test_override_free_module_builds_no_transition(self, monkeypatch):
        window = (-200, 200)
        module = construct(WeightSet("even"), ClassSpec("III"), casimir_triple(1, 0, -1))
        twin = _with_rules(module, lambda r: TailRule(r.unit_on, r.value * 3), lambda r: TailRule(r.unit_on, r.value * QI_I))
        calls = []
        derive = HCModuleFamily.transition_polys
        monkeypatch.setattr(HCModuleFamily, "transition_polys", lambda self, n: calls.append(n) or derive(self, n))
        assert fresh_validate(module, window).ok
        for p in (QI_ZERO, INFINITY, QI(Fraction(1, 3))):
            fiber_irreducible(module, p, window)
        assert iso_check(module, twin, window)
        reducible_locus(module, window)
        assert calls == []


def _flat_even(pivot=0, overrides=()):
    """Casimir 0,0,1, flat degrees, the unit A above the pivot and B below."""
    return HCModuleFamily(WeightSet("even"), DegreeProfile(0, 0, 0, 0),
                          TransitionData(pivot, TailRule("A"), TailRule("B"), tuple(overrides)), casimir_triple(0, 0, 1))


#: (document, n): documents that differ from _flat_even() at n only, beyond
#: the window -10..-2: in the pivot, and in an override at 40
#: (4 A_40 B_40 = 1 - 1680 z = q_40).
ISO_BEYOND_WINDOW = {
    "pivot": (_flat_even(pivot=100), 2),
    "override": (_flat_even(overrides=[(40, LaurentPoly({0: Fraction(1, 4), 1: -420}), LaurentPoly.constant(1))]), 40),
}


def _support_hull(module):
    """The window from the lowest to the highest override, degree override,
    anchor or pivot of the module."""
    d, t = module.degrees, module.transitions
    ns = [d.anchor, t.pivot, *(n for n, _ in d.overrides), *(n for n, _, _ in t.overrides)]
    return min(ns), max(ns)


def windowless_verdicts(module, window, points, twin):
    """The verdicts of validate, of the fiber at each point and of iso_check
    against the twin, read on the window."""
    out = [fresh_validate(module, window).ok]
    for p in points:
        v = _outcome_of(fiber_irreducible, module, p, window)
        out.append(v if isinstance(v, tuple) else v.irreducible)
    iso = _outcome_of(iso_check, module, twin, window)
    return out + [iso if isinstance(iso, tuple) else (iso.isomorphic, iso.obstruction)]


class TestWindowlessVerdicts:
    @pytest.mark.parametrize("window", [(-10, -2), (-24, 24), (-200, 200)])
    @pytest.mark.parametrize("pair", sorted(ISO_BEYOND_WINDOW))
    def test_iso_names_a_difference_beyond_the_window(self, pair, window):
        other, n = ISO_BEYOND_WINDOW[pair]
        for m1, m2 in ((_flat_even(), other), (other, _flat_even())):
            result = iso_check(m1, m2, window)
            assert not result and result.obstruction == f"A_{n} is not a scalar multiple"
            loop = _loop_iso_check(m1, m2, window)
            assert (loop.isomorphic, loop.obstruction, loop.scalars) == (False, result.obstruction, result.scalars)

    def test_pivots_that_differ_just_above_the_window(self):
        # On odd weights the pivots 11 and 12 put n = 11, the first transition
        # above the window -10..10, on different sides: unit A against unit B.
        m1, m2 = (dataclasses.replace(_flat_even(pivot), weights=WeightSet("odd")) for pivot in (11, 12))
        result = iso_check(m1, m2, (-10, 10))
        assert not result and result.obstruction == "A_11 is not a scalar multiple"
        assert result.scalars == {n: QI(1) for n in range(-9, 10, 2)}

    @given(module_cases(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_verdicts_do_not_depend_on_the_window(self, case, data):
        module, window, points = case
        twin = _rescaled_twin(module, window)
        windows = [(-6, 6), (-24, 24), (-96, 96), (-10**20, 10**20), _support_hull(module)]
        seen = [windowless_verdicts(module, w, points, twin) for w in windows]
        assert all(s == seen[0] for s in seen)
        # A window that leaves one override, the anchor or the pivot outside.
        t, d = module.transitions, module.degrees
        x = data.draw(st.sampled_from([d.anchor, t.pivot, *(n for n, _, _ in t.overrides)]))
        gap, width = data.draw(st.integers(1, 30)), data.draw(st.integers(0, 40))
        moved = (x + gap, x + gap + width) if data.draw(st.booleans()) else (x - gap - width, x - gap)
        assert fresh_validate(module, moved).ok == seen[0][0]


# q_3(1) = 15 - 3 * 5 = 0, so B_3(1) = 0: below the window (11, 21), above (1, 21)'s lowest weight.
STRETCH_REPRO = HCModuleFamily(WeightSet("lowest", 1), DegreeProfile(11, 0, 0, 0),
                               TransitionData(11, TailRule("A"), TailRule("A")), casimir_triple(0, 0, 15))


@st.composite
def stretch_cases(draw):
    """A module on a lowest- or highest-weight set (valid or not), a window
    away from the end of the set, that window moved toward the end, and fiber
    points, among them roots of q_m for m between the two."""
    kind = draw(st.sampled_from(["lowest", "highest"]))
    sign = 1 if kind == "lowest" else -1
    param, gap, width = sign * draw(st.integers(1, 5)), draw(st.integers(2, 16)), draw(st.integers(0, 8))
    if kind == "lowest":
        far = (param + gap, param + gap + width)
        moved = (draw(st.integers(param - 3, far[0])), far[1])
    else:
        far = (param - gap - width, param - gap)
        moved = (far[0], draw(st.integers(far[1], param + 3)))
    slopes = st.sampled_from([0, 0, 0, 1, -1])
    degrees = DegreeProfile(draw(st.integers(*far)), 0, draw(slopes), draw(slopes))
    rules = st.builds(TailRule, st.sampled_from("AB"), nonzero_qi)
    transitions = TransitionData(draw(st.integers(far[0], far[1] + 2)), draw(rules), draw(rules))
    casimir = casimir_triple(draw(st.sampled_from([0, 0, 0, 1])), draw(st.integers(-20, 40)), draw(st.integers(-3, 3)))
    module = HCModuleFamily(WeightSet(kind, param), degrees, transitions, casimir)
    points = [QI_ZERO, INFINITY, draw(small_qi)]
    between = [m for m in range(min(far[0], moved[0]) - 2, max(far[1], moved[1]) + 3) if module.weights.has_transition(m)]
    for m in draw(st.lists(st.sampled_from(between), max_size=2)) if between else []:
        with contextlib.suppress(UnsplitQuadratic):
            points += [r for r in poly_roots(module.q_poly(m)) if not r.is_zero()]
    return module, far, moved, points


class TestFiniteStretch:
    """The fiber verdict also reads the transitions between the window and
    the end of a lowest- or highest-weight set, so it does not depend on how
    far the window lies from that end."""

    def test_stretch_zero_is_listed_with_its_own_n(self):
        far = fiber_irreducible(STRETCH_REPRO, QI(1), (11, 21))
        near = fiber_irreducible(STRETCH_REPRO, QI(1), (1, 21))
        assert not far.irreducible and not near.irreducible
        assert (far.vanishing, far.tail) == ([], [("down", 3, "B")])
        assert (near.vanishing, near.tail) == ([(3, "B")], [])

    def test_every_stretch_transition_is_listed_at_zero(self):
        # c_{-1} = 0: every B_n vanishes at 0, each listed with its n; the
        # infinite tail keeps its one entry.
        module = dataclasses.replace(STRETCH_REPRO, casimir=casimir_triple(0, 1, 0))
        verdict = fiber_irreducible(module, QI_ZERO, (11, 21))
        assert verdict.tail == [("up", None, "B")] + [("down", n, "B") for n in range(1, 11, 2)]
        assert verdict.count() == 5
        highest = HCModuleFamily(WeightSet("highest", -1), DegreeProfile(-11, 0, 0, 0),
                                 TransitionData(-11, TailRule("B"), TailRule("B")), casimir_triple(0, 1, 0))
        verdict = fiber_irreducible(highest, QI_ZERO, (-21, -11))
        assert verdict.tail == [("up", n, "A") for n in range(-9, -2, 2)] + [("down", None, "A")]
        assert verdict.count() == 4

    @example((STRETCH_REPRO, (11, 21), (1, 21), [QI(1)]))
    @given(stretch_cases())
    @settings(max_examples=80, deadline=None)
    def test_verdicts_do_not_move_with_the_window(self, case):
        module, far, moved, points = case
        report = fresh_validate(module, far)
        assert report.to_json() == fresh_validate(module, moved).to_json()
        if not report.ok:
            return
        stretch_side = "down" if module.weights.kind == "lowest" else "up"
        seen = []
        for window in (far, moved):
            verdicts = [fiber_irreducible(module, p, window) for p in points]
            for v in verdicts:
                assert v.irreducible is not bool(v.vanishing or v.tail)
                assert v.count() == len({(s, n) for s, n, _ in v.tail if n is not None})
            seen.append([(v.irreducible, sorted(v.vanishing + [(n, x) for s, n, x in v.tail if s == stretch_side]),
                          [e for e in v.tail if e[0] != stretch_side]) for v in verdicts])
        assert seen[0] == seen[1]

    def test_cli_lists_the_stretch_and_refuses_one_too_long(self, tmp_path, monkeypatch):
        from hcfam import cli

        path = tmp_path / "module.json"
        path.write_text(json.dumps(STRETCH_REPRO.to_json()))

        def request(*argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.run(["module", *argv, "--module", str(path)])
            return code, json.loads(out.getvalue())

        code, doc = request("fiber", "--at", "1", "--window", "11..21")
        assert code == 1 and doc["vanishing"] == [] and doc["tail_vanishing"] == [{"side": "down", "n": 3, "poly": "B"}]
        # With c_{-1} = 0 each B_n vanishes at 0: five times in 1..9, below
        # the window 11..17, which holds four transitions.
        monkeypatch.setattr(cli, "MAX_LISTED", 4)
        path.write_text(json.dumps(dataclasses.replace(STRETCH_REPRO, casimir=casimir_triple(0, 1, 0)).to_json()))
        code, doc = request("fiber", "--at", "0", "--window", "11..17")
        assert code == 2 and doc["error"] == "request"
        assert request("fiber", "--at", "0", "--window", "5..11")[0] == 1
        assert request("locus", "--window", "11..17")[0] == 0
