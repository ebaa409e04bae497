"""Tests for Harish-Chandra module families: validation, fibers, isomorphism."""

import dataclasses
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcfam.scalars import (
    INFINITY,
    GaussianRational,
    LaurentPoly,
    QI_I,
    QI_ZERO,
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
    degrees_lemma_check,
    fiber_irreducible,
    fiber_module,
    generically_irreducible,
    iso_check,
    picard_twist,
    profiles_equal,
    reducible_locus,
    swap_transitions,
    validate,
)
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
        assert profiles_equal(a, b, WeightSet("even"), (-10, 10))
        c = DegreeProfile(0, 0, 1, 1)
        assert not profiles_equal(a, c, WeightSet("even"), (-10, 10))


def ascending_module():
    return construct(WeightSet("even"), ClassSpec("III"), casimir_triple(0, 0, 1))


class TestValidation:
    def test_canonical_modules_validate(self):
        for cls in (ClassSpec("III"), ClassSpec("IV"), ClassSpec("I", 0), ClassSpec("II", 0)):
            module = construct(WeightSet("even"), cls, casimir_triple(1, 0, 1))
            report = validate(module)
            assert report.ok, report.to_json()
            assert generically_irreducible(module)
            assert degrees_lemma_check(module)

    def test_zero_transition_polynomial_flagged(self):
        module = ascending_module()
        broken = module.transitions.with_override(2, LaurentPoly({}), LaurentPoly.constant(1))
        import dataclasses

        bad = dataclasses.replace(module, transitions=broken)
        report = validate(bad)
        assert not report.ok
        assert any("zero transition" in v.message for v in report.violations)

    def test_casimir_equation_enforced(self):
        module = ascending_module()
        broken = module.transitions.with_override(
            0, LaurentPoly.constant(1), LaurentPoly.constant(1)
        )
        import dataclasses

        bad = dataclasses.replace(module, transitions=broken)
        report = validate(bad)
        assert any("Casimir equation" in v.message for v in report.violations)

    def test_degree_bound_enforced(self):
        module = ascending_module()
        # Correct product, illegal split: both factors degree 1 where B must
        # be constant (ascending step).
        q = module.q_poly(2)
        import dataclasses

        half = q.scale(GaussianRational(Fraction(1, 4)))
        broken = module.transitions.with_override(2, LaurentPoly.constant(1), half)
        bad = dataclasses.replace(module, transitions=broken)
        report = validate(bad)
        assert any("exceeds bound" in v.message for v in report.violations)

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
        assert any("impossible for a whole tail" in v.message for v in report.violations)

    def test_identically_zero_q_rejected(self):
        module = HCModuleFamily(
            WeightSet("even"),
            DegreeProfile(0, 0, 1, -1),
            TransitionData(0, TailRule("B"), TailRule("B")),
            casimir_triple(0, 8, 0),  # q_2 == 0 identically
        )
        report = validate(module)
        assert not report.ok


class TestFibers:
    def test_interior_scalars_are_evaluations(self):
        module = ascending_module()
        scalars = fiber_module(module, QI(2), (-4, 4))
        for n, (a, b) in scalars.items():
            A, B = module.transition_polys(n)
            assert a == A.evaluate(QI(2)) and b == B.evaluate(QI(2))

    def test_boundary_scalar_semantics_at_infinity(self):
        module = ascending_module()
        scalars = fiber_module(module, INFINITY, (-4, 4))
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
        assert locus.all_points() == frozenset({QI_ZERO, INFINITY})

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
            fiber_module(module, QI(1))

    @pytest.mark.parametrize(
        "query",
        [
            reducible_locus,
            lambda m: fiber_irreducible(m, QI(0)),
            lambda m: fiber_module(m, QI(0)),
        ],
        ids=["reducible_locus", "fiber_irreducible", "fiber_module"],
    )
    def test_one_validation_per_query(self, monkeypatch, query):
        from hcfam import hcmod

        calls = []

        def counting(module, window=DEFAULT_WINDOW):
            calls.append(window)
            return validate(module, window)

        monkeypatch.setattr(hcmod, "validate", counting)
        query(ascending_module())
        assert calls == [DEFAULT_WINDOW]

    def test_verdict_carries_fiber_scalars(self):
        module = ascending_module()
        for p in (QI(0), INFINITY, QI(Fraction(1, 8)), QI_I):
            verdict = fiber_irreducible(module, p, (-6, 6))
            assert verdict.scalars == fiber_module(module, p, (-6, 6))
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
            t = t.with_override(n, A.scale(mu), B.scale(mu.inverse()))
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
        t = t.with_override(n, A.scale(mu), B.scale(mu.inverse()))
    return dataclasses.replace(module, transitions=t)


class TestWindowGrowth:
    """Once the window holds every override and the pivot, growing it must not
    change the verdicts of ``validate`` and ``iso_check``."""

    @pytest.mark.parametrize("cls", CLASSES_I_TO_IV, ids=str)
    def test_validate_verdicts_unchanged(self, cls):
        module = class_module_with_overrides(cls)
        t = module.transitions
        A, B = module.transition_polys(2)
        corrupted = dataclasses.replace(module, transitions=t.with_override(2, A.scale(2), B))

        def flipped(side):
            rule = getattr(t, side)
            other = TailRule("B" if rule.unit_on == "A" else "A", rule.value)
            return dataclasses.replace(module, transitions=dataclasses.replace(t, **{side: other}))

        assert all(validate(module, w).ok for w in GROWING_WINDOWS)
        reports = [validate(corrupted, w).to_json() for w in GROWING_WINDOWS]
        assert reports == [reports[0]] * len(reports)
        assert [v["where"] for v in reports[0]["violations"]] == ["2"]
        for side, where in (("rule_up", "tail-up"), ("rule_down", "tail-down")):
            bad = flipped(side)
            # The in-window violations grow with the window; the tail verdict
            # is decided symbolically and must not.
            tails = []
            for w in GROWING_WINDOWS:
                report = validate(bad, w)
                assert not report.ok
                tails.append([v.to_json() for v in report.violations if str(v.where).startswith("tail")])
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


class TestIsomorphism:
    def test_rescaled_module_isomorphic(self):
        module = ascending_module()
        t = module.transitions
        mu = QI(3, 2)
        for n in (-2, 0, 2):
            A, B = module.transition_polys(n)
            t = t.with_override(n, A.scale(mu), B.scale(mu.inverse()))
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
                t = t.with_override(n, A.scale(mu), B.scale(mu.inverse()))
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
        assert validate(swapped, (-8, 8)).ok
        A, B = swapped.transition_polys(2)
        A0, B0 = module.transition_polys(2)
        assert (A, B) == (B0, A0)

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
        swappedless = module.transitions.with_override(
            0, LaurentPoly.constant(QI(1, 1)), module.q_poly(0).scale((QI(4) * QI(1, 1)).inverse())
        )
        import dataclasses

        m2 = dataclasses.replace(module, transitions=swappedless)
        back = HCModuleFamily.from_json(m2.to_json())
        assert back == m2
