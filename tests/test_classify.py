"""Tests for admissibility, canonical constructions, and uniqueness probes."""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hcfam.scalars import GaussianRational
from hcfam.hcmod import WeightSet, casimir_triple, iso_check, picard_twist, validate
from hcfam.classify import (
    ClassSpec,
    InadmissibleCasimir,
    IncompatibleClass,
    admissible_casimir,
    classification_report,
    construct,
    uniqueness_probe,
)


class TestAdmissibility:
    @given(st.integers(-12, 12))
    def test_excluded_constants_by_parity(self, m):
        cas = casimir_triple(0, m * (m + 2), 0)
        assert not admissible_casimir(WeightSet("even" if m % 2 == 0 else "odd"), cas)
        assert admissible_casimir(WeightSet("odd" if m % 2 == 0 else "even"), cas)

    def test_nonconstant_triples_always_admissible_for_principal(self):
        for cas in (casimir_triple(1, 0, 0), casimir_triple(0, 0, 1), casimir_triple(1, 8, 0)):
            assert admissible_casimir(WeightSet("even"), cas)

    @given(st.integers(1, 10))
    def test_extreme_types_forced(self, l):
        forced = casimir_triple(0, l * l - 2 * l, 0)
        assert admissible_casimir(WeightSet("lowest", l), forced)
        assert not admissible_casimir(WeightSet("lowest", l), casimir_triple(0, l * l - 2 * l, 1))
        assert admissible_casimir(WeightSet("highest", -l), forced)

    @given(st.integers(0, 10))
    def test_finite_forced(self, k):
        assert admissible_casimir(WeightSet("finite", k), casimir_triple(0, k * (k + 2), 0))
        assert not admissible_casimir(WeightSet("finite", k), casimir_triple(1, k * (k + 2), 0))


class TestConstruct:
    @pytest.mark.parametrize("weights", [WeightSet("even"), WeightSet("odd")])
    @pytest.mark.parametrize("kind", ["I", "II", "III", "IV"])
    def test_all_classes_validate(self, weights, kind):
        cls = ClassSpec(kind, weights.anchor_weight()) if kind in ("I", "II") else ClassSpec(kind)
        module = construct(weights, cls, casimir_triple(1, 2, 3))
        assert validate(dataclasses.replace(module)).ok  # a copy without construct's record: every check runs

    def test_unit_normalization(self):
        module = construct(WeightSet("even"), ClassSpec("III"), casimir_triple(0, 0, 1))
        for n in (-4, 0, 6):
            A, B = module.transition_polys(n)
            assert B.degree() == 0 and B.leading_coeff() == GaussianRational(1)

    def test_inadmissible_rejected(self):
        with pytest.raises(InadmissibleCasimir):
            construct(WeightSet("even"), ClassSpec("III"), casimir_triple(0, 8, 0))

    def test_extremal_weight_must_lie_in_set(self):
        with pytest.raises(IncompatibleClass):
            construct(WeightSet("even"), ClassSpec("I", 3), casimir_triple(0, 0, 1))

    def test_equal_class_rejected(self):
        with pytest.raises(IncompatibleClass):
            construct(WeightSet("even"), ClassSpec("EQUAL"), casimir_triple(0, 0, 1))

    @pytest.mark.parametrize("k", [-60, -4, 0, 4, 40])
    @pytest.mark.parametrize("kind", ["I", "II"])
    def test_extremal_weight_beyond_the_window(self, kind, k):
        # The anchor and the pivot sit at k; validate reads every transition
        # as runs, so no window has to hold them.
        module = construct(WeightSet("even"), ClassSpec(kind, k), casimir_triple(0, Fraction(1, 3), 1))
        assert (module.degrees.anchor, module.transitions.pivot) == (k, k)
        windows = ((-2, 2), (-24, 24), (k, k), (-10**20, 10**20))
        assert all(validate(dataclasses.replace(module), window).ok for window in windows)  # unrecorded copies

    def test_classes_give_distinct_profiles(self):
        cas = casimir_triple(1, 0, 1)
        mods = [
            construct(WeightSet("even"), cls, cas)
            for cls in (ClassSpec("III"), ClassSpec("IV"), ClassSpec("I", 0), ClassSpec("II", 0))
        ]
        for i in range(len(mods)):
            for j in range(i + 1, len(mods)):
                assert not iso_check(mods[i], mods[j], (-8, 8))


class TestReports:
    def test_extreme_report_single_point(self):
        report = classification_report(WeightSet("lowest", 3), ClassSpec("I", 3))
        assert report["casimir_moduli"] == "single point"
        assert report["casimir"] == ["0", "3", "0"]
        assert report["families_per_casimir"] == 1

    def test_principal_report_describes_exclusions(self):
        report = classification_report(WeightSet("odd"), ClassSpec("III"))
        assert "excluded" in report
        assert report["families_per_casimir"] == 1


class TestProbes:
    def test_probe_passes_for_canonical_classes(self):
        probe = uniqueness_probe(
            WeightSet("even"), ClassSpec("III"), casimir_triple(0, 0, 1), trials=4, seed=11, window=(-8, 8)
        )
        assert probe.status == "pass" and probe.trials == 4

    def test_probe_deterministic_per_seed(self):
        args = (WeightSet("odd"), ClassSpec("IV"), casimir_triple(1, 0, 0))
        a = uniqueness_probe(*args, trials=3, seed=5, window=(-7, 7))
        b = uniqueness_probe(*args, trials=3, seed=5, window=(-7, 7))
        assert (a.status, a.trials, a.detail) == (b.status, b.trials, b.detail)

    @pytest.mark.parametrize("trials", [0, -1, -25])
    @pytest.mark.parametrize("kind", ["III", "EQUAL"])
    def test_probe_rejects_trial_counts_below_one(self, trials, kind):
        with pytest.raises(ValueError, match="trials >= 1"):
            uniqueness_probe(WeightSet("even"), ClassSpec(kind), casimir_triple(0, 0, 1), trials=trials)

    def test_probe_inapplicable_for_equal_degrees(self):
        probe = uniqueness_probe(WeightSet("even"), ClassSpec("EQUAL"), casimir_triple(0, 0, 1))
        assert probe.status == "inapplicable"

    def test_picard_action_free_and_classification_stable(self):
        module = construct(WeightSet("even"), ClassSpec("III"), casimir_triple(0, 0, 1))
        twisted = picard_twist(module, 1)
        assert not iso_check(module, twisted)
        assert validate(dataclasses.replace(twisted)).ok
