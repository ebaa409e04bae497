"""Tests for the sl(2) contraction pair and its Casimir."""

import pytest

from hcfam.scalars import RationalFunction, RF_ONE, RF_Z, RF_ZERO
from hcfam.sl2fam import (
    build_sl2_contraction,
    casimir_acting_function,
    casimir_section,
    WeightMissing,
)
from hcfam.hcmod import HCModuleFamily, WeightSet, casimir_triple
from hcfam.classify import ClassSpec, construct


@pytest.fixture(scope="module")
def pair():
    return build_sl2_contraction()


class TestCanonicalSections:
    def test_weights(self, pair):
        assert pair.H.weight == 0
        assert pair.X.weight == 2
        assert pair.Y.weight == -2

    def test_degrees_from_order_ledgers(self, pair):
        assert pair.H.degree() == 0
        assert pair.X.degree() == -1
        assert pair.Y.degree() == -1

    def test_relations_hold_in_both_charts(self, pair):
        # build_sl2_contraction verifies the relations at construction time;
        # a doctored section must be caught by the same check, in its chart.
        from hcfam.sl2fam import _relations_counterexample
        import dataclasses

        for name, chart, coords, expected in [
            ("X", "z_coords", {1: RF_Z}, "[X,Y]=H in z-chart"),
            ("X", "z_coords", {0: RF_ONE, 1: RF_ONE}, "[H,X]=2X in z-chart"),
            ("Y", "w_coords", {2: RF_Z}, "[X,Y]=H in w-chart"),
            ("Y", "w_coords", {0: RF_ONE, 2: RF_ONE}, "[H,Y]=-2Y in w-chart"),
        ]:
            section = dataclasses.replace(getattr(pair, name), **{chart: coords})
            assert _relations_counterexample(dataclasses.replace(pair, **{name: section})) == expected
        assert _relations_counterexample(pair) is None


class TestCasimir:
    def test_orders_at_degenerate_points(self, pair):
        cas = casimir_section(pair)
        assert cas.ord_at_zero == -1
        assert cas.ord_at_infinity == -1

    @pytest.mark.parametrize(
        "weights,cls",
        [
            (WeightSet("even"), ClassSpec("III")),
            (WeightSet("odd"), ClassSpec("IV")),
            (WeightSet("finite", 4), ClassSpec("III")),
        ],
    )
    def test_acting_function_matches_triple(self, weights, cls):
        if weights.kind == "finite":
            cas = casimir_triple(0, 24, 0)
        else:
            cas = casimir_triple(1, 2, 3)
        module = construct(weights, cls, cas)
        c1, c0, cm1 = cas
        expected = (
            RationalFunction.constant(c1) * RF_Z
            + RationalFunction.constant(c0)
            + RationalFunction.constant(cm1) / RF_Z
        )
        for n in weights.weights_in((-8, 8)):
            assert casimir_acting_function(module, n) == expected

    @pytest.mark.parametrize(
        "weights,cls,cas",
        [
            (WeightSet("even"), ClassSpec("III"), casimir_triple(0, 0, 1)),
            (WeightSet("lowest", 3), ClassSpec("I", 3), casimir_triple(0, 3, 0)),
            (WeightSet("finite", 4), ClassSpec("III"), casimir_triple(0, 24, 0)),
        ],
    )
    def test_neighbouring_weights_agree(self, weights, cls, cas, monkeypatch):
        """The weight m reads the transition m from above and the weight
        m + 2 reads its own; the top weight of a finite set reads the one
        below it (H^2 - 2H + 4XY).  The functions agree across each step."""
        module = construct(weights, cls, cas)
        ms = [m for m in weights.weights_in((-16, 16)) if weights.has_transition(m)]
        assert len(ms) >= 4
        read = []
        real = HCModuleFamily.transition_polys
        monkeypatch.setattr(HCModuleFamily, "transition_polys", lambda self, n: read.append(n) or real(self, n))
        for m in ms:
            read.clear()
            assert casimir_acting_function(module, m) == casimir_acting_function(module, m + 2)
            assert read == [m, m + 2 if weights.has_transition(m + 2) else m]

    def test_missing_weight_rejected(self):
        module = construct(WeightSet("even"), ClassSpec("III"), casimir_triple(0, 0, 1))
        with pytest.raises(WeightMissing):
            casimir_acting_function(module, 3)

    def test_isolated_weight(self):
        weights = WeightSet("finite", 0)
        module = construct(weights, ClassSpec("III"), casimir_triple(0, 0, 0))
        f = casimir_acting_function(module, 0)
        assert f == RF_ZERO
