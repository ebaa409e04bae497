"""Acceptance gate: one test per top-level criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -v -s`` or in
the captured output on failure) and asserts the criterion's verdict.
"""

import sys

import pytest

from hcfam import acceptance
from hcfam.acceptance import ALL_CRITERIA
from hcfam.hcmod import HCModuleFamily


@pytest.mark.parametrize(
    "criterion", ALL_CRITERIA, ids=[f"criterion_{i}" for i in range(1, len(ALL_CRITERIA) + 1)]
)
def test_criterion(criterion):
    name, ok, details = criterion()
    line = f"{'PASS' if ok else 'FAIL'}  {name}: {details}"
    print(line, file=sys.stderr)
    assert ok, line


class TestCriterion4:
    """Criterion 4 reads each transition once and still compares the two
    orderings at every weight that has both."""

    def test_detects_disagreeing_orderings(self, monkeypatch):
        real = HCModuleFamily.transition_polys

        def doubled_b4(self, n):
            A, B = real(self, n)
            return (A, B.scale(2)) if n == 4 else (A, B)

        monkeypatch.setattr(HCModuleFamily, "transition_polys", doubled_b4)
        name, ok, details = acceptance.criterion_4()
        assert not ok and details == "orderings disagree for even/III at n=4"

    def test_derives_each_transition_once(self, monkeypatch):
        real, calls = HCModuleFamily.transition_polys, []
        monkeypatch.setattr(HCModuleFamily, "transition_polys", lambda self, n: calls.append(n) or real(self, n))
        assert acceptance.criterion_4()[1]
        assert len(calls) == 260  # the 20 modules' transitions on the window, each read once
