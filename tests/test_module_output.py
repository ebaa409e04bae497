"""Byte corpus of ``hcfam module`` requests: the exit code and stdout of each
request must not change.

Run this file as a script to print the corpus of the ``hcfam`` on
``sys.path``, in the form of ``module_output_corpus.json``."""

import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import os
import tempfile
from fractions import Fraction

import pytest

from hcfam.classify import ClassSpec, IncompatibleClass, construct
from hcfam import cli
from hcfam.cli import run
from hcfam.hcmod import (
    DegreeProfile,
    HCModuleFamily,
    TailRule,
    TransitionData,
    WeightSet,
    casimir_triple,
)
from hcfam.scalars import GaussianRational, UnsplitQuadratic, poly_roots

QI = GaussianRational
WINDOWS = ("-6..6", "-24..24", "-96..96")
SMALL = (-6, 6)


def _rescaled(module, mu, lam):
    """A twin: tail units times lam, every transition of SMALL overridden by
    its pair rescaled by mu."""
    t = module.transitions
    t = dataclasses.replace(t, rule_up=TailRule(t.rule_up.unit_on, t.rule_up.value * lam),
                            rule_down=TailRule(t.rule_down.unit_on, t.rule_down.value * lam))
    for n in module.weights.transitions_in(SMALL):
        if t.override_for(n) is None:
            A, B = module.transition_polys(n)
            t = t.with_overrides({n: (A.scale(mu), B.scale(mu.inverse()))})
    return dataclasses.replace(module, transitions=t)


def _corrupted(module):
    n = module.weights.transitions_in(SMALL)[1]
    A, B = module.transition_polys(n)
    return dataclasses.replace(module, transitions=module.transitions.with_overrides({n: (A.scale(2), B)}))


def _documents():
    """(name, module) for classes I-IV on each weight set, corrupted and
    equal-degree documents, and anchors and pivots off 0."""
    even, odd = WeightSet("even"), WeightSet("odd")
    specs = [
        ("even-I2", even, ClassSpec("I", 2), (0, Fraction(1, 3), 1)),
        ("even-II0", even, ClassSpec("II", 0), (0, Fraction(1, 3), 1)),
        ("even-III", even, ClassSpec("III"), (1, 0, -1)),
        ("even-IV", even, ClassSpec("IV"), (0, Fraction(5, 2), 3)),
        ("odd-I1", odd, ClassSpec("I", 1), (1, 2, 3)),
        ("odd-II-3", odd, ClassSpec("II", -3), (0, Fraction(1, 2), 0)),
        ("odd-III", odd, ClassSpec("III"), (0, QI(1, 1), 2)),
        ("odd-IV", odd, ClassSpec("IV"), (Fraction(1, 2), 0, 2)),
        ("even-I-4", even, ClassSpec("I", -4), (0, 7, 2)),
        ("odd-II5", odd, ClassSpec("II", 5), (0, -3, QI(0, 1))),
    ]
    for kind, param in (("lowest", 1), ("highest", -3), ("finite", 3)):
        w = WeightSet(kind, param)
        l = abs(param)
        casimir = (0, l * l - 2 * l, 0) if kind != "finite" else (0, l * l + 2 * l, 0)
        for cls in (ClassSpec("I", param), ClassSpec("II", param), ClassSpec("III"), ClassSpec("IV")):
            specs.append((f"{kind}{param}-{cls}", w, cls, casimir))
    out = []
    for name, w, cls, casimir in specs:
        try:
            out.append((name, construct(w, cls, casimir_triple(*casimir))))
        except IncompatibleClass:
            continue
    docs = dict(out)
    out.append(("corrupted-even-III", _corrupted(docs["even-III"])))
    out.append(("corrupted-odd-I1", _corrupted(docs["odd-I1"])))
    out.append(("equal-even", HCModuleFamily(even, DegreeProfile(0, 0, 0, 0), TransitionData(0, TailRule("A"), TailRule("A")),
                                             casimir_triple(0, 0, 1))))
    out.append(("equal-odd", HCModuleFamily(odd, DegreeProfile(3, 1, 0, 0),
                                            TransitionData(-3, TailRule("B", QI(2)), TailRule("A", QI(0, 1))),
                                            casimir_triple(0, 15, Fraction(1, 2)))))
    out.append(("off0-odd", HCModuleFamily(odd, DegreeProfile(3, 2, -1, -1),
                                           TransitionData(3, TailRule("A", QI(3)), TailRule("B", QI(1, 2))),
                                           casimir_triple(0, Fraction(7, 3), -2))))
    over = HCModuleFamily(even, DegreeProfile(0, 0, 0, 0, ((8, 1),)), TransitionData(0, TailRule("A"), TailRule("A")),
                          casimir_triple(0, 48, 1))  # valid on -6..6, with q_6 constant
    out.append(("degree-beyond", over))
    out.append(("off0-even", HCModuleFamily(even, DegreeProfile(-4, 0, 1, -1),
                                            TransitionData(-4, TailRule("B"), TailRule("B", QI(-1))),
                                            casimir_triple(QI(0, 1), 2, 5))))
    return out


def _locus_root(module):
    """A nonzero root of some q_n in SMALL, or None."""
    for n in module.weights.transitions_in(SMALL):
        try:
            roots = [r for r in poly_roots(module.q_poly(n)) if not r.is_zero()]
        except UnsplitQuadratic:
            continue
        if roots:
            return sorted(roots, key=str)[0]
    return None


def _requests(tmp):
    """(id, argv) of every request of the corpus; documents go to tmp."""
    out = []
    for name, module in _documents():
        paths = {}
        for suffix, doc in (("", module), ("-twin", _rescaled(module, QI(2, 1), QI(-3)))):
            paths[suffix] = os.path.join(tmp, f"{name}{suffix}.json")
            with open(paths[suffix], "w") as fh:
                json.dump(doc.to_json(), fh)
        root = _locus_root(module)
        points = ["0", "inf", "1/3", "2+1i"] + ([str(root)] if root is not None else [])
        swap = ",".join(str(n) for n in module.weights.transitions_in(SMALL)[:2])
        requests = [("validate", []), ("locus", []), ("iso", ["--other", paths["-twin"]]),
                    ("twist", ["--degree", "2"]), ("swap", ["--indices", swap or "0"])]
        requests += [("fiber", ["--at", p]) for p in points]
        for window in WINDOWS:
            for action, extra in requests:
                at = extra[1:] if action == "fiber" else []
                argv = ["module", action, "--module", paths[""], "--window", window, *extra]
                out.append((" ".join([name, action, *at, window]), argv))
    return out


def _outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


@functools.lru_cache(maxsize=None)
def _cold_and_warm():
    """The outcomes of every request with the document memo cleared before
    each, then of every request again in reverse order, the memo warm."""
    with tempfile.TemporaryDirectory() as tmp:
        requests = _requests(tmp)
        cold = {}
        for rid, argv in requests:
            cli._parse_module.cache_clear()
            cold[rid] = _outcome(argv)
        warm = {rid: _outcome(argv) for rid, argv in reversed(requests)}
    return cold, warm


def _outcomes():
    return _cold_and_warm()[0]


#: request id -> [exit code, sha256 of stdout], recorded before module
#: transitions were read as runs.
with open(os.path.join(os.path.dirname(__file__), "module_output_corpus.json")) as _fh:
    MODULE_OUTPUT_CORPUS = {rid: tuple(v) for rid, v in json.load(_fh).items()}


#: Requests whose output changed on purpose since the recording: the tail
#: witness lists the transitions beyond the window that validate checks (a
#: degree override at 8) and those where q_n drops degree (n = -8) with
#: their own n.
LEFT_OUT = {"degree-beyond fiber inf -6..6"}


def test_corpus_covers_every_request():
    assert sorted(_outcomes()) == sorted([*MODULE_OUTPUT_CORPUS, *LEFT_OUT])


@pytest.mark.parametrize("rid", sorted(MODULE_OUTPUT_CORPUS))
def test_stdout_and_exit_code_unchanged(rid):
    assert _outcomes()[rid] == MODULE_OUTPUT_CORPUS[rid]


def test_documents_parsed_once_answer_alike():
    """Requests answered from the document memo and the validity records
    print what cold requests print."""
    warm = _cold_and_warm()[1]
    assert {rid: warm[rid] for rid in MODULE_OUTPUT_CORPUS} == MODULE_OUTPUT_CORPUS


if __name__ == "__main__":  # print the corpus of the hcfam on sys.path as JSON
    rows = [f"{json.dumps(rid)}: {json.dumps(list(v))}" for rid, v in sorted(_outcomes().items())]
    print("{\n" + ",\n".join(rows) + "\n}")
