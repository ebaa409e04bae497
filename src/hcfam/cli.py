"""Command-line driver: construction, validation, classification, fibers,
and Grassmannian computations with canonical JSON output.

Exit codes: 0 success / verdict pass, 1 verdict fail, 2 malformed request
(also one whose result has more digits than Python writes as text), 3 domain
error (inadmissible input reaching a library precondition).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .scalars import INFINITY, DomainError, GaussianRational, LaurentPoly, TooManyDigits
from .hcmod import (
    HCModuleFamily,
    WeightSet,
    fiber_irreducible,
    iso_check,
    picard_twist,
    reducible_locus,
    swap_transitions,
    validate,
)

# The classification, Lie-algebra, Grassmannian and acceptance layers are
# imported by the handlers that use them, so that a ``module`` request loads
# and compiles only ``scalars`` and ``hcmod``.


class RequestError(Exception):
    """Malformed request (schema level)."""


#: The most entries one request may list.  ``module fiber``, ``locus`` and
#: ``iso`` may list one entry per transition of the window (``classify probe``
#: builds one per trial), so they refuse a window with more transitions, and
#: ``module validate`` refuses a report with more violations, ``module fiber``
#: a stretch beyond the window with more vanishing transitions.  The other
#: requests take any window: their answers do not depend on it.
MAX_LISTED = 10**6


def _check_listable(weights: WeightSet, window) -> None:
    span = weights.transition_span(window)
    if span and (span[1] - span[0]) // 2 >= MAX_LISTED:
        raise RequestError(f"the window holds more than {MAX_LISTED} transitions, the most a listing request takes")


def emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


# ---------------------------------------------------------------------------
# Flag parsing helpers
# ---------------------------------------------------------------------------


def parse_point(text: str):
    if text in ("inf", "infinity", "oo"):
        return INFINITY
    try:
        return GaussianRational.parse(text)
    except Exception as e:
        raise RequestError(f"bad point {text!r}: {e}")


def parse_window(text: str):
    try:
        lo, hi = (int(x) for x in text.split(".."))
    except ValueError:
        raise RequestError(f"bad window {text!r}, expected LO..HI")
    if lo > hi:
        raise RequestError(f"empty window {text!r}, LO must not exceed HI")
    return (lo, hi)


def parse_weights(text: str) -> WeightSet:
    kind, _, param = text.partition(":")
    try:
        return WeightSet(kind, int(param) if param else 0)
    except ValueError as e:
        raise RequestError(str(e))


def parse_class(text: str):
    from .classify import ClassSpec

    kind, _, k = text.partition(":")
    try:
        return ClassSpec(kind, int(k) if k else None)
    except ValueError as e:
        raise RequestError(str(e))


def parse_casimir(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise RequestError("casimir must be three comma-separated scalars")
    try:
        return tuple(GaussianRational.parse(p) for p in parts)
    except Exception as e:
        raise RequestError(f"bad casimir: {e}")


def load_module(path: str) -> HCModuleFamily:
    """The module in the file at path, or on stdin for '-'.  The file is read
    on every call; its text is parsed once (see :func:`_parse_module`)."""
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path) as fh:
                text = fh.read()
        return _parse_module(text)
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as e:
        raise RequestError(f"cannot load module from {path!r}: {e}")


#: The most document texts :func:`_parse_module` keeps.
_DOCUMENTS_KEPT = 8


@functools.lru_cache(maxsize=_DOCUMENTS_KEPT)
def _parse_module(text: str) -> HCModuleFamily:
    """The module a document text describes.  Keyed on the exact text, so a
    rewritten file is parsed anew; the same text gives the same object, and
    with it the validity it has recorded.  A malformed text raises and is
    not kept."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("a module document is a JSON object")
    module = HCModuleFamily.from_json(data)
    d, t = module.degrees, module.transitions
    integers = [module.weights.param, d.anchor, d.anchor_deg, d.slope_up, d.slope_down, t.pivot]
    integers += [x for pair in d.overrides for x in pair] + [n for n, _, _ in t.overrides]
    if any(type(x) is not int for x in integers):
        raise ValueError("weights, degrees and indices must be integers")
    if type(data["casimir"]) is not list or len(module.casimir) != 3:  # a string or an object iterates too
        raise ValueError("casimir must be a list of three scalars")
    return module


def build_family(algebra: str, kind: str, power: int):
    from .liefam import (
        constant_family, contraction_family, deformation_family, gl2_algebra, scaled_bracket_family, sl2_algebra,
    )
    from .sl2fam import gl2_involution, sl2_involution

    try:
        alg = {"sl2": sl2_algebra, "gl2": gl2_algebra}[algebra]()
    except KeyError:
        raise RequestError(f"unknown algebra {algebra!r}")
    if kind == "constant":
        return constant_family(alg)
    theta = sl2_involution() if algebra == "sl2" else gl2_involution()
    if kind == "scaled":
        if power < 1:
            raise RequestError("the scaled family needs --power >= 1")
        return scaled_bracket_family(alg, power)
    if kind == "contraction":
        return contraction_family(alg, theta)
    if kind == "deformation":
        return deformation_family(alg, theta)
    raise RequestError(f"unknown family kind {kind!r}")


def pair_json(pair, n: int) -> dict:
    """The two n x n matrices of a sparse pair as rows of strings, "0" for
    an absent entry; the only place a pair is written out densely."""
    return {
        name: [[str(pair[s, r, c]) if (s, r, c) in pair else "0" for c in range(n)] for r in range(n)]
        for s, name in enumerate(("first", "second"))
    }


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def cmd_family(args) -> int:
    from .liefam import base_change, fiber, fiber_invariants, jacobi_check

    fam = build_family(args.algebra, args.kind, args.power)
    if args.action == "build":
        emit(fam.to_json())
        return 0
    if args.action == "jacobi":
        witness = jacobi_check(fam)
        if witness is None:
            emit({"ok": True})
            return 0
        i, j, k, residual = witness
        if k is not None:
            residual = [str(x) for x in residual]
        emit({"ok": False, "witness": {"i": i, "j": j, "k": k, "residual": residual}})
        return 1
    if args.action == "fiber":
        p = parse_point(args.at)
        alg = fiber(fam, p)
        emit({"at": str(p), "invariants": fiber_invariants(alg)})
        return 0
    if args.action == "basechange":
        if args.exponent < 1:
            raise RequestError("base-change exponent must be >= 1")
        emit(base_change(fam, LaurentPoly.monomial(args.exponent)).to_json())
        return 0
    if args.action == "morphcheck":
        return cmd_morphcheck(args)
    raise RequestError(f"unknown family action {args.action!r}")


def cmd_morphcheck(args) -> int:
    from .liefam import check_morphism
    from .sl2fam import sl2_morphism_presets

    presets = sl2_morphism_presets()
    if args.preset not in presets:
        raise RequestError(f"unknown preset, choose from {sorted(presets)}")
    phi, src, tgt = presets[args.preset]
    witness = check_morphism(phi, src, tgt)
    if witness is None:
        emit({"morphism": True, "preset": args.preset})
        return 0
    i, j, residual = witness
    emit(
        {
            "morphism": False,
            "preset": args.preset,
            "witness": {"i": i, "j": j, "residual": [str(x) for x in residual]},
        }
    )
    return 1


def cmd_module(args) -> int:
    window = parse_window(args.window)
    module = load_module(args.module)
    if args.action == "validate":
        report = validate(module, window)
        if report.count() > MAX_LISTED:
            raise RequestError(f"the report holds more than {MAX_LISTED} violations, the most a request lists")
        emit(report.to_json())
        return 0 if report.ok else 1
    if args.action in ("fiber", "locus", "iso"):
        _check_listable(module.weights, window)
    if args.action == "fiber":
        p = parse_point(args.at)
        verdict = fiber_irreducible(module, p, window)
        if verdict.count() > MAX_LISTED:
            raise RequestError(f"more than {MAX_LISTED} transitions vanish beyond the window, the most listed")
        vanishing = [{"n": n, "poly": poly} for n, poly in verdict.vanishing]
        tail = [{"side": side, "n": n, "poly": poly} for side, n, poly in verdict.tail]
        emit({"at": str(p), "irreducible": verdict.irreducible, "vanishing": vanishing, "tail_vanishing": tail})
        return 0 if verdict else 1
    if args.action == "locus":
        locus = reducible_locus(module, window)
        emit(
            {
                "points": sorted(str(p) for p in locus.points),
                "boundary": sorted(str(p) for p in locus.boundary),
                "unsplit": [
                    {"n": n, "poly": which, "quadratic": str(poly)}
                    for n, which, poly in locus.unsplit
                ],
            }
        )
        return 0
    if args.action == "iso":
        if args.other is None:
            raise RequestError("module iso needs --other, the module to compare with")
        other = load_module(args.other)
        result = iso_check(module, other, window)
        emit(
            {
                "isomorphic": result.isomorphic,
                "obstruction": result.obstruction,
                "scalars": {str(n): str(mu) for n, mu in result.scalars.items()},
            }
        )
        return 0 if result.isomorphic else 1
    if args.action == "twist":
        emit(picard_twist(module, args.degree).to_json())
        return 0
    if args.action == "swap":
        try:
            indices = [int(x) for x in args.indices.split(",")]
        except ValueError:
            raise RequestError("indices must be comma-separated integers")
        emit(swap_transitions(module, indices).to_json())
        return 0
    raise RequestError(f"unknown module action {args.action!r}")


def cmd_classify(args) -> int:
    from .classify import admissible_casimir, classification_report, construct, uniqueness_probe

    weights = parse_weights(args.weights)
    if args.action == "admissible":
        verdict = admissible_casimir(weights, parse_casimir(args.casimir))
        emit({"admissible": verdict.ok, "reason": verdict.reason})
        return 0 if verdict.ok else 1
    cls = parse_class(getattr(args, "cls"))
    if args.action == "construct":
        parse_window(args.window)  # checked as in every request; the module needs no window
        module = construct(weights, cls, parse_casimir(args.casimir))
        emit(module.to_json())
        return 0
    if args.action == "report":
        emit(classification_report(weights, cls))
        return 0
    if args.action == "probe":
        if args.trials < 1:
            raise RequestError("the probe needs --trials >= 1")
        window = parse_window(args.window)
        _check_listable(weights, window)
        probe = uniqueness_probe(
            weights, cls, parse_casimir(args.casimir), trials=args.trials, seed=args.seed, window=window
        )
        emit(
            {
                "status": probe.status,
                "trials": probe.trials,
                "seed": args.seed,
                "detail": probe.detail,
            }
        )
        return 0 if probe.status in ("pass", "inapplicable") else 1
    raise RequestError(f"unknown classify action {args.action!r}")


def _parse_pq(text: str):
    try:
        p, q = (int(x) for x in text.split(","))
    except ValueError:
        raise RequestError("--pq expects two comma-separated integers, e.g. 1,1")
    if p < 1 or q < 1:
        raise RequestError("--pq block sizes must be at least 1")
    return p, q


def _pencil_parameter(text: str):
    """The finite parameter --at, or None (symbolic) when it is empty."""
    t = parse_point(text) if text else None
    if t is INFINITY:
        raise RequestError("use the limit action for boundary parameters")
    return t


def cmd_grassmann(args) -> int:
    from .grassfam import (
        GrassmannPencil, contraction_comparison, fiber_group_closure_check, limit_subspace, pencil_basis,
        real_form_at, verify_subalgebra,
    )

    p, q = _parse_pq(args.pq)
    pencil = GrassmannPencil(p, q, det_one=args.det_one)
    if args.action == "pencil":
        emit({"basis": [pair_json(v, pencil.n) for v in pencil_basis(pencil, _pencil_parameter(args.at))]})
        return 0
    if args.action == "limit":
        boundary = parse_point(args.boundary)
        emit({"basis": [pair_json(v, pencil.n) for v in limit_subspace(pencil, boundary)]})
        return 0
    if args.action == "subalg":
        witness = verify_subalgebra(pencil_basis(pencil, _pencil_parameter(args.at)))
        if witness is None:
            emit({"subalgebra": True})
            return 0
        emit({"subalgebra": False, "witness": list(witness)})
        return 1
    if args.action == "closure":
        failure = fiber_group_closure_check(pencil, parse_point(args.boundary))
        emit({"closed": failure is None, "detail": failure or ""})
        return 0 if failure is None else 1
    if args.action == "compare":
        phi = contraction_comparison(pencil)
        emit(
            {
                "isomorphic": True,
                "map": [[str(col[i]) if i in col else "0" for col in phi.images] for i in range(len(phi.images))],
            }
        )
        return 0
    if args.action == "realform":
        x = parse_point(args.at)
        if x is not INFINITY and not x.is_real():
            raise RequestError(f"real forms live over real points, not {args.at!r}")
        report = real_form_at(pencil, x)
        emit(
            {
                "at": str(x),
                "dimension": report.dimension,
                "signature": list(report.signature),
                "invariants": report.invariants,
                "basis": [pair_json(v, pencil.n) for v in report.basis],
            }
        )
        return 0
    raise RequestError(f"unknown grassmann action {args.action!r}")


def cmd_verify(args) -> int:
    from .acceptance import run_suite

    results = run_suite(args.profile)
    for name, ok, details in results:
        sys.stdout.write(f"{'PASS' if ok else 'FAIL'}  {name}: {details}\n")
    failed = [name for name, ok, _ in results if not ok]
    emit({"profile": args.profile, "passed": len(results) - len(failed), "failed": failed})
    return 0 if not failed else 1


# ---------------------------------------------------------------------------
# Argument parser
# ---------------------------------------------------------------------------


class HelpShown(Exception):
    """A -h/--help request, answered on stderr."""


class _Parser(argparse.ArgumentParser):
    """Turns a usage error into a malformed request and -h/--help into a
    reply; usage and help text go to stderr."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise RequestError(f"{self.prog}: {message}")

    def print_help(self, file=None):
        super().print_help(file or sys.stderr)

    def exit(self, status=0, message=None):  # reached only after the help text
        raise HelpShown(self.prog)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hcfam",
        description="Exact computations with algebraic families of Lie algebras "
        "and Harish-Chandra modules over the projective line.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    fam = sub.add_parser("family", help="Lie algebra families over the line")
    fam.add_argument("action", choices=["build", "jacobi", "fiber", "basechange", "morphcheck"])
    fam.add_argument("--algebra", default="sl2", choices=["sl2", "gl2"])
    fam.add_argument("--kind", default="contraction", choices=["constant", "scaled", "contraction", "deformation"])
    fam.add_argument("--power", type=int, default=1, help="bracket scaling exponent")
    fam.add_argument("--at", default="0", help="evaluation point (scalar or 'inf')")
    fam.add_argument("--exponent", type=int, default=2, help="base-change exponent")
    fam.add_argument("--preset", default="pullback-deformation", help="morphism preset")
    fam.set_defaults(handler=cmd_family)

    mod = sub.add_parser("module", help="Harish-Chandra module families")
    mod.add_argument("action", choices=["validate", "fiber", "locus", "iso", "twist", "swap"])
    mod.add_argument("--module", required=True, help="module JSON file, or '-' for stdin")
    mod.add_argument("--other", help="second module JSON file (for iso)")
    mod.add_argument("--window", default="-24..24", help="transition window LO..HI")
    mod.add_argument("--at", default="0", help="fiber point (scalar or 'inf')")
    mod.add_argument("--degree", type=int, default=1, help="twist degree")
    mod.add_argument("--indices", default="", help="comma-separated swap indices")
    mod.set_defaults(handler=cmd_module)

    cls = sub.add_parser("classify", help="classification of module families")
    cls.add_argument("action", choices=["admissible", "construct", "report", "probe"])
    cls.add_argument("--weights", required=True, help="even | odd | lowest:L | highest:L | finite:K")
    cls.add_argument("--class", dest="cls", default="III", help="I:k | II:k | III | IV")
    cls.add_argument("--casimir", default="0,0,1", help="c1,c0,c-1 as exact scalars")
    cls.add_argument("--window", default="-24..24")
    cls.add_argument("--trials", type=int, default=10)
    cls.add_argument("--seed", type=int, default=0)
    cls.set_defaults(handler=cmd_classify)

    gra = sub.add_parser("grassmann", help="pencils of subalgebras of g x g")
    gra.add_argument("action", choices=["pencil", "limit", "subalg", "closure", "compare", "realform"])
    gra.add_argument("--pq", default="1,1", help="block sizes p,q")
    gra.add_argument("--det-one", action="store_true", dest="det_one")
    gra.add_argument("--boundary", default="0", help="0 or inf")
    gra.add_argument("--at", default="", help="parameter value (empty for symbolic)")
    gra.set_defaults(handler=cmd_grassmann)

    ver = sub.add_parser("verify", help="run the acceptance suite")
    ver.add_argument("--profile", default="full", choices=["quick", "full"])
    ver.set_defaults(handler=cmd_verify)
    return parser


_DASH_VALUE_FLAGS = {"--window", "--at", "--casimir", "--boundary", "--indices", "--pq"}


def _merge_dash_values(argv):
    """Join flag/value pairs whose value starts with '-', which argparse
    would otherwise mistake for an option."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _DASH_VALUE_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:  # built on the first request, then reused
    return build_parser()


def run(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parser().parse_args(_merge_dash_values(list(argv)))
        return args.handler(args)
    except HelpShown as e:
        emit({"help": str(e)})
        return 0
    except (RequestError, TooManyDigits) as e:
        emit({"error": "request", "message": str(e)})
        return 2
    except DomainError as e:
        emit({"error": type(e).__name__, "message": str(e)})
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
