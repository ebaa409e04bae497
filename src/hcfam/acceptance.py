"""The acceptance gate: eleven exact checks covering the whole library.

Each criterion function returns (name, ok, details).  They are driven both
by the test suite and by the ``verify`` CLI subcommand.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, List, Tuple

from .scalars import (
    INFINITY,
    GaussianRational,
    QI_I,
    QI_ONE,
    RationalFunction,
    RF_Z,
    RF_ZERO,
)
from . import liefam, hcmod, classify, grassfam
from .liefam import (
    check_morphism,
    constant_family,
    contraction_family,
    deformation_family,
    fiber,
    fiber_invariants,
    glue_consistent,
    gl2_algebra,
    jacobi_check,
    scaled_bracket_family,
    sl2_algebra,
)
from .sl2fam import (
    build_sl2_contraction,
    casimir_acting_function,
    casimir_section,
    gl2_involution,
    sl2_involution,
    sl2_morphism_presets,
)
from .hcmod import (
    DegreeProfile,
    HCModuleFamily,
    TailRule,
    TransitionData,
    WeightSet,
    casimir_triple,
    fiber_irreducible,
    iso_check,
    reducible_locus,
    swap_transitions,
    validate,
)
from .classify import ClassSpec, admissible_casimir, construct, uniqueness_probe
from .grassfam import (
    GrassmannPencil,
    contraction_comparison,
    fiber_group_closure_check,
    limit_subspace,
    p_basis,
    pencil_basis,
    real_form_at,
    verify_subalgebra,
)

Result = Tuple[str, bool, str]


def criterion_1() -> Result:
    """Jacobi identity for every family constructor, with a failing witness
    for a corrupted table."""
    name = "jacobi suite (constant/scaled/contraction/deformation, sl2 and gl2)"
    cases = []
    for alg, theta in ((sl2_algebra(), sl2_involution()), (gl2_algebra(), gl2_involution())):
        cases.append(constant_family(alg))
        cases.append(scaled_bracket_family(alg, 1))
        cases.append(contraction_family(alg, theta))
        cases.append(deformation_family(alg, theta))
    for fam in cases:
        witness = jacobi_check(fam)
        if witness is not None:
            return (name, False, f"jacobi fails on {fam.labels}: {witness}")
    good = contraction_family(sl2_algebra(), sl2_involution())
    cells = [[dict(cell) for cell in row] for row in good.constants]
    cells[0][1][1] = cells[0][1].get(1, RF_ZERO) + RF_Z  # corrupt [k0, p0]
    import dataclasses

    bad = dataclasses.replace(good, constants=liefam._sparse_table(cells))
    if jacobi_check(bad) is None:
        return (name, False, "corrupted family passed the Jacobi check")
    return (name, True, "8 families pass; corrupted family yields a witness")


def criterion_2() -> Result:
    """Contraction pulled back along z -> z^2 agrees with the deformation
    normal form; the p-scaling map embeds the deformation into the constant
    family; the identity is not a morphism contraction -> deformation."""
    name = "contraction vs deformation (pullback along z -> z^2)"
    presets = sl2_morphism_presets()
    if check_morphism(*presets["pullback-deformation"]) is not None:
        return (name, False, "pullback along z^2 does not match the deformation")
    if check_morphism(*presets["p-scaling-embedding"]) is not None:
        return (name, False, "p-scaling does not embed the deformation family")
    ident, con, def_ = presets["identity-contraction-deformation"]
    if check_morphism(ident, con, def_) is None:
        return (name, False, "identity wrongly accepted contraction -> deformation")
    if not (glue_consistent(con) and glue_consistent(def_)):
        return (name, False, "two-chart gluing inconsistent")
    return (name, True, "pullback matches; identity correctly rejected; gluing holds")


def criterion_3() -> Result:
    """Canonical section degrees (-1, 0, -1) and the fiber dichotomy."""
    name = "canonical sections: degrees and fiber invariants"
    pair = build_sl2_contraction()
    degs = (pair.X.degree(), pair.H.degree(), pair.Y.degree())
    if degs != (-1, 0, -1):
        return (name, False, f"section degrees {degs} != (-1, 0, -1)")
    cas = casimir_section(pair)
    if (cas.ord_at_zero, cas.ord_at_infinity) != (-1, -1):
        return (name, False, "Casimir section orders are not (-1, -1)")
    generic = [
        GaussianRational(1),
        GaussianRational(-1),
        GaussianRational(2),
        GaussianRational(Fraction(1, 2)),
        GaussianRational(3),
    ]
    for p in generic:
        inv = fiber_invariants(fiber(pair.family, p))
        if (inv["dim_derived"], inv["dim_center"], inv["solvable"]) != (3, 0, False):
            return (name, False, f"generic fiber at {p} has invariants {inv}")
    for p in (GaussianRational(0), INFINITY):
        inv = fiber_invariants(fiber(pair.family, p))
        if (inv["dim_derived"], inv["dim_center"], inv["solvable"]) != (2, 0, True):
            return (name, False, f"degenerate fiber at {p} has invariants {inv}")
    return (name, True, "degrees (-1,0,-1); 5 generic and 2 degenerate fibers agree")


_WEIGHT_TYPES = [
    WeightSet("even"),
    WeightSet("odd"),
    WeightSet("lowest", 1),
    WeightSet("highest", -1),
    WeightSet("finite", 2),
]


def _classes_for(weights: WeightSet) -> List[ClassSpec]:
    a = weights.anchor_weight()
    return [ClassSpec("III"), ClassSpec("IV"), ClassSpec("I", a), ClassSpec("II", a)]


def _casimir_for(weights: WeightSet):
    forced = classify._forced_casimir(weights)
    if forced is not None:
        return forced
    return casimir_triple(1, Fraction(1, 2), -3)


def criterion_4() -> Result:
    """The Casimir acts by c1 z + c0 + c_{-1} z^{-1}, independently of the
    weight and of the operator ordering (read once per transition m, at m
    through H^2 + 2H + 4YX and at m + 2 through H^2 - 2H + 4XY)."""
    name = "Casimir acting function (4 classes x 5 weight types, |n| <= 20)"
    window = (-20, 20)
    checked = 0
    for weights in _WEIGHT_TYPES:
        cas = _casimir_for(weights)
        c1, c0, cm1 = cas
        expected = (
            RationalFunction.constant(c1) * RF_Z
            + RationalFunction.constant(c0)
            + RationalFunction.constant(cm1) / RF_Z
        )
        ns = weights.weights_in(window)
        for cls in _classes_for(weights):
            module = construct(weights, cls, cas)
            value = {m: casimir_acting_function(module, m)
                     for m in range(ns[0] - 2, ns[-1] + 1, 2) if weights.has_transition(m)}
            for n in ns:
                # Above n and below it; a zero RationalFunction is falsy.
                up, down = value.get(n), value.get(n - 2)
                f = down if up is None else up
                g = up if down is None else down
                if f is None:  # an isolated weight
                    f = g = casimir_acting_function(module, n)
                if f != g:
                    return (name, False, f"orderings disagree for {weights.kind}/{cls} at n={n}")
                if weights.kind == "finite" and weights.param == 0:
                    continue
                if f != expected:
                    return (name, False, f"acting function {f} != {expected} for {weights.kind}/{cls} n={n}")
                checked += 1
    return (name, True, f"{checked} weight lines checked across 20 modules")


def criterion_5() -> Result:
    """Excluded constant Casimir values m(m+2), by parity."""
    name = "excluded Casimir values by parity (m in -10..10)"
    for m in range(-10, 11):
        cas = casimir_triple(0, m * (m + 2), 0)
        for weights in (WeightSet("even"), WeightSet("odd")):
            verdict = admissible_casimir(weights, cas)
            should_reject = (m % 2) == weights.parity
            if bool(verdict) != (not should_reject):
                return (
                    name,
                    False,
                    f"m={m} on {weights.kind}: verdict {bool(verdict)}",
                )
    return (name, True, "42 parity cases agree with the exclusion set")


def criterion_6() -> Result:
    """Extreme weight sets force their Casimir constants."""
    name = "forced Casimir constants for extreme weight types"
    for l in list(range(1, 11)) + list(range(-10, 0)):
        weights = WeightSet("lowest", l) if l > 0 else WeightSet("highest", l)
        forced = casimir_triple(0, l * l - 2 * abs(l), 0)
        if not admissible_casimir(weights, forced):
            return (name, False, f"forced constant rejected for l={l}")
        for bad in (
            casimir_triple(0, l * l - 2 * abs(l) + 1, 0),
            casimir_triple(1, l * l - 2 * abs(l), 0),
            casimir_triple(0, l * l - 2 * abs(l), 1),
        ):
            if admissible_casimir(weights, bad):
                return (name, False, f"non-forced constant accepted for l={l}")
        cls = ClassSpec("I", l) if l > 0 else ClassSpec("II", l)
        module = construct(weights, cls, forced)
        if not validate(module).ok:
            return (name, False, f"canonical extreme module invalid for l={l}")
    for k in range(0, 11):
        weights = WeightSet("finite", k)
        forced = casimir_triple(0, k * (k + 2), 0)
        if not admissible_casimir(weights, forced):
            return (name, False, f"forced constant rejected for finite k={k}")
        if admissible_casimir(weights, casimir_triple(0, k * (k + 2) + 1, 0)):
            return (name, False, f"wrong constant accepted for finite k={k}")
    for k in range(1, 21):
        l = k + 2
        if l * l - 2 * l != k * (k + 2):
            return (name, False, f"remark identity fails at k={k}")
    return (name, True, "20 extreme + 11 finite forcings; remark identity to k=20")


def criterion_7() -> Result:
    """Randomized uniqueness probes: rescaled canonical modules stay in the
    same isomorphism class (50 isomorphism checks)."""
    name = "uniqueness probes (50 randomized isomorphism checks)"
    principal_triples = [
        casimir_triple(0, 0, 1),
        casimir_triple(1, 0, 0),
        casimir_triple(1, 2, 3),
        casimir_triple(0, 1, 0),
        casimir_triple(2, -1, 1),
    ]
    configs = [
        (WeightSet("even"), ClassSpec("III")),
        (WeightSet("odd"), ClassSpec("IV")),
        (WeightSet("even"), ClassSpec("I", 0)),
    ]
    window = (-12, 12)
    total = 0
    for weights, cls in configs:
        for i, cas in enumerate(principal_triples):
            probe = uniqueness_probe(weights, cls, cas, trials=3, seed=7 + i, window=window)
            total += probe.trials
            if not probe:
                return (name, False, f"{weights.kind}/{cls}/{cas}: {probe.detail}")
    weights, cls = WeightSet("lowest", 1), ClassSpec("I", 1)
    probe = uniqueness_probe(weights, cls, classify._forced_casimir(weights), trials=5, seed=3, window=window)
    total += probe.trials
    if not probe:
        return (name, False, f"lowest(1)/I(1): {probe.detail}")
    if total != 50:
        return (name, False, f"expected 50 isomorphism checks, ran {total}")
    return (name, True, "50/50 rescaled variants isomorphic to the canonical module")


def _equal_degree_module() -> HCModuleFamily:
    return HCModuleFamily(
        WeightSet("even"),
        DegreeProfile(0, 0, 0, 0),
        TransitionData(0, TailRule("A"), TailRule("A")),
        casimir_triple(0, 0, 1),
    )


def criterion_8() -> Result:
    """Equal-degree profiles escape the classification: swapping A_n with
    B_n changes the isomorphism class unless the pair is proportional."""
    name = "equal-degree swap (non-)isomorphism"
    module = _equal_degree_module()
    if not validate(module).ok:
        return (name, False, "equal-degree module fails validation")
    swapped = swap_transitions(module, [2, 4, 6])
    if module.weights != swapped.weights or module.casimir != swapped.casimir:
        return (name, False, "swap changed weights or Casimir")
    if not hcmod.profiles_equal(module.degrees, swapped.degrees, module.weights):
        return (name, False, "swap changed the degree profile")
    if iso_check(module, swapped):
        return (name, False, "non-proportional swap judged isomorphic")
    # At n = 0 the pair (A_0, B_0) = (1, 1/4) is proportional, so the swap
    # is absorbed by rescaling the weight sections.
    swapped_prop = swap_transitions(module, [0])
    if not iso_check(module, swapped_prop):
        return (name, False, "proportional swap judged non-isomorphic")
    return (name, True, "3-index swap non-isomorphic; proportional swap isomorphic")


def _oracle_invariant_subspace_exists(scalars: dict, weights: List[int]) -> bool:
    """Brute force over weight-supported subspaces of a finite fiber."""
    from itertools import combinations

    wset = set(weights)
    for r in range(1, len(weights)):
        for subset in combinations(weights, r):
            s = set(subset)
            ok = True
            for n in subset:
                if n in scalars and not scalars[n][0].is_zero() and (n + 2) not in s:
                    ok = False
                    break
                if (n - 2) in scalars and not scalars[n - 2][1].is_zero() and (n - 2) not in s:
                    ok = False
                    break
            if ok:
                return True
    return False


def criterion_9() -> Result:
    """Fiber irreducibility against a brute-force oracle, and the exact
    reducible locus of a strictly ascending family."""
    name = "fiber oracle and reducible locus"
    weights = WeightSet("finite", 2)
    module = construct(weights, ClassSpec("III"), classify._forced_casimir(weights))
    samples = [
        GaussianRational(0),
        INFINITY,
        GaussianRational(1),
        GaussianRational(-1),
        GaussianRational(2),
        GaussianRational(Fraction(1, 2)),
        GaussianRational(3),
        QI_I,
        GaussianRational(1, 1),
        GaussianRational(-2),
    ]
    for p in samples:
        verdict = fiber_irreducible(module, p)
        oracle = not _oracle_invariant_subspace_exists(verdict.scalars, [-2, 0, 2])
        if verdict.irreducible != oracle:
            detail = f"fiber verdict at {p}: library {verdict.irreducible}, oracle {oracle}"
            return (name, False, detail)
    ascending = construct(WeightSet("even"), ClassSpec("III"), casimir_triple(0, 0, 1))
    locus = reducible_locus(ascending, (-10, 10))
    expected = {
        GaussianRational(Fraction(1, n * (n + 2)))
        for n in range(-10, 11, 2)
        if n not in (0, -2)
    }
    if set(locus.points) != expected:
        return (name, False, f"locus {sorted(map(str, locus.points))} != expected")
    if locus.unsplit:
        return (name, False, "unexpected unsplit quadratic in the locus scan")
    return (name, True, "10 oracle fibers agree; ascending locus matches exactly")


def criterion_10() -> Result:
    """Grassmannian pencil: limit displays, subalgebra checks, degenerate
    group closure, and the identification with the contraction family."""
    name = "subalgebra pencil limits and contraction comparison"
    pen11 = GrassmannPencil(1, 1, det_one=True)
    p0 = limit_subspace(pen11, GaussianRational(0))
    pinf = limit_subspace(pen11, INFINITY)
    # (E01 in the second matrix, E10 in the first) at 0, the other way at infinity
    if p0 != [{(1, 0, 1): QI_ONE}, {(0, 1, 0): QI_ONE}]:
        return (name, False, "p_0 display mismatch for p=q=1")
    if pinf != [{(0, 0, 1): QI_ONE}, {(1, 1, 0): QI_ONE}]:
        return (name, False, "p_inf display mismatch for p=q=1")
    pen21 = GrassmannPencil(2, 1, det_one=True)
    for pen in (pen11, pen21):
        if verify_subalgebra(pencil_basis(pen)) is not None:
            return (name, False, f"symbolic pencil not a subalgebra, p={pen.p} q={pen.q}")
        for boundary in (GaussianRational(0), INFINITY):
            limited = limit_subspace(pen, boundary)
            for i, x in enumerate(limited):
                for j, y in enumerate(limited):
                    if grassfam.pair_bracket(x, y):
                        return (name, False, f"[p_lim, p_lim] != 0 at ({i},{j})")
            if fiber_group_closure_check(pen, p_pairs=limited) is not None:
                return (name, False, f"group closure fails at {boundary}")
    bad = fiber_group_closure_check(pen11, p_pairs=p_basis(pen11, 1))
    if bad is None:
        return (name, False, "closure sanity check accepted a generic fiber")
    try:
        contraction_comparison(pen11)
    except grassfam.NoIsomorphismFound as e:
        return (name, False, f"contraction comparison failed: {e}")
    return (name, True, "limits, closure, and contraction identification all pass")


def criterion_11() -> Result:
    """Real forms by Killing signature: su(1,1)/su(2)/motion algebra for the
    rank-one pencil; su(2,1)/su(3) for (p,q) = (2,1)."""
    name = "real forms and Killing signatures"
    pen11 = GrassmannPencil(1, 1, det_one=True)
    r1 = real_form_at(pen11, 1)
    if r1.signature != (2, 0, 1):
        return (name, False, f"x=1 signature {r1.signature} != (2,0,1)")
    rm1 = real_form_at(pen11, -1)
    if rm1.signature != (0, 0, 3):
        return (name, False, f"x=-1 signature {rm1.signature} != (0,0,3)")
    r0 = real_form_at(pen11, 0)
    if r0.signature[1] == 0 or not r0.invariants["solvable"] or r0.dimension != 3:
        return (name, False, f"boundary form not degenerate solvable: {r0.signature}")
    pen21 = GrassmannPencil(2, 1, det_one=True)
    s1 = real_form_at(pen21, 1).signature
    sm1 = real_form_at(pen21, -1).signature
    if s1 != (4, 0, 4):
        return (name, False, f"(2,1) x=1 signature {s1} != (4,0,4)")
    if sm1 != (0, 0, 8):
        return (name, False, f"(2,1) x=-1 signature {sm1} != (0,0,8)")
    return (name, True, "su(1,1)/su(2)/motion and su(2,1)/su(3) all identified")


ALL_CRITERIA: List[Callable[[], Result]] = [
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
]

QUICK_CRITERIA = [criterion_1, criterion_2, criterion_3, criterion_4, criterion_5, criterion_6]


def run_suite(profile: str = "full") -> List[Result]:
    criteria = QUICK_CRITERIA if profile == "quick" else ALL_CRITERIA
    return [c() for c in criteria]
