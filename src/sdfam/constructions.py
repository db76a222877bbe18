"""Builders that check their own hypotheses and certify what they promise.

Every constructor verifies its preconditions exhaustively (raising
HypothesisError with a witness when they fail), builds the labeled orbit
family, runs the generic verifier, and then asserts the parameters the
construction is supposed to deliver.  A failed assertion after the
hypotheses passed raises TheoremViolationError and is treated as a bug.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .endos import (
    Endomorphism,
    automorphism_generators,
    closure,
    dedup_endos,
    ensure_automorphism_group,
    field_mult_endo,
    fpf_failure,
    identity_endo,
    one_minus,
    orbit,
    order6_segment_set,
    require_fpf,
    zero_endo,
    _ensure_same_group,
)
from .errors import (
    DesignCheckError,
    HypothesisError,
    InvalidParameterError,
    SdfCheckError,
    TheoremViolationError,
)
from .families import (
    Design,
    LabeledFamily,
    SdfCertificate,
    development,
    equivalence_classes,
    is_doubly_transitive,
    non_automorphism,
    stabilizer,
    verify_bibd,
    verify_sdf,
)
from .fields import Element, FiniteField, additive_group
from .groups import FiniteGroup, is_subgroup


@dataclass(frozen=True)
class FamilyBuild:
    family: LabeledFamily
    certificate: SdfCertificate


@dataclass(frozen=True)
class DesignBuild:
    family: LabeledFamily
    certificate: SdfCertificate
    design: Design


@dataclass(frozen=True)
class ZeroDesignBuild:
    family: LabeledFamily
    certificate: SdfCertificate
    design: Design
    case: str  # "subgroup-case" | "non-subgroup-case" | "mixed"


@dataclass(frozen=True)
class TransnormalBuild:
    family: LabeledFamily
    certificate: SdfCertificate
    design: Design
    doubly_transitive: bool


@dataclass(frozen=True)
class Char2SegmentsReport:
    """Outcome of the elementary-abelian-2 segment analysis.

    The containment {0, a} within every block stabilizer is always verified;
    ``equality`` records whether the stabilizers are exactly {0, a}, in which
    case the certificate is additionally required to have nu = 1.  When the
    orbit family fails a uniformity hypothesis, ``certificate`` is None and
    ``failure`` names the condition.
    """

    family: LabeledFamily
    equality: bool
    certificate: Optional[SdfCertificate]
    failure: Optional[str]


def _check_orbit_preconditions(group: FiniteGroup, maps: Sequence[Endomorphism]) -> tuple[Endomorphism, ...]:
    if _ensure_same_group(maps) is not group:
        raise InvalidParameterError("maps must live on the given group")
    maps = dedup_endos(maps)
    if len(maps) < 2:
        raise HypothesisError("|S| > 1", {"size": len(maps)})
    for m in maps:
        if not m.is_zero and not m.is_bijective:
            raise HypothesisError("S ⊆ Φ ∪ {0}", {"map": list(m.table)},
                                  "nonzero member is not an automorphism")
    # Given S ⊆ Φ ∪ {0}, a(x) - b(x) = a(y) - b(y) gives a(-y+x) = b(-y+x), so
    # pairwise differences are bijections exactly when |S(x)| = |S| for x != 0.
    bad = fpf_failure(maps)
    if bad is not None:
        raise HypothesisError("fpf", {"first": list(bad.first.table),
                                      "second": list(bad.second.table), "x": bad.x},
                              "pointwise difference of two members is not a bijection")
    return maps


def _orbit_entries(group: FiniteGroup, maps: Sequence[Endomorphism]) -> LabeledFamily:
    return LabeledFamily(group, tuple((x, orbit(maps, x)) for x in group.nonzero()))


# verify_sdf conditions that orbit_family reports as hypotheses of the input.
_UNIFORMITY_HYPOTHESES = {"stabilizer-size": "uniform stabilizer size",
                          "class-size": "uniform class size"}


def orbit_family(group: FiniteGroup, maps: Sequence[Endomorphism]) -> FamilyBuild:
    """The labeled family (x, S(x)) for x over the nonzero elements.

    Hypotheses checked: |S| > 1, nonzero members are automorphisms, pairwise
    differences are bijections, and the stabilizer and class sizes are
    uniform over the labels (checked by verify_sdf).  The resulting
    certificate is then required to have lam_prime = |S| * (|S| - 1) exactly.
    """
    maps = _check_orbit_preconditions(group, maps)
    family = _orbit_entries(group, maps)

    try:
        cert = verify_sdf(family)
    except SdfCheckError as exc:
        if exc.condition in _UNIFORMITY_HYPOTHESES:
            raise HypothesisError(_UNIFORMITY_HYPOTHESES[exc.condition], exc.witness) from exc
        raise TheoremViolationError(exc.condition, exc.witness,
                                    "orbit family failed verification after its "
                                    "hypotheses passed") from exc
    expected = len(maps) * (len(maps) - 1)
    if cert.lam_prime != expected:
        raise TheoremViolationError("lam_prime", {
            "expected": expected, "got": cert.lam_prime})
    return FamilyBuild(family, cert)


def _developed_design(build: FamilyBuild) -> Design:
    blocks = development(build.family)
    try:
        design = verify_bibd(build.family.group.order, blocks)
    except DesignCheckError as exc:
        raise TheoremViolationError(exc.condition, exc.witness,
                                    "development of a verified family is not a design") from exc
    if design.lam != build.certificate.lam:
        raise TheoremViolationError("development-lambda", {
            "certificate": build.certificate.lam, "design": design.lam})
    return design


def ferrero(group: FiniteGroup, phi: Sequence[Endomorphism]) -> DesignBuild:
    """Orbit design of a fixed-point-free automorphism group: (v, |Φ|, |Φ|-1)."""
    ensure_automorphism_group(phi)
    if len(phi) < 2:
        raise HypothesisError("|Φ| > 1", {"order": len(phi)})
    require_fpf(phi, "Φ fpf")
    build = orbit_family(group, phi)
    design = _developed_design(build)
    k = len(phi)
    if (design.k, design.lam) != (k, k - 1):
        raise TheoremViolationError("design-parameters", {
            "expected": [group.order, k, k - 1],
            "got": [design.v, design.k, design.lam]})
    return DesignBuild(build.family, build.certificate, design)


def ferrero_with_zero(group: FiniteGroup, phi: Sequence[Endomorphism]) -> ZeroDesignBuild:
    """Orbit design of Φ ∪ {0}, with the block-subgroup case detected.

    All blocks subgroups: (v, |Φ|+1, 1).  No block a subgroup:
    (v, |Φ|+1, |Φ|+1).  A mix of both cannot satisfy the uniform-stabilizer
    condition (a block containing 0 is a subgroup exactly when its stabilizer
    is the whole block), so the mixed tag only ever decorates a hypothesis
    failure; no parameter formula is asserted for it.
    """
    ensure_automorphism_group(phi)
    if len(phi) < 2:
        raise HypothesisError("|Φ| > 1", {"order": len(phi)},
                              "the trivial group yields pair blocks whose development "
                              "does not match either case formula")
    require_fpf(phi, "Φ fpf")
    maps = (zero_endo(group),) + tuple(phi)
    distinct_blocks = sorted({orbit(maps, x) for x in group.nonzero()})
    flags = [is_subgroup(group, b) for b in distinct_blocks]
    if all(flags):
        case = "subgroup-case"
    elif not any(flags):
        case = "non-subgroup-case"
    else:
        case = "mixed"

    try:
        build = orbit_family(group, maps)
    except HypothesisError as exc:
        raise HypothesisError(exc.condition, {"case": case, **exc.witness}) from exc

    design = _developed_design(build)
    k = len(phi) + 1
    if case == "subgroup-case" and (design.k, design.lam) != (k, 1):
        raise TheoremViolationError("design-parameters", {
            "case": case, "expected": [group.order, k, 1],
            "got": [design.v, design.k, design.lam]})
    if case == "non-subgroup-case" and (design.k, design.lam) != (k, k):
        raise TheoremViolationError("design-parameters", {
            "case": case, "expected": [group.order, k, k],
            "got": [design.v, design.k, design.lam]})
    return ZeroDesignBuild(build.family, build.certificate, design, case)


def transnormal(group: FiniteGroup, maps: Sequence[Endomorphism],
                psi: Sequence[Endomorphism]) -> TransnormalBuild:
    """Orbit design from S normalized by a group Ψ transitive on the nonzero
    elements; the translations together with Ψ act doubly transitively on it.

    Normalization is read as conjugation-stability: ψ σ ψ⁻¹ ∈ S for every
    ψ ∈ Ψ and σ ∈ S.  Normalization and the automorphism checks run over
    generators (of G for the translations, of Ψ), which decides them for the
    whole group; on a failure the full scan names the first witness.
    """
    psi_gens = automorphism_generators(psi)
    maps = _check_orbit_preconditions(group, maps)
    if psi[0].group is not group:
        raise InvalidParameterError("Ψ must act on the same group")

    map_tables = {m.table for m in maps}

    def normalizing_failure(conjugators):
        for p in conjugators:
            p_inv = p.inverse()
            for s in maps:
                conj = p.compose(s).compose(p_inv)
                if conj.table not in map_tables:
                    return {"psi": list(p.table), "sigma": list(s.table),
                            "conjugate": list(conj.table)}
        return None

    if normalizing_failure(psi_gens) is not None:
        raise HypothesisError("Ψ normalizes S", normalizing_failure(psi))

    orbit_of_one = {p.table[1] for p in psi}
    if orbit_of_one != set(group.nonzero()):
        raise HypothesisError("Ψ transitive on G*", {"orbit": sorted(orbit_of_one)})

    try:
        build = orbit_family(group, maps)
    except HypothesisError as exc:
        # Uniformity is guaranteed once normalization and transitivity hold.
        raise TheoremViolationError(exc.condition, exc.witness) from exc
    design = _developed_design(build)

    def translation(g):
        return tuple(group.array[:, g].tolist())

    translation_gens = [translation(g) for g in group.generators]
    bad = non_automorphism(design, map(translation, group.elements()), translation_gens)
    if bad is not None:
        raise TheoremViolationError("translation-automorphism", {"perm": list(bad)})
    bad = non_automorphism(design, (p.table for p in psi), [p.table for p in psi_gens])
    if bad is not None:
        raise TheoremViolationError("psi-automorphism", {"perm": list(bad)})

    doubly = is_doubly_transitive(translation_gens + [p.table for p in psi_gens], group.order)
    if not doubly:
        raise TheoremViolationError("double-transitivity", {})
    return TransnormalBuild(build.family, build.certificate, design, doubly)


def nearfield_family(field: FiniteField, elems: Sequence[Element]) -> FamilyBuild:
    """Orbit family of the multiplication maps x -> t*x for t in a set T.

    Over a commutative field the normalization condition of the transitive
    construction holds automatically, so this must always verify; a failure
    indicates a bug rather than a bad input.
    """
    T = []
    for t in elems:
        t = tuple(int(c) for c in t)
        field._check(t)
        if t not in T:
            T.append(t)
    if len(T) < 2:
        raise HypothesisError("|T| > 1", {"size": len(T)})
    group = additive_group(field)
    maps = [field_mult_endo(field, t) for t in T]
    return orbit_family(group, maps)


def _segment_set(group: FiniteGroup, maps: Sequence[Endomorphism]) -> tuple[Endomorphism, ...]:
    """The distinct maps, after checking they live on group, 0,1 ∈ S and S = 1-S."""
    if _ensure_same_group(maps) is not group:
        raise InvalidParameterError("maps must live on the given group")
    maps = dedup_endos(maps)
    tables = {m.table for m in maps}
    if zero_endo(group).table not in tables or identity_endo(group).table not in tables:
        raise HypothesisError("0,1 ∈ S", {"size": len(maps)})
    for m in maps:
        check = one_minus(m)
        if check.table not in tables:
            raise HypothesisError("S = 1-S", {
                "map": list(m.table), "one_minus": list(check.table)})
    return maps


def segments(group: FiniteGroup, maps: Sequence[Endomorphism]) -> FamilyBuild:
    """Segment family: 0,1 ∈ S, |S| > 2, S = 1-S, the nonzero members generate
    a fixed-point-free automorphism group, and |G| and |⟨S*⟩| are odd.

    Certifies mu = 1, nu = 2, lam = |S|*(|S|-1)/2, and that the translate
    classes pair each label with its negation.
    """
    maps = _segment_set(group, maps)
    if len(maps) <= 2:
        # 0,1 ∈ S and |S| <= 2 leave S = {0, 1}, which passes S = 1-S.
        raise HypothesisError("|S| > 2", {"size": len(maps)})

    nonzero = [m for m in maps if not m.is_zero]
    for m in nonzero:
        if not m.is_bijective:
            raise HypothesisError("⟨S*⟩ fpf", {"map": list(m.table)},
                                  "nonzero member is not an automorphism")
    closed = closure(nonzero)
    require_fpf(closed, "⟨S*⟩ fpf")
    if group.order % 2 == 0:
        raise HypothesisError("|G| odd", {"order": group.order})
    if len(closed) % 2 == 0:
        raise HypothesisError("|⟨S*⟩| odd", {"order": len(closed)})

    if not group.commutative:
        # 1 - alpha being an automorphism forces commutativity, so the
        # hypothesis checks above cannot pass on a non-abelian group.
        raise TheoremViolationError("abelian", {"order": group.order})

    build = orbit_family(group, maps)
    return _certify_segments(build, maps)


def _certify_segments(build: FamilyBuild, maps: Sequence[Endomorphism]) -> FamilyBuild:
    cert = build.certificate
    size = len(maps)
    if cert.mu != 1:
        raise TheoremViolationError("stabilizer-trivial", {"mu": cert.mu})
    if cert.nu != 2:
        raise TheoremViolationError("two-classes", {"nu": cert.nu})
    if cert.lam != size * (size - 1) // 2:
        raise TheoremViolationError("lambda", {
            "expected": size * (size - 1) // 2, "got": cert.lam})
    group = build.family.group
    for cls in equivalence_classes(build.family):
        a = cls[0]
        if set(cls) != {a, group.neg(a)}:
            raise TheoremViolationError("class-pairing", {
                "class": list(cls), "expected": sorted({a, group.neg(a)})})
    return build


def segments_order6(group: FiniteGroup, phi: Sequence[Endomorphism]) -> FamilyBuild:
    """Segment family built from the order-6 members of a fixed-point-free
    group together with zero and the identity; certifies mu = 1, nu = 2."""
    if _ensure_same_group(phi) is not group:
        raise InvalidParameterError("maps must live on the given group")
    maps = order6_segment_set(phi)
    build = orbit_family(group, maps)
    return _certify_segments(build, maps)


def char2_segments_report(group: FiniteGroup, maps: Sequence[Endomorphism]) -> Char2SegmentsReport:
    """Analyze a segment set on an elementary abelian 2-group.

    Verifies the unconditional containment {0, a} ⊆ stabilizer(S(a)) for
    every nonzero a, reports whether equality holds throughout, and attempts
    the orbit-family verification (asserting nu = 1 when equality holds).
    """
    doubles = np.flatnonzero(np.diagonal(group.array))
    if len(doubles):
        raise HypothesisError("exponent 2", {"x": int(doubles[0]), "order": group.order})
    maps = _segment_set(group, maps)
    family = _orbit_entries(group, maps)
    equality = True
    for label, block in family:
        stab = set(stabilizer(group, block).elements)
        if not {0, label} <= stab:
            raise TheoremViolationError("stabilizer-containment", {
                "label": label, "stabilizer": sorted(stab)})
        if stab != {0, label}:
            equality = False

    try:
        build = orbit_family(group, maps)
    except HypothesisError as exc:
        return Char2SegmentsReport(family, equality, None, exc.condition)
    if equality and build.certificate.nu != 1:
        raise TheoremViolationError("single-class", {"nu": build.certificate.nu})
    return Char2SegmentsReport(build.family, equality, build.certificate, None)
