from __future__ import annotations

import collections
import functools
import itertools
import random

import pytest

from sdfam import (
    HypothesisError,
    InvalidParameterError,
    build_cyclic,
    build_elementary_abelian,
    build_field,
    additive_group,
    char2_segments_report,
    closure,
    development,
    equivalence_classes,
    ferrero,
    ferrero_with_zero,
    field_mult_endo,
    identity_endo,
    matrix_endo,
    nearfield_family,
    orbit_family,
    scalar_endo,
    segments,
    segments_order6,
    transnormal,
    unit_subgroup_elements,
    verify_bibd,
    verify_sdf,
    zero_endo,
)

import support


def scalar_set(group, coeffs, with_zero=False):
    maps = [scalar_endo(group, c) for c in coeffs]
    if with_zero:
        maps = [zero_endo(group)] + maps
    return maps


def cert_tuple(cert):
    return (cert.v, cert.k, cert.mu, cert.nu, cert.lam_prime, cert.lam)


# ---------------------------------------------------------------- orbit_family

def test_orbit_family_z7_with_zero(z7):
    build = orbit_family(z7, scalar_set(z7, (1, 2, 4), with_zero=True))
    assert cert_tuple(build.certificate) == (7, 4, 1, 3, 12, 4)
    design = verify_bibd(7, development(build.family))
    assert (design.v, design.k, design.lam) == (7, 4, 4)
    assert len(design.blocks) == 14


def test_orbit_family_scalar_lines(ea9):
    build = orbit_family(ea9, scalar_set(ea9, (1, 2), with_zero=True))
    assert cert_tuple(build.certificate) == (9, 3, 3, 2, 6, 1)
    design = verify_bibd(9, development(build.family))
    assert (design.v, design.k, design.lam) == (9, 3, 1)
    assert len(design.blocks) == 12


def test_orbit_family_zero_one_pairs(z7):
    build = orbit_family(z7, scalar_set(z7, (1,), with_zero=True))
    assert cert_tuple(build.certificate) == (7, 2, 1, 2, 2, 1)
    dev = support.development_tuples(build.family)
    assert set(dev) == {tuple(sorted(p)) for p in itertools.combinations(range(7), 2)}


def test_orbit_family_rejects_singletons(z7):
    with pytest.raises(HypothesisError) as err:
        orbit_family(z7, [identity_endo(z7)])
    assert err.value.condition == "|S| > 1"


def test_orbit_family_rejects_non_fpf_set():
    z8 = build_cyclic(8)
    with pytest.raises(HypothesisError) as err:
        orbit_family(z8, scalar_set(z8, (1, 3)))
    assert err.value.condition == "fpf"
    assert err.value.witness["x"] == 4


def test_orbit_family_rejects_singular_nonzero_member(ea9):
    maps = [identity_endo(ea9), matrix_endo(ea9, [[1, 0], [0, 0]])]
    with pytest.raises(HypothesisError) as err:
        orbit_family(ea9, maps)
    assert err.value.condition == "S ⊆ Φ ∪ {0}"


def test_every_orbit_certificate_has_exact_triple_count(z7, ea9):
    for group, coeffs, with_zero in [(z7, (1, 2, 4), False), (z7, (1, 2, 4), True),
                                     (ea9, (1, 2), True), (z7, (1, 6), True)]:
        maps = scalar_set(group, coeffs, with_zero)
        build = orbit_family(group, maps)
        assert build.certificate.lam_prime == len(maps) * (len(maps) - 1)


# -------------------------------------------------------------------- ferrero

def test_ferrero_z7(z7, z7_ferrero_endos):
    result = ferrero(z7, z7_ferrero_endos)
    assert cert_tuple(result.certificate) == (7, 3, 1, 3, 6, 2)
    assert (result.design.v, result.design.k, result.design.lam) == (7, 3, 2)
    assert len(result.design.blocks) == 14


def test_ferrero_gf13_index_two_units(z13):
    phi = closure([scalar_endo(z13, 4)])  # 4 generates the squares mod 13
    assert sorted(e.table[1] for e in phi) == [1, 3, 4, 9, 10, 12]
    result = ferrero(z13, phi)
    assert (result.design.v, result.design.k, result.design.lam) == (13, 6, 5)


def test_ferrero_rejects_trivial_group(z7):
    with pytest.raises(HypothesisError) as err:
        ferrero(z7, (identity_endo(z7),))
    assert err.value.condition == "|Φ| > 1"


def test_ferrero_rejects_non_fpf_group():
    z8 = build_cyclic(8)
    phi = closure([scalar_endo(z8, 3)])
    with pytest.raises(HypothesisError) as err:
        ferrero(z8, phi)
    assert err.value.condition == "Φ fpf"


# ----------------------------------------------------------- ferrero_with_zero

def test_ferrero_with_zero_non_subgroup_case(z7, z7_ferrero_endos):
    result = ferrero_with_zero(z7, z7_ferrero_endos)
    assert result.case == "non-subgroup-case"
    assert (result.design.v, result.design.k, result.design.lam) == (7, 4, 4)
    assert len(result.design.blocks) == 14


def test_ferrero_with_zero_subgroup_case(ea9):
    result = ferrero_with_zero(ea9, scalar_set(ea9, (1, 2)))
    assert result.case == "subgroup-case"
    assert (result.design.v, result.design.k, result.design.lam) == (9, 3, 1)
    assert len(result.design.blocks) == 12


def test_ferrero_with_zero_subfield_case(gf16):
    group = additive_group(gf16)
    phi = [field_mult_endo(gf16, t) for t in unit_subgroup_elements(gf16, 5)]
    result = ferrero_with_zero(group, tuple(sorted(phi, key=lambda e: e.table)))
    assert result.case == "subgroup-case"
    assert (result.design.v, result.design.k, result.design.lam) == (16, 4, 1)
    assert len(result.design.blocks) == 20


def test_ferrero_with_zero_mixed_case_fails_uniformity():
    z9 = build_cyclic(9)
    phi = scalar_set(z9, (1, 8))
    with pytest.raises(HypothesisError) as err:
        ferrero_with_zero(z9, phi)
    assert err.value.witness.get("case") == "mixed"
    assert err.value.condition == "uniform stabilizer size"
    # the bare orbit design still exists without the zero map
    result = ferrero(z9, phi)
    assert (result.design.v, result.design.k, result.design.lam) == (9, 2, 1)


# ---------------------------------------------------------------- transnormal

def test_transnormal_on_nine_points(ea9):
    maps = scalar_set(ea9, (1, 2), with_zero=True)
    psi = closure([matrix_endo(ea9, [[1, 1], [0, 1]]), matrix_endo(ea9, [[0, 2], [1, 0]])])
    result = transnormal(ea9, maps, psi)
    assert result.doubly_transitive
    assert (result.design.v, result.design.k, result.design.lam) == (9, 3, 1)


def test_transnormal_on_z7_units(z7):
    maps = scalar_set(z7, (1, 2, 4), with_zero=True)
    psi = closure([scalar_endo(z7, 3)])
    result = transnormal(z7, maps, psi)
    assert result.doubly_transitive
    assert (result.design.v, result.design.k, result.design.lam) == (7, 4, 4)


def test_transnormal_transitivity_failure(z7):
    maps = scalar_set(z7, (1, 2, 4), with_zero=True)
    with pytest.raises(HypothesisError) as err:
        transnormal(z7, maps, (identity_endo(z7),))
    assert err.value.condition == "Ψ transitive on G*"
    assert err.value.witness["orbit"] == [1]


def test_transnormal_normalization_failure(ea9, quaternion_endos):
    # S = {0, 1, M} passes the fixed-point-free checks, but conjugating M by
    # the other quaternion generators lands on -M, which is not in S
    m = matrix_endo(ea9, [[0, 2], [1, 0]])
    maps = [zero_endo(ea9), identity_endo(ea9), m]
    with pytest.raises(HypothesisError) as err:
        transnormal(ea9, maps, quaternion_endos)
    assert err.value.condition == "Ψ normalizes S"


# ------------------------------------------------------------------ nearfield

def test_nearfield_matches_ferrero_on_prime_field(z7, z7_ferrero_endos):
    f7 = build_field(7, 1)
    build = nearfield_family(f7, [(1,), (2,), (4,)])
    reference = ferrero(z7, z7_ferrero_endos)
    assert {e.block for e in build.family} == {e.block for e in reference.family.entries}


def test_nearfield_gf9_squares(gf9):
    build = nearfield_family(gf9, unit_subgroup_elements(gf9, 2))
    assert cert_tuple(build.certificate) == (9, 4, 1, 4, 12, 3)
    design = verify_bibd(9, development(build.family))
    assert (design.v, design.k, design.lam) == (9, 4, 3)
    assert len(design.blocks) == 18


def test_nearfield_zero_one_pairs():
    f5 = build_field(5, 1)
    build = nearfield_family(f5, [f5.zero, f5.one])
    assert cert_tuple(build.certificate) == (5, 2, 1, 2, 2, 1)
    dev = development(build.family)
    assert len(dev) == 10  # all 2-subsets of 5 points


def test_nearfield_requires_two_elements(gf9):
    with pytest.raises(HypothesisError):
        nearfield_family(gf9, [gf9.one])


# ------------------------------------------------------------------- segments

def test_segments_z7(z7):
    build = segments(z7, scalar_set(z7, (1, 4), with_zero=True))
    assert cert_tuple(build.certificate) == (7, 3, 1, 2, 6, 3)
    design = verify_bibd(7, development(build.family))
    assert (design.v, design.k, design.lam) == (7, 3, 3)
    assert len(design.blocks) == 21


def test_segments_classes_pair_labels_with_negations(z7):
    build = segments(z7, scalar_set(z7, (1, 4), with_zero=True))
    classes = {frozenset(c) for c in equivalence_classes(build.family)}
    assert classes == {frozenset({a, z7.neg(a)}) for a in z7.nonzero()}


def test_segments_rejects_even_closure_but_orbit_accepts(z7):
    maps = scalar_set(z7, (1, 3, 5), with_zero=True)
    with pytest.raises(HypothesisError) as err:
        segments(z7, maps)
    assert err.value.condition == "|⟨S*⟩| odd"
    assert err.value.witness == {"order": 6}
    build = orbit_family(z7, maps)
    assert cert_tuple(build.certificate) == (7, 4, 1, 2, 12, 6)


def test_segments_rejects_z5_order_four_closure(z5):
    maps = scalar_set(z5, (1, 3), with_zero=True)
    with pytest.raises(HypothesisError) as err:
        segments(z5, maps)
    assert err.value.condition == "|⟨S*⟩| odd"
    assert err.value.witness == {"order": 4}
    build = orbit_family(z5, maps)
    assert cert_tuple(build.certificate) == (5, 3, 1, 2, 6, 3)
    dev = support.development_tuples(build.family)
    assert set(dev) == {tuple(sorted(t)) for t in itertools.combinations(range(5), 3)}


def test_segments_condition_checks(z7, z5):
    with pytest.raises(HypothesisError) as err:
        segments(z7, scalar_set(z7, (1, 4)))  # no zero map
    assert err.value.condition == "0,1 ∈ S"
    with pytest.raises(HypothesisError) as err:
        segments(z7, scalar_set(z7, (1,), with_zero=True))
    assert err.value.condition == "|S| > 2"
    with pytest.raises(HypothesisError) as err:
        segments(z7, scalar_set(z7, (1, 2), with_zero=True))  # 1-2x = 6x missing
    assert err.value.condition == "S = 1-S"
    z9 = build_cyclic(9)
    with pytest.raises(HypothesisError) as err:
        # 1 - 5x = 5x mod 9, but the closure of {1, 5} contains 4x, which
        # fixes 3 (gcd(4-1, 9) = 3): not fixed point free
        segments(z9, scalar_set(z9, (1, 5), with_zero=True))
    assert err.value.condition == "⟨S*⟩ fpf"


def test_segments_even_group_rejected():
    # halving on Z_15 gives S = {0, 1, 8}; on even orders the |G| odd check fires first
    z4 = build_cyclic(4)
    maps = [zero_endo(z4), identity_endo(z4), scalar_endo(z4, 3)]
    with pytest.raises(HypothesisError) as err:
        segments(z4, maps)
    assert err.value.condition in ("S = 1-S", "⟨S*⟩ fpf", "|G| odd")


def test_segments_from_halving_map():
    # 2 has odd order mod 31, so the closure of the halving map is odd and fpf
    z31 = build_cyclic(31)
    from sdfam import halving_endo
    half = halving_endo(z31)
    assert half.table == scalar_endo(z31, 16).table
    build = segments(z31, [zero_endo(z31), identity_endo(z31), half])
    assert cert_tuple(build.certificate) == (31, 3, 1, 2, 6, 3)


# ------------------------------------------------------------ segments_order6

def test_segments_order6_z7(z7):
    phi = closure([scalar_endo(z7, 3)])
    build = segments_order6(z7, phi)
    assert cert_tuple(build.certificate) == (7, 4, 1, 2, 12, 6)
    design = verify_bibd(7, development(build.family))
    assert (design.v, design.k, design.lam) == (7, 4, 6)
    assert len(design.blocks) == 21


def test_segments_order6_gf13(z13):
    phi = closure([scalar_endo(z13, 2)])
    build = segments_order6(z13, phi)
    assert cert_tuple(build.certificate) == (13, 4, 1, 2, 12, 6)


def test_segments_order6_size_is_even(z7, z13):
    for group, gen in ((z7, 3), (z13, 2)):
        phi = closure([scalar_endo(group, gen)])
        from sdfam import order6_segment_set
        assert len(order6_segment_set(phi)) % 2 == 0


def test_segments_order6_divisibility_guard(z7, z7_ferrero_endos):
    with pytest.raises(HypothesisError) as err:
        segments_order6(z7, z7_ferrero_endos)
    assert err.value.condition == "6 divides |Φ|"


# ------------------------------------------------------------- char2 segments

def test_char2_all_multiplications_of_gf4():
    f4 = build_field(2, 2)
    group = additive_group(f4)
    maps = [field_mult_endo(f4, a) for a in f4.elements()]
    report = char2_segments_report(group, maps)
    assert not report.equality  # stabilizers are the whole group
    assert cert_tuple(report.certificate) == (4, 4, 4, 3, 12, 1)
    design = verify_bibd(4, development(report.family))
    assert (design.v, design.k, design.lam) == (4, 4, 1)
    assert len(design.blocks) == 1


def test_char2_subfield_multiplications_of_gf16(gf16):
    group = additive_group(gf16)
    maps = [zero_endo(group)] + [field_mult_endo(gf16, t)
                                 for t in unit_subgroup_elements(gf16, 5)]
    report = char2_segments_report(group, maps)
    assert not report.equality
    for label, block in report.family:
        stab = set(support.naive_stabilizer(group, block))
        assert stab == set(block)  # stabilizer is the block itself, of size 4
        assert {0, label} <= stab
    assert cert_tuple(report.certificate) == (16, 4, 4, 3, 12, 1)


def test_char2_equality_case_forces_single_classes(ea4):
    maps = [zero_endo(ea4), identity_endo(ea4)]
    report = char2_segments_report(ea4, maps)
    assert report.equality
    assert report.certificate.nu == 1
    assert cert_tuple(report.certificate) == (4, 2, 2, 1, 2, 1)


def test_char2_rejects_odd_order_groups(z7):
    maps = scalar_set(z7, (1, 4), with_zero=True)
    with pytest.raises(HypothesisError) as err:
        char2_segments_report(z7, maps)
    assert err.value.condition == "exponent 2"


# ------------------------------------------------- certificates vs developments

def test_constructed_families_develop_into_their_certificates(z7, ea9, z13):
    builds = [
        orbit_family(z7, scalar_set(z7, (1, 2, 4))),
        orbit_family(z7, scalar_set(z7, (1, 2, 4), with_zero=True)),
        orbit_family(ea9, scalar_set(ea9, (1, 2), with_zero=True)),
        segments(z7, scalar_set(z7, (1, 4), with_zero=True)),
        segments_order6(z13, closure([scalar_endo(z13, 2)])),
    ]
    for build in builds:
        design = verify_bibd(build.family.group.order, development(build.family))
        assert design.lam == build.certificate.lam
        assert design.k == build.certificate.k


def test_labeled_and_dedup_agree_on_every_construction(z7, ea9, gf9, gf16):
    group16 = additive_group(gf16)
    builds = [
        orbit_family(z7, scalar_set(z7, (1, 2, 4))),
        orbit_family(z7, scalar_set(z7, (1, 2, 4), with_zero=True)),
        orbit_family(ea9, scalar_set(ea9, (1, 2), with_zero=True)),
        nearfield_family(gf9, unit_subgroup_elements(gf9, 2)),
        orbit_family(group16, [zero_endo(group16)] + [
            field_mult_endo(gf16, t) for t in unit_subgroup_elements(gf16, 5)]),
        segments(z7, scalar_set(z7, (1, 4), with_zero=True)),
    ]
    for build in builds:
        dedup_cert = verify_sdf(build.family.dedup())
        assert dedup_cert.lam == build.certificate.lam


# ------------------------------------------- single routes against the oracles
#
# orbit_family leaves uniformity to verify_sdf and fixed-point-freeness to
# fpf_failure, and segments shares its segment-set checks with
# char2_segments_report; the naive routes in support recompute every outcome.

DIFF_GROUPS = [(n, None) for n in range(2, 41)] + [(2, 2), (2, 3), (2, 4), (3, 2), (5, 2)]


@functools.lru_cache(maxsize=None)
def _diff_group(p, k):
    return build_cyclic(p) if k is None else build_elementary_abelian(p, k)


def _coeff_map(group, p, k, c):
    """x -> c*x on Z_p (k None), or the matrix c on (Z_p)^k."""
    return scalar_endo(group, c % p) if k is None else matrix_endo(group, c)


def _random_coeffs(rng, p, k):
    if k is None:
        return rng.randrange(p)
    if rng.random() < 0.3:
        c = rng.randrange(p)
        return [[c * (i == j) for j in range(k)] for i in range(k)]
    return [[rng.randrange(p) for _ in range(k)] for _ in range(k)]


def _one_minus_coeffs(p, k, c):
    if k is None:
        return (1 - c) % p
    return [[((i == j) - c[i][j]) % p for j in range(k)] for i in range(k)]


def _draw_orbit_set(rng, group, p, k):
    """Random maps, or the cyclic group of a random automorphism (with zero)."""
    kind = rng.randrange(3)
    if kind == 0:
        return [_coeff_map(group, p, k, _random_coeffs(rng, p, k))
                for _ in range(rng.randint(2, 5))]
    gen = _coeff_map(group, p, k, _random_coeffs(rng, p, k))
    while not gen.is_bijective:
        gen = _coeff_map(group, p, k, _random_coeffs(rng, p, k))
    maps = list(closure([gen])) + ([zero_endo(group)] if kind == 2 else [])
    rng.shuffle(maps)
    return maps


def _draw_segment_set(rng, group, p, k):
    """{0, 1} together with random maps t and 1 - t, sometimes one member short."""
    maps = [zero_endo(group), identity_endo(group)]
    for _ in range(rng.randint(1, 3)):
        c = _random_coeffs(rng, p, k)
        maps += [_coeff_map(group, p, k, c), _coeff_map(group, p, k, _one_minus_coeffs(p, k, c))]
    if rng.random() < 0.3:
        del maps[rng.randrange(len(maps))]
    rng.shuffle(maps)
    return maps


def _outcome(build, group, maps):
    try:
        return "ok", cert_tuple(build(group, maps).certificate)
    except HypothesisError as exc:
        return "HypothesisError", exc.condition, exc.witness


def _assert_valid_fpf_witness(witness, maps):
    assert list(witness) == ["first", "second", "x"]
    tables = {m.table for m in maps}
    first, second, x = witness["first"], witness["second"], witness["x"]
    assert tuple(first) in tables and tuple(second) in tables and first != second
    assert x != 0 and first[x] == second[x]


def test_orbit_and_segments_match_the_naive_routes():
    seen = collections.Counter()
    for seed in range(8):
        rng = random.Random(seed)
        for _ in range(130):
            p, k = rng.choice(DIFF_GROUPS)
            group = _diff_group(p, k)
            maps = _draw_orbit_set(rng, group, p, k)
            got, want = _outcome(orbit_family, group, maps), support.naive_orbit_outcome(group, maps)
            seen["orbit", got[1] if got[0] != "ok" else "ok"] += 1
            if want[:2] == ("HypothesisError", "fpf"):
                # fpf_failure scans x first, the pairwise route pairs first: the
                # witnesses may differ but must both be valid.
                assert got[:2] == want[:2], (maps, got, want)
                _assert_valid_fpf_witness(got[2], maps)
            else:
                assert got == want, (maps, got, want)

            p, k = rng.choice(DIFF_GROUPS)
            group = _diff_group(p, k)
            maps = _draw_segment_set(rng, group, p, k)
            got = _outcome(segments, group, maps)
            assert got == support.naive_segments_outcome(group, maps), maps
            seen["segments", got[1] if got[0] != "ok" else "ok"] += 1
    assert {cond for kind, cond in seen if kind == "orbit"} == {
        "ok", "|S| > 1", "S ⊆ Φ ∪ {0}", "fpf", "uniform stabilizer size", "uniform class size"}
    assert {cond for kind, cond in seen if kind == "segments"} == {
        "ok", "0,1 ∈ S", "|S| > 2", "S = 1-S", "⟨S*⟩ fpf", "|G| odd", "|⟨S*⟩| odd"}


def test_fpf_witness_names_the_first_element_with_a_collision():
    z8 = build_cyclic(8)
    maps = scalar_set(z8, (3, 1, 5))
    assert support.naive_pairwise_fpf(maps) == {
        "first": list(maps[0].table), "second": list(maps[1].table), "x": 4}
    with pytest.raises(HypothesisError) as err:
        orbit_family(z8, maps)
    assert err.value.condition == "fpf"
    assert err.value.witness == {"first": list(maps[1].table),
                                 "second": list(maps[2].table), "x": 2}
