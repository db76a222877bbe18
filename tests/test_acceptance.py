"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Everything here is integer arithmetic; tolerances are exact equality.
"""

from __future__ import annotations

import random
import time

import pytest

from sdfam import (
    HypothesisError,
    LabeledFamily,
    SdfCheckError,
    all_subgroups,
    are_translates,
    build_cyclic,
    build_direct_product,
    build_elementary_abelian,
    classification_check,
    closure,
    development,
    equivalence_classes,
    ferrero,
    ferrero_with_zero,
    identity_endo,
    is_design_automorphism,
    is_doubly_transitive,
    make_endo,
    matrix_endo,
    one_minus,
    orbit,
    orbit_family,
    order6_segment_set,
    scalar_endo,
    segments,
    segments_order6,
    stabilizer,
    transnormal,
    verify_bibd,
    verify_sdf,
    zero_endo,
)
from sdfam.cli import main as cli_main
from sdfam.errors import HomomorphismError

import support


def report(number: int, text: str) -> None:
    print(f"acceptance {number:02d}: PASS  {text}")


def scalar_set(group, coeffs, with_zero=False):
    maps = [scalar_endo(group, c) for c in coeffs]
    return ([zero_endo(group)] + maps) if with_zero else maps


@pytest.fixture(scope="module")
def constructed_families(z7, z5, ea9, z13, z7_ferrero_endos):
    """The families behind criteria 1-5, reused by the property criteria."""
    return [
        ferrero(z7, z7_ferrero_endos).family,
        ferrero_with_zero(ea9, scalar_set(ea9, (1, 2))).family,
        ferrero_with_zero(z7, z7_ferrero_endos).family,
        segments(z7, scalar_set(z7, (1, 4), with_zero=True)).family,
        orbit_family(z5, scalar_set(z5, (1, 3), with_zero=True)).family,
        segments_order6(z7, closure([scalar_endo(z7, 3)])).family,
        segments_order6(z13, closure([scalar_endo(z13, 2)])).family,
    ]


def test_01_ferrero_on_seven_points(z7, z7_ferrero_endos):
    started = time.perf_counter()
    result = ferrero(z7, z7_ferrero_endos)
    elapsed = time.perf_counter() - started
    assert (result.design.v, result.design.k, result.design.lam) == (7, 3, 2)
    assert len(result.design.blocks) == 14
    assert elapsed < 1.0
    report(1, f"(7,3,2) design with 14 blocks in {elapsed * 1000:.1f} ms")


def test_02_subgroup_case_gives_affine_plane(ea9):
    result = ferrero_with_zero(ea9, scalar_set(ea9, (1, 2)))
    assert result.case == "subgroup-case"
    assert (result.design.v, result.design.k, result.design.lam) == (9, 3, 1)
    assert len(result.design.blocks) == 12
    report(2, "(9,3,1) design with the 12 lines of the order-3 affine plane")


def test_03_non_subgroup_case(z7, z7_ferrero_endos):
    result = ferrero_with_zero(z7, z7_ferrero_endos)
    assert result.case == "non-subgroup-case"
    assert (result.design.v, result.design.k, result.design.lam) == (7, 4, 4)
    assert len(result.design.blocks) == 14
    report(3, "(7,4,4) design with 14 blocks from the zero-augmented family")


def test_04_three_element_segments(z7, z5):
    build = segments(z7, scalar_set(z7, (1, 4), with_zero=True))
    cert = build.certificate
    assert (cert.v, cert.k, cert.mu, cert.nu, cert.lam_prime) == (7, 3, 1, 2, 6)
    design = verify_bibd(7, development(build.family))
    assert (design.v, design.k, design.lam) == (7, 3, 3)
    assert len(design.blocks) == 21

    maps5 = scalar_set(z5, (1, 3), with_zero=True)
    with pytest.raises(HypothesisError) as err:
        segments(z5, maps5)
    assert err.value.condition == "|⟨S*⟩| odd"
    generic = orbit_family(z5, maps5)
    assert (generic.certificate.v, generic.certificate.k, generic.certificate.lam) == (5, 3, 3)
    dev = development(generic.family)
    assert len(dev) == 10  # every 3-subset of the 5 points
    report(4, "(7,3,3) segments verified; Z_5 case rejected yet (5,3,3) generically")


def test_05_order_six_segments(z7):
    phi = closure([scalar_endo(z7, 3)])
    maps = order6_segment_set(phi)
    assert {m.table[1] for m in maps if not m.is_zero} == {1, 3, 5}
    for m in maps:
        if m.is_bijective and m.order() == 6:
            assert one_minus(m).table == m.pow(5).table
    build = segments_order6(z7, phi)
    cert = build.certificate
    assert (cert.v, cert.k, cert.mu, cert.nu, cert.lam_prime, cert.lam) == (7, 4, 1, 2, 12, 6)
    assert len(development(build.family)) == 21
    report(5, "(7,4,6) order-six segments with 21 blocks; 1-α = α^5 throughout")


def test_06_development_property_over_randomized_families(constructed_families):
    rng = random.Random(20240817)
    groups = [build_cyclic(n) for n in range(2, 17)] + [
        build_elementary_abelian(2, 2),
        build_elementary_abelian(2, 3),
        build_elementary_abelian(3, 2),
        build_elementary_abelian(2, 4),
        build_direct_product([build_cyclic(2), build_cyclic(4)]),
        support.symmetric_group(3),
        support.dihedral_square(),
        support.quaternion_group(),
    ]
    checked = 0
    passing = 0
    families = list(constructed_families)
    while len(families) < 1000 + len(constructed_families):
        fam = support.random_labeled_family(rng, rng.choice(groups))
        if fam is not None:
            families.append(fam)
    for fam in families:
        checked += 1
        try:
            cert = verify_sdf(fam)
        except SdfCheckError:
            continue
        passing += 1
        design = verify_bibd(fam.group.order, development(fam))
        assert design.k == cert.k
        assert design.lam == cert.lam  # exact integer equality
    assert checked >= 1000
    assert passing >= 100
    report(6, f"development property held on {passing}/{checked} verifying families")


def test_07_double_transitivity_on_nine_points(ea9):
    maps = scalar_set(ea9, (1, 2), with_zero=True)
    psi = closure([matrix_endo(ea9, [[1, 1], [0, 1]]), matrix_endo(ea9, [[0, 2], [1, 0]])])
    result = transnormal(ea9, maps, psi)
    assert result.doubly_transitive
    translations = [[ea9.add(x, g) for x in ea9.elements()] for g in ea9.elements()]
    perms = translations + [list(p.table) for p in psi]
    assert is_doubly_transitive(perms, 9)  # one orbit on all 72 ordered pairs
    for perm in perms:
        assert is_design_automorphism(perm, result.design)
    report(7, f"all 72 ordered pairs in one orbit; {len(perms)} generators fix the design")


def test_08_lemma_suite(z5, z7, z13, ea9, s3, d4, q8_group):
    rng = random.Random(97)

    # stabilizers are maximal among block-fixing subgroups (orders <= 24)
    groups = [z5, z7, z13, ea9, s3, d4, q8_group, build_cyclic(6),
              build_cyclic(12), build_cyclic(24), build_elementary_abelian(2, 2),
              build_elementary_abelian(2, 4)]
    for group in groups:
        subs = all_subgroups(group)
        blocks = [tuple(sorted(rng.sample(range(group.order),
                                          rng.randint(1, group.order)))) for _ in range(6)]
        for block in blocks:
            stab = set(stabilizer(group, block).elements)
            for sub in subs:
                if all(support.naive_translates(group, block, h) == block for h in sub):
                    assert set(sub.elements) <= stab

    # translate witnesses: -a + b + 2c stabilizes S(a) on the segment families
    lemma7_checked = 0
    for group, coeffs in ((z7, (1, 4)), (z5, (1, 3)), (z7, (1, 3, 5)), (z13, (1, 4, 10))):
        maps = scalar_set(group, coeffs, with_zero=True)
        blocks = {x: orbit(maps, x) for x in group.nonzero()}
        for a in group.nonzero():
            for b in group.nonzero():
                c = are_translates(group, blocks[a], blocks[b])
                if c is None:
                    continue
                combo = group.add(group.add(group.neg(a), b), group.add(c, c))
                assert combo in support.naive_stabilizer(group, blocks[a])
                lemma7_checked += 1
    assert lemma7_checked > 0

    # exact translate characterization on the Z_7 segment family
    blocks = {x: orbit(scalar_set(z7, (1, 4), with_zero=True), x) for x in z7.nonzero()}
    for a in z7.nonzero():
        for b in z7.nonzero():
            c = are_translates(z7, blocks[a], blocks[b])
            if b == a:
                assert c == 0
            elif b == z7.neg(a):
                assert c == a
            else:
                assert c is None

    # alpha and 1-alpha both automorphisms forces commutativity:
    # exhaustive over all automorphisms of the non-abelian fixtures,
    # randomized over raw tables on groups of order <= 16
    for group in (s3, d4, q8_group):
        for table in support.all_automorphism_tables(group):
            chk = one_minus(make_endo(group, table))
            assert not (chk.is_endomorphism and chk.is_bijective)
    random_groups = [build_cyclic(n) for n in (3, 4, 5, 6, 8, 12, 16)] + [
        ea9, s3, d4, q8_group, build_elementary_abelian(2, 3)]
    hits = 0
    for i in range(800):
        group = rng.choice(random_groups)
        if i % 2 == 0 or not group.commutative:
            table = [rng.randrange(group.order) for _ in range(group.order)]
        else:
            table = scalar_endo(group, rng.randrange(group.order)).table
        try:
            alpha = make_endo(group, table)
        except HomomorphismError:
            continue
        chk = one_minus(alpha)
        if alpha.is_bijective and chk.is_endomorphism and chk.is_bijective:
            hits += 1
            assert group.commutative
    assert hits >= 20
    report(8, f"stabilizer maximality, translate identities ({lemma7_checked} pairs), "
              f"and the abelian implication ({hits} hits) all held")


def test_09_quotient_order_screening(quaternion_endos, z7):
    quat = classification_check(quaternion_endos)
    assert quat.quotient_order == 4 and not quat.member
    cyc6 = classification_check(closure([scalar_endo(z7, 3)]))
    assert cyc6.quotient_order == 1 and cyc6.member
    cyc3 = classification_check(closure([scalar_endo(z7, 2)]))
    assert cyc3.quotient_order == 1 and cyc3.member
    report(9, "quaternion quotient order 4 rejected; cyclic quotient order 1 accepted")


def test_10_labeled_and_set_semantics_agree(constructed_families):
    agreements = 0
    for family in constructed_families:
        labeled = verify_sdf(family)
        dedup = verify_sdf(family.dedup())
        assert labeled.lam == dedup.lam
        agreements += 1
    # the worked example: labeled 6/(1*3) = set 2/(1*1) = 2
    ferrero_family = constructed_families[0]
    labeled = verify_sdf(ferrero_family)
    dedup = verify_sdf(ferrero_family.dedup())
    assert (labeled.lam_prime, labeled.mu, labeled.nu) == (6, 1, 3)
    assert (dedup.lam_prime, dedup.mu, dedup.nu) == (2, 1, 1)
    assert labeled.lam == dedup.lam == 2
    report(10, f"labeled and deduplicated verdicts agreed on lambda for "
               f"{agreements} families")


def test_11_catalog_determinism(tmp_path):
    started = time.perf_counter()
    out1, out2 = str(tmp_path / "c1.txt"), str(tmp_path / "c2.txt")
    assert cli_main(["catalog", "--max-order", "32", "--output", out1]) == 0
    assert cli_main(["catalog", "--max-order", "32", "--output", out2]) == 0
    elapsed = time.perf_counter() - started
    first = (tmp_path / "c1.txt").read_bytes()
    assert first == (tmp_path / "c2.txt").read_bytes()
    assert elapsed < 30.0
    report(11, f"two catalog runs byte-identical ({len(first.splitlines())} triples, "
               f"{elapsed:.2f} s)")
