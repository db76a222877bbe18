from __future__ import annotations

import math
import random

import pytest

from sdfam import (
    Design,
    DesignCheckError,
    InvalidParameterError,
    LabeledFamily,
    SdfCheckError,
    all_subgroups,
    are_translates,
    build_cyclic,
    build_direct_product,
    build_elementary_abelian,
    closure,
    development,
    equivalence_classes,
    is_design_automorphism,
    is_doubly_transitive,
    orbit,
    scalar_endo,
    stabilizer,
    verify_bibd,
    verify_sdf,
    zero_endo,
)

import support


def segment_family(group, coeffs):
    maps = [zero_endo(group)] + [scalar_endo(group, c) for c in coeffs]
    return LabeledFamily(group, tuple((x, orbit(maps, x)) for x in group.nonzero()))


@pytest.fixture(scope="module")
def ferrero_family(z7, z7_ferrero_endos):
    return LabeledFamily(z7, tuple((x, orbit(z7_ferrero_endos, x)) for x in z7.nonzero()))


def test_translate_examples(z7):
    assert support.naive_translates(z7, (0, 1, 4), 6) == (0, 3, 6)
    assert support.naive_translates(z7, (0, 1, 4), 0) == (0, 1, 4)
    z3 = build_cyclic(3)
    assert support.naive_translates(z3, (0, 1), 1) == (1, 2)


def test_stabilizer_of_union_of_cosets(z6):
    assert stabilizer(z6, (0, 1, 3, 4)).elements == (0, 3)


def test_stabilizer_trivial_when_sizes_coprime(z7):
    assert stabilizer(z7, (1, 2, 4)).elements == (0,)


def test_stabilizer_of_whole_group(z7):
    assert len(stabilizer(z7, tuple(z7.elements()))) == 7


def test_coprime_block_sizes_force_trivial_stabilizers():
    rng = random.Random(5)
    for n in (5, 7, 9, 11):
        g = build_cyclic(n)
        for _ in range(20):
            k = rng.choice([k for k in range(1, n) if math.gcd(k, n) == 1])
            block = tuple(sorted(rng.sample(range(n), k)))
            assert stabilizer(g, block).elements == (0,)


def test_are_translates_finds_smallest_witness(z7):
    assert are_translates(z7, (0, 1, 4), (0, 3, 6)) == 1
    assert are_translates(z7, (0, 1, 2, 4), (0, 3, 5, 6)) is None
    assert are_translates(z7, (1, 2, 4), (1, 2, 4)) == 0


def test_translate_witnesses_agree_with_naive_scan(z7):
    rng = random.Random(9)
    for _ in range(30):
        b = tuple(sorted(rng.sample(range(7), 3)))
        c = tuple(sorted(rng.sample(range(7), 3)))
        expected = next((g for g in range(7)
                         if support.naive_translates(z7, c, g) == b), None)
        assert are_translates(z7, b, c) == expected


def test_equivalence_classes_of_segments(z7):
    family = segment_family(z7, (1, 4))
    classes = {frozenset(cls) for cls in equivalence_classes(family)}
    assert classes == {frozenset({1, 6}), frozenset({2, 5}), frozenset({3, 4})}


def test_equivalence_classes_of_ferrero(ferrero_family):
    classes = {frozenset(cls) for cls in equivalence_classes(ferrero_family)}
    assert classes == {frozenset({1, 2, 4}), frozenset({3, 5, 6})}


def test_single_entry_family_is_one_class(z7):
    family = LabeledFamily(z7, (("only", (0, 1, 3)),))
    assert equivalence_classes(family) == (("only",),)


def test_development_of_pair_block():
    z3 = build_cyclic(3)
    family = LabeledFamily(z3, ((0, (0, 1)),))
    assert set(support.development_tuples(family)) == {(0, 1), (1, 2), (0, 2)}


def test_development_counts(z7, ferrero_family):
    assert len(development(ferrero_family)) == 14
    assert len(development(segment_family(z7, (1, 4)))) == 21


def test_development_size_formula_for_verified_families(z7, ferrero_family):
    for family in (ferrero_family, segment_family(z7, (1, 4))):
        cert = verify_sdf(family)
        classes = equivalence_classes(family)
        assert len(development(family)) == len(classes) * family.group.order // cert.mu


def test_verify_sdf_hand_counted_example():
    z3 = build_cyclic(3)
    family = LabeledFamily(z3, ((1, (0, 1)), (2, (0, 2))))
    cert = verify_sdf(family)
    assert (cert.v, cert.k, cert.mu, cert.nu, cert.lam_prime, cert.lam) == (3, 2, 1, 2, 2, 1)


def test_verify_sdf_ferrero_certificate(ferrero_family):
    cert = verify_sdf(ferrero_family)
    assert (cert.v, cert.k, cert.mu, cert.nu, cert.lam_prime, cert.lam) == (7, 3, 1, 3, 6, 2)
    # cross-check the triple counts with the naive oracle
    counts = support.naive_diff_counts(ferrero_family.group, ferrero_family.entries)
    assert set(counts.values()) == {6}


def test_verify_sdf_rejects_uneven_block_sizes(z7):
    family = LabeledFamily(z7, ((1, (0, 1)), (2, (0, 1, 2))))
    with pytest.raises(SdfCheckError) as err:
        verify_sdf(family)
    assert err.value.condition == "block-size"
    assert {err.value.witness["label_a"], err.value.witness["label_b"]} == {1, 2}


def test_verify_sdf_rejects_unbalanced_differences(z7):
    family = LabeledFamily(z7, ((1, (0, 1, 3)), (2, (0, 1, 2))))
    with pytest.raises(SdfCheckError) as err:
        verify_sdf(family)
    assert err.value.condition in ("stabilizer-size", "class-size", "difference-count")


def test_labels_must_be_distinct(z7):
    with pytest.raises(InvalidParameterError):
        LabeledFamily(z7, ((1, (0, 1)), (1, (0, 2))))


def test_verify_bibd_complete_pairs():
    design = verify_bibd(3, [(0, 1), (0, 2), (1, 2)])
    assert (design.v, design.k, design.lam) == (3, 2, 1)


def test_verify_bibd_ferrero_development(ferrero_family):
    design = verify_bibd(7, development(ferrero_family))
    assert (design.v, design.k, design.lam) == (7, 3, 2)
    # oracle: the pair counts really are uniform
    counts = support.naive_pair_counts(7, design.blocks)
    assert set(counts.values()) == {2}


def test_verify_bibd_detects_missing_block(ferrero_family):
    blocks = list(development(ferrero_family))[:-1]
    with pytest.raises(DesignCheckError) as err:
        verify_bibd(7, blocks)
    assert err.value.condition == "pair-coverage"


def test_verify_bibd_detects_repeated_block():
    with pytest.raises(DesignCheckError) as err:
        verify_bibd(3, [(0, 1), (0, 1), (1, 2), (0, 2)])
    assert err.value.condition == "repeated-block"


def test_verify_bibd_design_equals_a_checked_design(ferrero_family):
    # verify_bibd's Design, from checked rows, equals the one the constructor
    # builds from the same blocks unsorted.
    blocks = support.development_tuples(ferrero_family)
    design = verify_bibd(7, list(reversed(blocks)))
    assert design.blocks == tuple(sorted(blocks))
    shuffled = tuple(tuple(reversed(b)) for b in reversed(blocks))
    assert Design(7, 3, 2, shuffled) == design


def test_direct_design_calls_are_checked():
    with pytest.raises(InvalidParameterError):
        Design(3, 2, 1, ((0, 1), (1, 0), (1, 2)))
    with pytest.raises(InvalidParameterError):
        Design(3, 2, 1, ((0, 1), (0, 1, 2)))


def test_design_automorphisms(z7, ferrero_family):
    design = verify_bibd(7, development(ferrero_family))
    assert is_design_automorphism(list(range(7)), design)
    shift = [(x + 1) % 7 for x in range(7)]
    assert is_design_automorphism(shift, design)
    swap = [1, 0, 2, 3, 4, 5, 6]
    assert not is_design_automorphism(swap, design)
    with pytest.raises(InvalidParameterError):
        is_design_automorphism([0, 0, 2, 3, 4, 5, 6], design)


def test_all_group_translations_preserve_developments(z7, ferrero_family):
    design = verify_bibd(7, development(ferrero_family))
    for g in z7.elements():
        perm = [z7.add(x, g) for x in z7.elements()]
        assert is_design_automorphism(perm, design)


def test_double_transitivity_of_affine_maps(z7):
    shift = [(x + 1) % 7 for x in range(7)]
    triple = [(3 * x) % 7 for x in range(7)]
    assert is_doubly_transitive([shift, triple], 7)
    assert not is_doubly_transitive([shift], 7)
    assert is_doubly_transitive([[1, 0]], 2)


def test_stabilizer_is_maximal_fixing_subgroup(z6, z7, ea9, s3, d4, q8_group):
    rng = random.Random(13)
    groups = [z6, z7, ea9, s3, d4, q8_group, build_cyclic(12), build_cyclic(24)]
    for group in groups:
        subs = all_subgroups(group)
        blocks = [tuple(sorted(rng.sample(range(group.order),
                                          rng.randint(1, group.order))))
                  for _ in range(8)]
        blocks.append(tuple(group.elements()))
        for block in blocks:
            stab = set(stabilizer(group, block).elements)
            for sub in subs:
                fixes = all(support.naive_translates(group, block, h) == block for h in sub)
                if fixes:
                    assert set(sub.elements) <= stab
            # the stabilizer itself fixes the block
            assert all(support.naive_translates(group, block, h) == block for h in stab)


def test_translate_witness_lands_in_stabilizer(z7, z5):
    # abelian groups, families with S = 1 - S: whenever S(a) = S(b) + c,
    # the combination -a + b + 2c fixes S(a)
    cases = [(z7, (1, 4)), (z7, (1, 3, 5)), (z5, (1, 3))]
    checked = 0
    for group, coeffs in cases:
        family = segment_family(group, coeffs)
        blocks = dict(family.entries)
        for a in group.nonzero():
            for b in group.nonzero():
                c = are_translates(group, blocks[a], blocks[b])
                if c is None:
                    continue
                combo = group.add(group.add(group.neg(a), b), group.add(c, c))
                assert combo in support.naive_stabilizer(group, blocks[a])
                checked += 1
    assert checked > 0


def test_translate_pairs_only_self_and_negation(z7):
    # odd closure order and trivial stabilizers: S(a) = S(b) + c happens
    # exactly for (b, c) = (a, 0) and (b, c) = (-a, a)
    family = segment_family(z7, (1, 4))
    blocks = dict(family.entries)
    for a in z7.nonzero():
        for b in z7.nonzero():
            c = are_translates(z7, blocks[a], blocks[b])
            if b == a:
                assert c == 0
            elif b == z7.neg(a):
                assert c == a
            else:
                assert c is None


def test_dedup_keeps_first_labels(ferrero_family):
    dedup = ferrero_family.dedup()
    assert len(dedup) == 2
    assert [e.label for e in dedup] == [1, 3]


def test_labeled_and_dedup_lambda_agree(ferrero_family):
    labeled = verify_sdf(ferrero_family)
    dedup = verify_sdf(ferrero_family.dedup())
    assert labeled.lam == dedup.lam == 2
    assert (dedup.mu, dedup.nu, dedup.lam_prime) == (1, 1, 2)


@pytest.fixture(scope="module")
def differential_groups(s3, d4, q8_group):
    groups = [build_cyclic(n) for n in (2, 3, 5, 6, 7, 8, 9, 12, 13)]
    groups += [build_elementary_abelian(2, 2), build_elementary_abelian(2, 3),
               build_elementary_abelian(3, 2),
               build_direct_product([build_cyclic(2), build_cyclic(4)]),
               s3, d4, q8_group, support.alternating_group_4()]
    return groups


def assert_engines_agree(group, blocks):
    for block in blocks:
        assert stabilizer(group, block).elements == support.naive_stabilizer(group, block)
    for b in blocks:
        for c in blocks:
            assert are_translates(group, b, c) == support.naive_are_translates(group, b, c)


def test_engines_agree_with_naive_scans_on_random_families(differential_groups):
    rng = random.Random(2024)
    draws = nontrivial = 0
    while draws < 600:
        group = rng.choice(differential_groups)
        family = support.random_labeled_family(rng, group)
        if family is None:
            continue
        draws += 1
        classes = equivalence_classes(family)
        assert classes == support.naive_equivalence_classes(family)
        nontrivial += any(len(cls) > 1 for cls in classes)
        blocks = list(dict.fromkeys(family.blocks()))
        sample = rng.sample(blocks, min(len(blocks), 4))
        sample.append(support.naive_translates(group, sample[0], rng.randrange(group.order)))
        assert_engines_agree(group, sample)
    assert nontrivial > 100


def test_engines_agree_on_edge_cases(differential_groups):
    for group in differential_groups:
        v = group.order
        singletons = [(x,) for x in group.elements()]
        whole = tuple(group.elements())
        mixed = [(0,), (0, 1), tuple(range(min(v, 3))), whole]
        assert_engines_agree(group, singletons + mixed)
        for blocks in (singletons, [whole], mixed, mixed + singletons):
            family = LabeledFamily(group, tuple(enumerate(blocks)))
            assert equivalence_classes(family) == support.naive_equivalence_classes(family)
        assert len(stabilizer(group, whole)) == v
        assert equivalence_classes(LabeledFamily(group, tuple(enumerate(singletons)))) \
            == (tuple(range(v)),)


def test_verify_bibd_witnesses_match_naive_check_on_perturbed_developments(
        z7, z13, ea9, ferrero_family):
    rng = random.Random(31)
    families = [ferrero_family, segment_family(z7, (1, 4)), segment_family(z13, (1, 4, 10)),
                segment_family(ea9, (1, 2))]
    checked = 0
    for family in families:
        v = family.group.order
        blocks = list(development(family))
        for _ in range(15):
            dropped = list(blocks)
            del dropped[rng.randrange(len(dropped))]
            i = rng.randrange(len(blocks))
            x = rng.choice(blocks[i])
            y = rng.choice([p for p in range(v) if p not in blocks[i]])
            swapped = list(blocks)
            swapped[i] = tuple(sorted(set(blocks[i]) - {x} | {y}))
            for perturbed in (dropped, swapped):
                expected = support.naive_design_violation(v, perturbed)
                assert expected is not None
                with pytest.raises(DesignCheckError) as err:
                    verify_bibd(v, perturbed)
                assert (err.value.condition, err.value.witness) == expected
                checked += 1
    assert checked == 120
