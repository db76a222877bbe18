"""The generator checks against the full scans they replaced.

Associativity, homomorphism, composition closure, normalization, centers
and design automorphisms are each decided on a greedy generating set, and
on a failure the full scan names the witness.  Every test here compares
verdicts and witnesses with the naive oracles in support.py, on inputs
built so that checking only the first generator would get them wrong.
"""

from __future__ import annotations

import itertools
import random

import pytest

from sdfam import (
    Design,
    GroupAxiomError,
    HomomorphismError,
    HypothesisError,
    InvalidParameterError,
    LabeledFamily,
    additive_group,
    build_cyclic,
    build_direct_product,
    build_elementary_abelian,
    build_field,
    build_from_cayley,
    center,
    centralizes,
    closure,
    development,
    field_mult_endo,
    is_doubly_transitive,
    make_endo,
    matrix_endo,
    non_automorphism,
    normalizes,
    one_minus,
    scalar_endo,
    subgroup_generated,
    transnormal,
    unit_subgroup_elements,
    zero_endo,
)
from sdfam.endos import automorphism_generators, ensure_automorphism_group
from sdfam.fields import primitive_element

import support


def builder_groups():
    """One group from every builder, over a spread of orders and shapes."""
    groups = [build_cyclic(n) for n in (2, 3, 4, 6, 8, 12, 16, 30, 64, 127)]
    groups += [build_elementary_abelian(p, k)
               for p, k in ((2, 1), (2, 2), (2, 3), (2, 5), (2, 7), (3, 2), (3, 4), (5, 2), (7, 2))]
    groups.append(build_direct_product([build_cyclic(2), build_cyclic(4)]))
    groups.append(build_direct_product([build_cyclic(3), build_elementary_abelian(2, 2),
                                        build_cyclic(6)]))
    groups.append(build_direct_product([support.symmetric_group(3), build_cyclic(2)]))
    groups += [support.symmetric_group(3), support.symmetric_group(4), support.dihedral_square(),
               support.quaternion_group(), support.alternating_group_4()]
    groups.append(additive_group(build_field(3, 3)))
    return groups


GROUPS = builder_groups()


# ----------------------------------------------------------------- generators

@pytest.mark.parametrize("group", GROUPS, ids=repr)
def test_generators_are_greedy_few_and_generate_the_group(group):
    gens = group.generators
    assert len(gens) <= group.order.bit_length() - 1  # floor(log2 v)
    assert subgroup_generated(group, gens).elements == tuple(group.elements())
    for i, g in enumerate(gens):
        reached = subgroup_generated(group, gens[:i]).elements
        assert g == min(set(group.elements()) - set(reached))


# -------------------------------------------------------------- associativity

def random_loop(rng, n):
    """A loop of order n with identity 0 and two-sided inverses that is not
    associative, by randomized backtracking over Latin squares."""
    while True:
        rows = [list(range(n))] + [[x] + [None] * (n - 1) for x in range(1, n)]

        def fill(cell):
            if cell == (n - 1) * (n - 1):
                return True
            x, y = divmod(cell, n - 1)
            x, y = x + 1, y + 1
            used = set(rows[x][:y]) | {rows[r][y] for r in range(x)}
            for val in rng.sample(range(n), n):
                if val not in used:
                    rows[x][y] = val
                    if fill(cell + 1):
                        return True
            rows[x][y] = None
            return False

        fill(0)
        two_sided = all(rows[rows[x].index(0)][x] == 0 for x in range(n))
        if two_sided and support.naive_associativity_witness(rows) is not None:
            return rows


def product_table(low, high):
    """The componentwise table on index a + |low| * b, low the low digit."""
    n = len(low)
    return [[low[a1][a2] + n * high[b1][b2] for b2 in range(len(high)) for a2 in range(n)]
            for b1 in range(len(high)) for a1 in range(n)]


def assert_associativity_matches(table):
    witness = support.naive_associativity_witness(table)
    assert witness is not None
    with pytest.raises(GroupAxiomError) as err:
        build_from_cayley(table)
    assert err.value.axiom == "associativity"
    assert err.value.witness == witness
    return witness


def test_associativity_witness_matches_the_slab_scan_one_entry_off_a_group():
    rng = random.Random(601)
    witnesses = set()
    for group in GROUPS:
        if group.order < 3:
            continue
        for _ in range(6):
            table = group.array.tolist()
            # Keep row and column 0 and every 0 entry, so the identity and
            # inverse checks still pass and only associativity can fail.
            x, y = rng.randrange(1, group.order), rng.randrange(1, group.order)
            if table[x][y] == 0:
                continue
            table[x][y] = rng.choice([w for w in range(1, group.order) if w != table[x][y]])
            witnesses.add(assert_associativity_matches(table))
    # The x = 1 slab meets any single changed entry, so x is 1 here; y and z vary.
    assert len({(y, z) for _, y, z in witnesses}) > 60


def test_associativity_witness_matches_when_the_first_generators_associate():
    # A group times a non-associative loop, the group in the low digit: the
    # first generators lie in the group factor and pass Light's test, so only
    # a later generator exposes the failure.
    rng = random.Random(602)
    loops = [random_loop(rng, 5) for _ in range(4)] + [random_loop(rng, 6) for _ in range(2)]
    low = [build_cyclic(2), build_cyclic(3), build_elementary_abelian(2, 2), build_cyclic(4),
           support.symmetric_group(3)]
    witnesses = set()
    for loop in loops:
        for group in low:
            witnesses.add(assert_associativity_matches(product_table(group.array.tolist(), loop)))
            witnesses.add(assert_associativity_matches(product_table(loop, group.array.tolist())))
    assert len({x for x, _, _ in witnesses}) > 3


# --------------------------------------------------------------- homomorphism

def coset_perturbed(rng, group, base):
    """base + c(x + H), with H generated by the first few generators and c a
    random function of the coset that vanishes on H: additive along H but,
    as a rule, not along the later generators."""
    j = rng.randrange(1, len(group.generators))
    sub = subgroup_generated(group, group.generators[:j]).elements
    key = {x: min(group.add(x, h) for h in sub) for x in group.elements()}
    shift = {k: (0 if k == 0 else rng.randrange(group.order)) for k in set(key.values())}
    return tuple(group.add(base[x], shift[key[x]]) for x in group.elements())


def assert_hom_matches(group, table):
    witness = support.naive_hom_witness(group, table)
    if witness is None:
        assert make_endo(group, table).table == tuple(table)
    else:
        with pytest.raises(HomomorphismError) as err:
            make_endo(group, table)
        assert err.value.witness == witness
    return witness


def test_homomorphism_witness_matches_the_double_loop():
    rng = random.Random(603)
    witnesses = set()
    late = 0  # maps additive along the first generator that still fail
    for group in GROUPS:
        v = group.order
        for _ in range(8):
            table = [rng.randrange(v) for _ in range(v)]
            table[0] = rng.choice([0, table[0]])
            witnesses.add(assert_hom_matches(group, table))
        if group.commutative and len(group.generators) > 1:
            for c in rng.sample(range(v), min(v, 6)):
                base = scalar_endo(group, c).table
                witness = assert_hom_matches(group, coset_perturbed(rng, group, base))
                witnesses.add(witness)
                late += witness is not None
    assert len(witnesses) > 15 and late > 30


def test_one_minus_witness_matches_the_double_loop():
    # On a non-abelian group x -> x - alpha(x) is never additive for an
    # automorphism alpha; on an abelian one it always is.
    verdicts = set()
    for group in GROUPS:
        if group.order > 8:
            continue
        for table in support.all_automorphism_tables(group):
            check = one_minus(make_endo(group, table))
            assert check.witness == support.naive_hom_witness(group, check.table)
            assert check.is_endomorphism == (check.witness is None)
            verdicts.add(check.is_endomorphism)
    assert verdicts == {True, False}


# -------------------------------------------------------------------- closure

def matrix_group(group, p, k):
    """Every invertible k x k matrix over Z_p, as maps on (Z_p)^k."""
    maps = []
    for entries in itertools.product(range(p), repeat=k * k):
        rows = [entries[i * k:(i + 1) * k] for i in range(k)]
        m = matrix_endo(group, rows)
        if m.is_bijective:
            maps.append(m)
    return maps


@pytest.fixture(scope="module")
def map_groups():
    ea9, ea8 = build_elementary_abelian(3, 2), build_elementary_abelian(2, 3)
    z63 = build_cyclic(63)
    units = [scalar_endo(z63, u) for u in support.units_mod(63)]
    return [matrix_group(ea9, 3, 2), matrix_group(ea8, 2, 3), units]


def closure_verdict(maps):
    try:
        gens = automorphism_generators(maps)
    except InvalidParameterError as exc:
        return str(exc)
    assert len(gens) <= len(maps).bit_length() - 1
    generated = closure(gens) if gens else (maps[0],)
    assert {m.table for m in generated} == {m.table for m in maps}
    assert ensure_automorphism_group(maps) is maps[0].group
    return "closed"


def test_closure_verdict_matches_all_pairs(map_groups):
    rng = random.Random(605)
    closed = not_closed = 0
    for full in map_groups:
        identity = next(m for m in full if m.is_identity)
        subgroups = [closure(rng.sample(full, rng.randint(1, 2))) for _ in range(12)]
        lists = []
        for _ in range(15):
            lists.append([identity] + rng.sample([m for m in full if m is not identity],
                                                 rng.randint(1, 12)))
        for h in subgroups:
            others = [m for m in full if m not in set(h)]
            lists.append(list(h))
            lists.append(list(h) + rng.sample(others, min(1, len(others))))
            if len(h) > 2:
                lists.append([m for m in h if m != h[-1]])
            k = rng.choice(subgroups)
            lists.append(list(dict.fromkeys(list(h) + list(k))))
        lists.append(full)
        for maps in lists:
            for ordered in (maps, rng.sample(maps, len(maps))):
                verdict = closure_verdict(ordered)
                if support.naive_is_closed(ordered):
                    assert verdict == "closed"
                    closed += 1
                else:
                    assert verdict == "map list is not closed under composition"
                    not_closed += 1
    assert closed > 50 and not_closed > 50


# ----------------------------------------------- normalization and the center

def frobenius(field):
    group = additive_group(field)
    return make_endo(group, [field.element_index(field.pow(field.element_at(x), field.p))
                             for x in group.elements()])


@pytest.mark.parametrize("p,n", [(2, 3), (3, 2), (2, 4), (3, 3), (5, 2)])
def test_transnormal_normalization_witness_matches_all_pairs(p, n):
    # Ψ inside x -> a x^σ; S = {0} ∪ {x -> t x : t ∈ T} is normalized exactly
    # when T is closed under the Frobenius powers Ψ contains.
    rng = random.Random(606 + p * n)
    field = build_field(p, n)
    group = additive_group(field)
    g = primitive_element(field)
    frob = frobenius(field)
    outcomes = set()
    units = [field.element_at(i) for i in range(1, field.order)]
    divisors = [d for d in range(1, field.order) if (field.order - 1) % d == 0]
    for d in divisors:
        psi = closure([field_mult_endo(field, field.pow(g, d)), frob])
        for order in (list(psi), rng.sample(list(psi), len(psi))):
            # Unit subgroups are closed under Frobenius; random sets rarely are.
            sets = [rng.sample(units, size) for size in (1, 2, 3)]
            sets += [unit_subgroup_elements(field, e) for e in rng.sample(divisors, 2)]
            for T in sets:
                maps = [zero_endo(group)] + [field_mult_endo(field, t) for t in T]
                witness = support.naive_normalizing_witness(order, maps)
                try:
                    transnormal(group, maps, order)
                    outcome = "built"
                except HypothesisError as exc:
                    outcome = exc.condition
                    if witness is not None:
                        assert exc.condition == "Ψ normalizes S"
                        assert exc.witness == witness
                if witness is None:
                    assert outcome != "Ψ normalizes S"
                outcomes.add(outcome)
    assert "Ψ normalizes S" in outcomes and len(outcomes) > 1


def test_normalizes_center_and_centralizes_match_all_pairs(map_groups):
    rng = random.Random(607)
    for full in map_groups:
        subgroups = [closure(rng.sample(full, rng.randint(1, 2))) for _ in range(15)]
        for h in subgroups:
            tables = {m.table for m in h}
            for alpha in rng.sample(full, 6):
                inv = alpha.inverse()
                naive = all(alpha.compose(m).compose(inv).table in tables for m in h)
                assert normalizes(alpha, h) == naive
                commuting = all(alpha.compose(m).table == m.compose(alpha).table for m in h)
                assert centralizes(alpha, h) == commuting
            assert [m.table for m in center(h)] == support.naive_center_tables(h)


# ------------------------------------------------------- design automorphisms

def translations(group):
    return [tuple(col) for col in group.array.T.tolist()]


def coset_block(rng, group, sub, cosets):
    """A union of ``cosets`` random left cosets x + H."""
    reps = rng.sample(list(group.elements()), group.order)
    out = set()
    for x in reps:
        if len(out) == cosets * len(sub):
            break
        coset = {group.add(x, h) for h in sub}
        if not coset & out:
            out |= coset
    return tuple(sorted(out))


def test_translation_automorphism_failure_matches_the_full_scan():
    # Blocks that are unions of cosets of H = <first generator> keep the
    # translation by it an automorphism; perturbing one block by another such
    # union breaks only the later generators.
    rng = random.Random(608)
    failures = 0
    for group in GROUPS:
        if len(group.generators) < 2 or group.order > 64:
            continue
        sub = subgroup_generated(group, group.generators[:1]).elements
        perms, gens = translations(group), [translations(group)[g] for g in group.generators]
        for _ in range(6):
            cosets = rng.randint(1, max(1, group.order // len(sub) - 1))
            base = coset_block(rng, group, sub, cosets)
            blocks = list(support.development_tuples(LabeledFamily(group, ((0, base),))))
            designs = [blocks]
            replacement = coset_block(rng, group, sub, cosets)
            if replacement not in blocks:
                designs.append(blocks[1:] + [replacement])
            other = tuple(sorted(rng.sample(range(group.order), len(base))))
            if other not in blocks:
                designs.append(blocks[:-1] + [other])
            for bl in designs:
                design = Design(group.order, len(base), 1, tuple(bl))
                expected = support.naive_non_automorphism(bl, perms)
                assert non_automorphism(design, perms, gens) == expected
                failures += expected is not None
    assert failures > 30


def test_psi_automorphism_failure_and_double_transitivity_match_the_full_scan():
    rng = random.Random(609)
    checked, transitive = 0, set()
    for p, n, d in ((2, 3, 1), (3, 2, 2), (2, 4, 3), (3, 3, 2), (5, 2, 4)):
        field = build_field(p, n)
        group = additive_group(field)
        maps = [zero_endo(group)] + [field_mult_endo(field, t)
                                     for t in unit_subgroup_elements(field, d)]
        psi = closure([field_mult_endo(field, primitive_element(field)), frobenius(field)])
        psi_tables = [m.table for m in psi]
        gens = [m.table for m in automorphism_generators(psi)]
        design = transnormal(group, maps, psi).design
        for _ in range(8):
            blocks = list(design.blocks)
            i = rng.randrange(len(blocks))
            new = tuple(sorted(rng.sample(range(group.order), design.k)))
            if new in blocks:
                continue
            blocks[i] = new
            perturbed = Design(design.v, design.k, design.lam, tuple(blocks))
            expected = support.naive_non_automorphism(blocks, psi_tables)
            assert non_automorphism(perturbed, psi_tables, gens) == expected
            checked += 1
        # The translations with a subgroup K of Ψ: their generators reach the
        # same ordered pairs as the whole groups, transitive on G* or not.
        trans = translations(group)
        for _ in range(4):
            k = closure(rng.sample(list(psi), rng.randint(1, 2)))
            short = [trans[g] for g in group.generators] + \
                [m.table for m in automorphism_generators(k)]
            verdict = is_doubly_transitive(short, group.order)
            assert verdict == is_doubly_transitive(trans + [m.table for m in k], group.order)
            transitive.add(verdict)
    assert checked > 30 and transitive == {True, False}
