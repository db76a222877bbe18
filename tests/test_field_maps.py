"""Z_p-linear multiplication and matrix maps, and the array design-automorphism
and double-transitivity checks, against the loops they replaced: every map
for small fields and sampled maps for every field up to the cap, under the
default and a random irreducible modulus; orders, primitive elements and unit
subgroups; automorphism and 2-transitivity verdicts on edge cases; and a pin
on the number of field products."""

from __future__ import annotations

import random
from math import gcd

import pytest

from sdfam import (
    Design,
    InvalidParameterError,
    IrreducibilityError,
    LabeledFamily,
    build_cyclic,
    build_field,
    development,
    field_mult_endo,
    is_design_automorphism,
    is_doubly_transitive,
    matrix_endo,
    primitive_element,
    unit_subgroup_elements,
)
from sdfam.fields import FiniteField, additive_group, multiplication_map
from sdfam.groups import MAX_ORDER, build_elementary_abelian, is_prime, linear_map_table

import support

FIELDS = [(p, n) for p in range(2, MAX_ORDER + 1) if is_prime(p)
          for n in range(1, 10) if p ** n <= MAX_ORDER]
SMALL = [(p, n) for p, n in FIELDS if p ** n <= 64]
#: Default moduli under which x is not primitive.
NON_PRIMITIVE = [(3, 2), (5, 2), (7, 2), (5, 3), (2, 8), (2, 9)]


def random_modulus_field(rng, p, n):
    """GF(p^n) under a random monic irreducible modulus."""
    while True:
        coeffs = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(n - 1)] + [1]
        try:
            return build_field(p, n, coeffs)
        except IrreducibilityError:
            continue


def both_moduli(p, n):
    rng = random.Random(p * 1000 + n)
    return [build_field(p, n), random_modulus_field(rng, p, n)]


def ids(pairs):
    return [f"{p}^{n}" for p, n in pairs]


# ------------------------------------------------------------- linear maps

@pytest.mark.parametrize("p, n", SMALL, ids=ids(SMALL))
def test_every_multiplication_map_matches_the_products(p, n):
    for field in both_moduli(p, n):
        group = additive_group(field)
        for a in field.elements():
            expected = support.naive_field_mult_table(field, a)
            assert multiplication_map(field, a) == tuple(expected)
            assert field_mult_endo(field, a).table == tuple(expected)
            assert field_mult_endo(field, a).group is group


@pytest.mark.parametrize("p, n", FIELDS, ids=ids(FIELDS))
def test_sampled_multiplication_maps_match_the_products(p, n):
    rng = random.Random(p * 31 + n)
    for field in both_moduli(p, n):
        for i in [0, 1, field.order - 1] + rng.sample(range(field.order), min(3, field.order)):
            a = field.element_at(i)
            assert list(multiplication_map(field, a)) == support.naive_field_mult_table(field, a)


def test_maps_are_python_int_tuples():
    field = build_field(2, 9)
    table = multiplication_map(field, field.element_at(77))
    assert type(table) is tuple and all(type(t) is int for t in table)
    assert all(type(t) is int for t in field_mult_endo(field, field.one).table)


@pytest.mark.parametrize("bad", [(1,), (1, 0, 0), (3, 0), (0, -1), (1, 9)])
def test_bad_coefficient_vectors_raise_the_same_error(bad):
    field = build_field(3, 2)
    with pytest.raises(InvalidParameterError) as expected:
        support.naive_field_mult_table(field, bad)
    for make in (multiplication_map, field_mult_endo):
        with pytest.raises(InvalidParameterError) as info:
            make(field, bad)
        assert str(info.value) == str(expected.value)


@pytest.mark.parametrize("p, k", [(2, 1), (2, 3), (3, 2), (2, 9), (3, 5), (5, 3), (7, 2),
                                  (23, 1), (509, 1), (17, 2), (2, 6)])
def test_matrix_maps_match_the_digit_loop(p, k):
    rng = random.Random(p * 100 + k)
    group = build_elementary_abelian(p, k)
    matrices = [[[0] * k for _ in range(k)], [[int(r == c) for c in range(k)] for r in range(k)]]
    matrices += [[[rng.randrange(p) for _ in range(k)] for _ in range(k)] for _ in range(4)]
    for m in matrices:
        expected = support.naive_matrix_table(p, k, m)
        assert linear_map_table(p, k, m).tolist() == expected
        assert matrix_endo(group, m).table == tuple(expected)
    # Entries outside [0, p) are reduced mod p first, huge ones too.
    wild = [[rng.randrange(-10 ** 30, 10 ** 30) for _ in range(k)] for _ in range(k)]
    reduced = [[e % p for e in row] for row in wild]
    assert matrix_endo(group, wild).table == tuple(support.naive_matrix_table(p, k, reduced))


# --------------------------------------------- orders, primitive elements, units

@pytest.mark.parametrize("p, n", SMALL + NON_PRIMITIVE, ids=ids(SMALL + NON_PRIMITIVE))
def test_orders_and_primitive_elements_match_the_walk(p, n):
    for field in both_moduli(p, n):
        units = range(1, field.order)
        if field.order > 64:
            units = random.Random(p + n).sample(units, 12)
        for i in units:
            a = field.element_at(i)
            assert field.multiplicative_order(a) == support.naive_multiplicative_order(field, a)
        first = next(i for i in range(1, field.order)
                     if support.naive_multiplicative_order(field, field.element_at(i))
                     == field.order - 1)
        assert primitive_element(field) == field.element_at(first)
        with pytest.raises(InvalidParameterError) as info:
            field.multiplicative_order(field.zero)
        assert str(info.value) == "the zero element has no multiplicative order"


@pytest.mark.parametrize("p, n", NON_PRIMITIVE, ids=ids(NON_PRIMITIVE))
def test_x_is_not_primitive_under_these_default_moduli(p, n):
    field = build_field(p, n)
    x = field.element_at(p)
    assert support.naive_multiplicative_order(field, x) < field.order - 1
    assert primitive_element(field) != x


@pytest.mark.parametrize("p, n", SMALL + [(2, 8), (3, 5), (2, 9)],
                         ids=ids(SMALL + [(2, 8), (3, 5), (2, 9)]))
def test_unit_subgroups_are_the_powers_of_g_to_the_d(p, n):
    field = build_field(p, n)
    g = primitive_element(field)
    q1 = field.order - 1
    for d in [d for d in range(1, q1 + 1) if q1 % d == 0][:8]:
        powers = {field.element_index(field.pow(g, d * i)) for i in range(q1 // d)}
        assert unit_subgroup_elements(field, d) == tuple(field.element_at(i)
                                                         for i in sorted(powers))


def test_field_products_stay_few(monkeypatch):
    # Each map takes n products: x -> a x from its n basis images, an order
    # or a unit subgroup from one map, where a product per element or per
    # step took q or the order.
    calls = []
    mul = FiniteField.mul

    def counting(self, a, b):
        calls.append(1)
        return mul(self, a, b)

    monkeypatch.setattr(FiniteField, "mul", counting)
    for p, n in [(2, 8), (3, 4), (2, 9), (7, 3), (509, 1)]:
        field = build_field(p, n)
        for i in (1, 2, field.order - 1):
            calls.clear()
            field_mult_endo(field, field.element_at(i))
            assert len(calls) <= 2 * n
    field = build_field(2, 8)
    for d in (1, 3, 5, 15, 17, 85):
        calls.clear()
        assert len(unit_subgroup_elements(field, d)) == 255 // d
        assert len(calls) < field.order // 4


# ------------------------------------------------------- design automorphisms

def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the class and message are compared, whatever they are
        return type(exc), str(exc)


def assert_automorphism(perm, design, expected):
    assert support.naive_is_design_automorphism(perm, design) is expected
    assert is_design_automorphism(perm, design) is expected


def random_perm(rng, v):
    perm = list(range(v))
    rng.shuffle(perm)
    return perm


@pytest.fixture(scope="module")
def gf512_designs():
    """Developments on GF(512)'s additive group of {0} ∪ H (the subfield
    GF(8), 64 translates), H ∪ gH and {0} ∪ H ∪ gH, H the units of order 7:
    k = 8, 14 and 15, more than the six columns of one packed key at
    v = 512."""
    field = build_field(2, 9)
    group = additive_group(field)
    h = [field.element_index(t) for t in unit_subgroup_elements(field, 73)]
    g = field.element_index(primitive_element(field))
    gh = [multiplication_map(field, field.element_at(g))[t] for t in h]
    designs = []
    for block in ([0] + h, h + gh, [0] + h + gh):
        blocks = development(LabeledFamily(group, ((0, block),)))
        designs.append(Design(group.order, len(block), 1, blocks))
    return field, group, h, designs


def test_design_automorphisms_at_v_512_with_long_blocks(gf512_designs):
    field, group, h, designs = gf512_designs
    rng = random.Random(901)
    frobenius = [field.element_index(field.mul(field.element_at(x), field.element_at(x)))
                 for x in group.elements()]
    for design, frobenius_fixes in zip(designs, (True, False, False)):
        assert design.k > 6 and len(design.blocks) >= 64
        # Translations and the multiplications by H stabilize the block set,
        # Frobenius only that of the subfield's translates; a primitive
        # multiplication and random perms do not.
        for t in rng.sample(range(group.order), 5):
            assert_automorphism(group.array[:, t].tolist(), design, True)
        for t in h:
            assert_automorphism(multiplication_map(field, field.element_at(t)), design, True)
        assert_automorphism(frobenius, design, frobenius_fixes)
        g = primitive_element(field)
        assert_automorphism(multiplication_map(field, g), design, False)
        for _ in range(3):
            assert_automorphism(random_perm(rng, group.order), design, False)


def orbit_closed_design(rng, v, k, perm, seeds):
    """Random blocks closed under ``perm``, so that it stabilizes the set."""
    blocks = set()
    for _ in range(seeds):
        block = tuple(sorted(rng.sample(range(v), k)))
        while block not in blocks:
            blocks.add(block)
            block = tuple(sorted(perm[x] for x in block))
    return blocks


def small_order_perm(rng, v):
    """A product of disjoint 2- and 3-cycles, of order at most 6."""
    points = random_perm(rng, v)
    perm = list(range(v))
    while len(points) >= 3:
        cycle = [points.pop() for _ in range(rng.choice((2, 3)))]
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            perm[a] = b
    return perm


@pytest.mark.parametrize("v, k", [(7, 3), (12, 4), (40, 5), (200, 7), (512, 9), (512, 13)])
def test_block_set_stabilizers_and_random_perms(v, k):
    rng = random.Random(v * 10 + k)
    verdicts = []
    for _ in range(6):
        perm = small_order_perm(rng, v)
        blocks = list(orbit_closed_design(rng, v, k, perm, 5))
        # Unsorted points and block order, as Design accepts them.
        rng.shuffle(blocks)
        design = Design(v, k, 1, [rng.sample(b, k) for b in blocks])
        assert_automorphism(perm, design, True)
        for other in (random_perm(rng, v), small_order_perm(rng, v)):
            expected = support.naive_is_design_automorphism(other, design)
            assert is_design_automorphism(other, design) is expected
            verdicts.append(expected)
    assert False in verdicts


@pytest.mark.parametrize("v, k", [(6, 2), (9, 3), (50, 4), (512, 8), (512, 20)])
def test_a_transposition_that_moves_one_block_or_swaps_two(v, k):
    # Blocks hold both or neither of x and y, except one that holds x only:
    # swapping x and y moves that block out of the set, unless its image is
    # a block too, and then the swap exchanges the two.
    rng = random.Random(v + k)
    for _ in range(5):
        x, y = rng.sample(range(v), 2)
        rest = [z for z in range(v) if z not in (x, y)]
        blocks = {tuple(sorted(rng.sample(rest, k))) for _ in range(8)}
        blocks |= {tuple(sorted([x, y] + rng.sample(rest, k - 2))) for _ in range(4)}
        odd = rng.sample(rest, k - 1)
        moved = tuple(sorted([x] + odd))
        swap = list(range(v))
        swap[x], swap[y] = y, x
        image = tuple(sorted([y] + odd))
        assert_automorphism(swap, Design(v, k, 1, blocks | {moved}), False)
        assert_automorphism(swap, Design(v, k, 1, blocks | {moved, image}), True)


def test_designs_with_no_blocks_or_only_the_empty_block():
    for design in (Design(5, 3, 1, ()), Design(5, 0, 1, [()]), Design(2, 2, 1, ())):
        for perm in ([1, 0] + list(range(2, design.v)), list(range(design.v))):
            assert_automorphism(perm, design, True)


def test_single_block_and_whole_point_set_designs():
    rng = random.Random(905)
    for v in (2, 5, 11):
        whole = Design(v, v, 1, [tuple(range(v))])
        single = Design(v, 2, 1, [(0, 1)])
        for _ in range(5):
            perm = random_perm(rng, v)
            assert_automorphism(perm, whole, True)
            assert_automorphism(perm, single, sorted(perm[:2]) == [0, 1])


@pytest.mark.parametrize("perm", [[0, 1, 2], [0, 1, 2, 3, 4, 5, 6, 7], [0, 0, 2, 3, 4, 5, 6],
                                  [0, 1, 2, 3, 4, 5, 7], [-1, 1, 2, 3, 4, 5, 6],
                                  [0, 1, 2, 3, 4, 5, "6"], [0, 1, 2, 3, 4, 5, 6.5],
                                  [0, 1, 2, 3, 4, 5, "x"]])
def test_invalid_perms_give_the_same_outcome(perm):
    design = Design(7, 3, 1, [(0, 1, 3), (1, 2, 4), (2, 3, 5), (3, 4, 6), (0, 4, 5),
                              (1, 5, 6), (0, 2, 6)])
    assert outcome(is_design_automorphism, perm, design) == \
        outcome(support.naive_is_design_automorphism, perm, design)
    assert outcome(is_design_automorphism, perm, Design(7, 3, 1, ())) == \
        outcome(support.naive_is_design_automorphism, perm, Design(7, 3, 1, ()))


# -------------------------------------------------------- double transitivity

def assert_doubly(perms, v, expected):
    assert support.naive_is_doubly_transitive(perms, v) is expected
    assert is_doubly_transitive(perms, v) is expected


def translations(group):
    return group.array.T.tolist()


@pytest.mark.parametrize("p, n", [(2, 1), (3, 1), (2, 2), (7, 1), (3, 2), (2, 4), (5, 2),
                                  (2, 6), (31, 1)])
def test_translations_alone_and_the_affine_group(p, n):
    field = build_field(p, n)
    group = additive_group(field)
    trans = translations(group)
    mults = [list(multiplication_map(field, a)) for a in list(field.elements())[1:]]
    # The translations are transitive, but fix no pair's difference.
    assert_doubly(trans, group.order, group.order == 2)
    assert_doubly([trans[g] for g in group.generators], group.order, group.order == 2)
    # AGL(1, q) in full, where every level repeats images, and by generators.
    assert_doubly(trans + mults, group.order, True)
    g = multiplication_map(field, primitive_element(field))
    assert_doubly([trans[t] for t in group.generators] + [list(g)], group.order, True)
    # A proper unit subgroup leaves the pair orbits apart.
    if field.order > 3:
        d = next(d for d in range(2, field.order) if (field.order - 1) % d == 0)
        sub = multiplication_map(field, field.pow(primitive_element(field), d))
        assert_doubly(trans + [list(sub)], group.order, False)


@pytest.mark.parametrize("v", [2, 3, 4, 5, 9, 16, 40])
def test_symmetric_group_generators(v):
    swap = [1, 0] + list(range(2, v))
    cycle = list(range(1, v)) + [0]
    assert_doubly([swap, cycle], v, True)
    assert_doubly([cycle], v, v == 2)
    assert_doubly([swap], v, v == 2)


def test_two_points_and_empty_perm_lists():
    assert_doubly([[1, 0]], 2, True)
    assert_doubly([[0, 1]], 2, False)
    assert_doubly([[0, 1], [1, 0], [1, 0]], 2, True)
    for v in (2, 3, 7, 512):
        assert_doubly([], v, False)
        assert_doubly([list(range(v))], v, False)


def test_random_perm_sets_match_the_tuple_bfs():
    rng = random.Random(907)
    verdicts = set()
    for _ in range(60):
        v = rng.randint(2, 14)
        units = [a for a in range(1, v) if gcd(a, v) == 1]
        kind = rng.choice(("random", "fix-0", "affine"))
        perms = []
        for _ in range(rng.randint(1, 3)):
            if kind == "random":
                perms.append(random_perm(rng, v))
            elif kind == "fix-0":
                perms.append([0] + [x + 1 for x in random_perm(rng, v - 1)])
            else:  # x -> a x + b on Z_v
                a, b = rng.choice(units), rng.randrange(v)
                perms.append([(a * x + b) % v for x in range(v)])
        expected = support.naive_is_doubly_transitive(perms, v)
        assert is_doubly_transitive(perms, v) is expected
        verdicts.add(expected)
    assert verdicts == {True, False}


@pytest.mark.parametrize("perms, v", [
    ([[0, 1, 2]], 4), ([[0, 0, 2]], 3), ([[0, 1, 3]], 3), ([[-1, 0, 1]], 3),
    ([[1, 0, 2], [0, 1]], 3), ([[1, 0, "2"]], 3), ([[1, 0, 2.0]], 3), ([], 1), ([[0]], 1),
    ([], 0), ([[1, 0]], -3)])
def test_invalid_input_gives_the_same_outcome(perms, v):
    assert outcome(is_doubly_transitive, perms, v) == \
        outcome(support.naive_is_doubly_transitive, perms, v)


def test_cyclic_translations_with_all_units_mod_p():
    for p in (5, 7, 13):
        z = build_cyclic(p)
        units = [[a * x % p for x in range(p)] for a in range(1, p)]
        assert_doubly(translations(z) + units, p, True)
        assert_doubly(translations(z) + units[:1], p, False)
