from __future__ import annotations

import itertools

import pytest

from sdfam import (
    InvalidParameterError,
    IrreducibilityError,
    additive_group,
    build_elementary_abelian,
    build_field,
    make_endo,
    primitive_element,
    unit_subgroup_elements,
)


def test_gf9_modulus_has_no_root():
    f = build_field(3, 2, [1, 0, 1])  # x^2 + 1
    # oracle: scan Z_3 for roots
    assert all((c * c + 1) % 3 != 0 for c in range(3))
    assert f.order == 9


def test_gf3_default_modulus_is_x():
    f = build_field(3, 1)
    assert f.modulus == (0, 1)


def test_reducible_modulus_reports_factor():
    with pytest.raises(IrreducibilityError) as err:
        build_field(2, 2, [1, 0, 1])  # x^2 + 1 = (x+1)^2 over Z_2
    assert err.value.factor == (1, 1)
    assert err.value.cofactor == (1, 1)


def test_default_moduli_are_deterministic():
    assert build_field(3, 2).modulus == (1, 0, 1)
    assert build_field(2, 2).modulus == (1, 1, 1)
    assert build_field(2, 4).modulus == (1, 1, 0, 0, 1)
    assert build_field(2, 4).modulus == build_field(2, 4).modulus


def test_gf9_x_squared_is_two(gf9):
    x = gf9.element_at(3)  # coefficient vector (0,1)
    assert gf9.mul(x, x) == (2, 0)  # x^2 = -1 = 2 under x^2+1


def test_gf3_inverse_of_two():
    f = build_field(3, 1)
    assert f.inv((2,)) == (2,)


def test_multiplication_by_one_fixes_everything(gf9):
    for a in gf9.elements():
        assert gf9.mul(a, gf9.one) == a


def test_inverse_of_zero_rejected(gf9):
    with pytest.raises(InvalidParameterError):
        gf9.inv(gf9.zero)


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2), (5, 1)])
def test_field_axioms_exhaustively(p, n):
    f = build_field(p, n)
    elems = list(f.elements())
    for a in elems:
        assert f.add(a, f.neg(a)) == f.zero
        if a != f.zero:
            assert f.mul(a, f.inv(a)) == f.one
        for b in elems:
            assert f.mul(a, b) == f.mul(b, a)
            for c in elems:
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_additive_group_matches_elementary_abelian(gf9):
    assert additive_group(gf9).array.tolist() == build_elementary_abelian(3, 2).array.tolist()


def test_gf2_additive_group_is_z2():
    g = additive_group(build_field(2, 1))
    assert g.array.tolist() == [[0, 1], [1, 0]]


def test_gf4_characteristic_two():
    f = build_field(2, 2)
    assert all(f.add(a, a) == f.zero for a in f.elements())


def test_frobenius_is_additive(gf9):
    group = additive_group(gf9)
    table = [gf9.element_index(gf9.pow(gf9.element_at(i), 3)) for i in range(9)]
    make_endo(group, table)  # raises if not a homomorphism


def test_unit_subgroup_of_index_two_mod_7():
    f = build_field(7, 1)
    squares = unit_subgroup_elements(f, 2)
    assert sorted(f.element_index(a) for a in squares) == [1, 2, 4]


def test_unit_subgroup_full_and_bad_index(gf9):
    units = unit_subgroup_elements(gf9, 1)
    assert len(units) == 8
    with pytest.raises(InvalidParameterError):
        unit_subgroup_elements(gf9, 3)


@pytest.mark.parametrize("p,n,d", [(3, 2, 2), (3, 2, 4), (2, 4, 5), (13, 1, 2)])
def test_unit_subgroups_are_multiplicatively_closed(p, n, d):
    f = build_field(p, n)
    sub = unit_subgroup_elements(f, d)
    assert len(sub) == (f.order - 1) // d
    members = set(sub)
    for a, b in itertools.product(sub, repeat=2):
        assert f.mul(a, b) in members


def test_primitive_element_is_deterministic(gf9):
    g = primitive_element(gf9)
    assert gf9.element_index(g) == 4  # x+1 is the first primitive under x^2+1
    assert gf9.multiplicative_order(g) == 8


def test_primitive_when_modulus_changes_x_order():
    bumpy = build_field(3, 2, [2, 1, 1])  # x^2 + x + 2
    x = bumpy.element_at(3)
    assert bumpy.multiplicative_order(x) == 8  # x is primitive here
    plain = build_field(3, 2, [1, 0, 1])
    assert plain.multiplicative_order(plain.element_at(3)) == 4
