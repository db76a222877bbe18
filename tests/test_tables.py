"""The mixed-radix numpy tables against the comprehension builders they
replaced, and the canonical (Z_p)^k check of ``matrix_endo`` against the
pair-by-pair loop."""

from __future__ import annotations

import itertools
import random

import pytest

from sdfam import (
    FiniteGroup,
    InvalidParameterError,
    build_cyclic,
    build_direct_product,
    build_elementary_abelian,
    build_from_cayley,
    matrix_endo,
)
from sdfam import groups
from sdfam.groups import MAX_ORDER, digits_of, index_of_digits, is_prime

import support

PRIME_POWERS = [(p, k) for p in range(2, MAX_ORDER + 1) if is_prime(p)
                for k in range(1, MAX_ORDER.bit_length()) if p ** k <= MAX_ORDER]


@pytest.mark.parametrize("p, k", PRIME_POWERS, ids=[f"{p}^{k}" for p, k in PRIME_POWERS])
def test_elementary_abelian_table_matches_the_comprehension(p, k):
    got = build_elementary_abelian(p, k).array.tolist()
    # For k = 1 the digit comprehension reduces to (i + j) % p entry by entry;
    # the faster cyclic comprehension keeps the 97 prime orders cheap.
    want = support.naive_elementary_abelian_table(p, k) if k > 1 else support.naive_cyclic_table(p)
    assert got == want


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 31])
def test_digit_and_cyclic_comprehensions_agree_on_prime_orders(p):
    assert support.naive_elementary_abelian_table(p, 1) == support.naive_cyclic_table(p)


@pytest.mark.parametrize("n", [2, 6, 12, 97, 256, 509])
def test_cyclic_table_matches_the_comprehension(n):
    assert build_cyclic(n).array.tolist() == support.naive_cyclic_table(n)


FACTORS = {
    "Z2": lambda: build_cyclic(2),
    "Z3": lambda: build_cyclic(3),
    "Z4": lambda: build_cyclic(4),
    "Z5": lambda: build_cyclic(5),
    "S3": lambda: support.symmetric_group(3),
    "D4": support.dihedral_square,
    "Q8": support.quaternion_group,
    "A4": support.alternating_group_4,
}
PRODUCTS = ([(a, b) for a, b in itertools.product(FACTORS, repeat=2)]
            + [("S3", "D4", "Z8"), ("Q8", "A4", "Z2"), ("Z8", "Z56"), ("Z2", "S3", "Z2", "Z3"),
               ("A4", "Z2", "Q8"), ("D4", "D4", "Z5")])


def _factor(name):
    return FACTORS[name]() if name in FACTORS else build_cyclic(int(name[1:]))


@pytest.mark.parametrize("names", PRODUCTS, ids=["x".join(n) for n in PRODUCTS])
def test_direct_product_table_matches_the_comprehension(names):
    factors = [_factor(n) for n in names]
    got = build_direct_product(factors)
    assert got.array.tolist() == support.naive_direct_product_table(factors)
    assert got.commutative == all(g.commutative for g in factors)


def test_elementary_abelian_builds_one_group(monkeypatch):
    built = []
    init = FiniteGroup.__init__

    def counting(self, table, **kw):
        built.append(len(table))
        init(self, table, **kw)

    monkeypatch.setattr(groups.FiniteGroup, "__init__", counting)
    build_elementary_abelian(3, 4)
    assert built == [81]


def _assert_same_verdict(group):
    """matrix_endo accepts (with the identity matrix) exactly where the loop
    finds the canonical table, and otherwise raises the loop's message."""
    try:
        p, k = support.naive_elementary_abelian_shape(group)
    except InvalidParameterError as exc:
        with pytest.raises(InvalidParameterError) as info:
            matrix_endo(group, [[1]])
        assert str(info.value) == str(exc)
        return str(exc)
    assert matrix_endo(group, [[int(r == c) for c in range(k)] for r in range(k)]).is_identity
    return (p, k)


CANONICAL = [(p, k) for p, k in PRIME_POWERS if p ** k <= 128]


@pytest.mark.parametrize("p, k", CANONICAL, ids=[f"{p}^{k}" for p, k in CANONICAL])
def test_matrix_endo_accepts_canonical_tables_like_the_loop(p, k):
    assert _assert_same_verdict(build_elementary_abelian(p, k)) == (p, k)


def _relabeled(group, perm):
    """The table of ``group`` with element x renamed perm[x]; perm[0] = 0."""
    v = group.order
    table = [[0] * v for _ in range(v)]
    sums = group.array.tolist()
    for x in range(v):
        for y in range(v):
            table[perm[x]][perm[y]] = perm[sums[x][y]]
    return build_from_cayley(table)


@pytest.mark.parametrize("p, k", [(2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (2, 6), (7, 2)])
def test_matrix_endo_judges_relabelings_fixing_zero_like_the_loop(p, k):
    rng = random.Random(p * 100 + k)
    base = build_elementary_abelian(p, k)
    verdicts = set()
    for _ in range(12):
        rest = list(range(1, base.order))
        rng.shuffle(rest)
        verdicts.add(_assert_same_verdict(_relabeled(base, [0] + rest)) == (p, k))
    assert False in verdicts


def _random_invertible(rng, p, k):
    while True:
        m = [[rng.randrange(p) for _ in range(k)] for _ in range(k)]
        images = {tuple(sum(m[r][c] * d[c] for c in range(k)) % p for r in range(k))
                  for d in itertools.product(range(p), repeat=k)}
        if len(images) == p ** k:
            return m


@pytest.mark.parametrize("p, k", [(2, 3), (3, 2), (2, 5), (5, 2), (3, 3), (2, 7)])
def test_gl_relabelings_keep_the_table_and_are_accepted(p, k):
    rng = random.Random(p * 1000 + k)
    base = build_elementary_abelian(p, k)
    for _ in range(4):
        m = _random_invertible(rng, p, k)
        perm = [index_of_digits([sum(m[r][c] * d[c] for c in range(k)) % p for r in range(k)], p)
                for d in (digits_of(x, p, k) for x in base.elements())]
        relabeled = _relabeled(base, perm)
        assert relabeled.array.tolist() == base.array.tolist()
        assert _assert_same_verdict(relabeled) == (p, k)
        assert matrix_endo(relabeled, m).table == tuple(perm)


@pytest.mark.parametrize("make", [
    lambda: build_cyclic(4), lambda: build_cyclic(8), lambda: build_cyclic(9),
    lambda: build_cyclic(25), lambda: build_cyclic(2),
    lambda: build_direct_product([build_cyclic(2), build_cyclic(4)]),
    lambda: build_direct_product([build_cyclic(4), build_cyclic(2)]),
    lambda: build_direct_product([build_cyclic(2)] * 3),
    lambda: build_direct_product([build_cyclic(3), build_elementary_abelian(3, 2)]),
    support.dihedral_square, support.quaternion_group,
], ids=["Z4", "Z8", "Z9", "Z25", "Z2", "Z2xZ4", "Z4xZ2", "Z2^3", "Z3x(Z3)^2", "D4", "Q8"])
def test_prime_power_cyclic_and_product_groups_like_the_loop(make):
    _assert_same_verdict(make())


@pytest.mark.parametrize("make", [
    lambda: build_cyclic(6), lambda: build_cyclic(12), lambda: build_cyclic(510),
    lambda: support.symmetric_group(3), support.alternating_group_4,
    lambda: build_direct_product([build_cyclic(2), build_cyclic(3)]),
], ids=["Z6", "Z12", "Z510", "S3", "A4", "Z2xZ3"])
def test_orders_that_are_not_prime_powers_are_rejected_like_the_loop(make):
    assert "not a prime power" in _assert_same_verdict(make())
