"""GF(p^n) arithmetic on polynomial residues.

Field elements are coefficient tuples of length n, low degree first, over
Z_p.  The index encoding ``sum(c_i * p^i)`` matches the digit encoding of
``build_elementary_abelian``, so additive-group indices and field elements
translate back and forth without a conversion table.

Products of single elements are polynomial products reduced by the modulus.
Whole multiplication maps x -> a*x, which the endomorphisms and the unit
subgroups need, are built as Z_p-linear maps instead
(``multiplication_map``): the n products a*x^j give the map's n x n matrix,
and one array product of that matrix with the digits of all q elements gives
every image, n field products and O(q n^2) array work in place of q
products.  Multiplicative orders and unit subgroups walk such a map from
the index of 1.  No log/antilog tables are kept: x is not primitive under
several default moduli (GF(9), GF(25), GF(49), GF(125), GF(256), GF(512)),
so they would need a primitive-element search of their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional, Sequence

from .errors import InvalidParameterError, IrreducibilityError
from .groups import (FiniteGroup, build_elementary_abelian, check_power_cap, digits_of,
                     index_of_digits, is_prime, linear_map_table)

Element = tuple  # length-n coefficient tuple over Z_p


def _poly_trim(poly: Sequence[int]) -> tuple[int, ...]:
    out = list(poly)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_divmod(a: Sequence[int], b: Sequence[int], p: int) -> tuple[tuple, tuple]:
    a = list(_poly_trim(a))
    b = _poly_trim(b)
    inv_lead = pow(b[-1], -1, p)
    quot = [0] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and a:
        shift = len(a) - len(b)
        factor = (a[-1] * inv_lead) % p
        quot[shift] = factor
        for i, bi in enumerate(b):
            a[shift + i] = (a[shift + i] - factor * bi) % p
        a = list(_poly_trim(a))
    return _poly_trim(quot), tuple(a)


def _irreducible_witness(modulus: Sequence[int], p: int) -> Optional[tuple[tuple, tuple]]:
    """A (factor, cofactor) pair if the monic modulus splits, else None.

    Trial division against every monic polynomial of degree 1..deg/2.
    """
    n = len(modulus) - 1
    for deg in range(1, n // 2 + 1):
        for enc in range(p ** deg):
            cand = digits_of(enc, p, deg) + (1,)
            quot, rem = _poly_divmod(modulus, cand, p)
            if not rem:
                return cand, quot
    return None


def _default_modulus(p: int, n: int) -> tuple[int, ...]:
    # Smallest monic irreducible of degree n, ordered by the index encoding
    # of the non-leading coefficients; deterministic across runs.
    for enc in range(p ** n):
        cand = digits_of(enc, p, n) + (1,)
        if _irreducible_witness(cand, p) is None:
            return cand
    raise AssertionError("no irreducible polynomial found")  # unreachable


@dataclass(frozen=True)
class FiniteField:
    """GF(p^n) as Z_p[x] modulo a monic irreducible polynomial."""

    p: int
    n: int
    modulus: tuple[int, ...]  # length n+1, low degree first, monic

    @property
    def order(self) -> int:
        return self.p ** self.n

    @property
    def zero(self) -> Element:
        return (0,) * self.n

    @property
    def one(self) -> Element:
        return (1,) + (0,) * (self.n - 1)

    def element_at(self, index: int) -> Element:
        if index not in range(self.order):
            raise InvalidParameterError(f"element index {index} outside [0,{self.order})")
        return digits_of(index, self.p, self.n)

    def element_index(self, a: Element) -> int:
        return index_of_digits(self._check(a), self.p)

    def elements(self) -> Iterator[Element]:
        return (self.element_at(i) for i in range(self.order))

    def _check(self, a: Sequence[int]) -> Element:
        a = tuple(int(c) for c in a)
        if len(a) != self.n or any(c not in range(self.p) for c in a):
            raise InvalidParameterError(f"{a!r} is not a coefficient vector over GF({self.p}^{self.n})")
        return a

    def add(self, a: Element, b: Element) -> Element:
        a, b = self._check(a), self._check(b)
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a: Element) -> Element:
        return tuple((-x) % self.p for x in self._check(a))

    def sub(self, a: Element, b: Element) -> Element:
        return self.add(a, self.neg(b))

    def mul(self, a: Element, b: Element) -> Element:
        a, b = self._check(a), self._check(b)
        prod = _poly_mul(a, b, self.p)
        _, rem = _poly_divmod(prod, self.modulus, self.p) if prod else ((), ())
        return tuple(rem) + (0,) * (self.n - len(rem))

    def inv(self, a: Element) -> Element:
        a = self._check(a)
        if a == self.zero:
            raise InvalidParameterError("division by zero in the field")
        return self.pow(a, self.order - 2)

    def pow(self, a: Element, e: int) -> Element:
        a = self._check(a)
        if e < 0:
            a, e = self.inv(a), -e
        out = self.one
        base = a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def multiplicative_order(self, a: Element) -> int:
        a = self._check(a)
        if a == self.zero:
            raise InvalidParameterError("the zero element has no multiplicative order")
        step = multiplication_map(self, a)
        n, i = 1, step[1]
        while i != 1:
            i = step[i]
            n += 1
        return n


def build_field(p: int, n: int, modulus: Optional[Sequence[int]] = None) -> FiniteField:
    """GF(p^n); picks the deterministic smallest irreducible modulus if omitted.
    p^n is held to the group-order cap before any other check or search."""
    check_power_cap(p, n)
    if not is_prime(p):
        raise InvalidParameterError(f"{p} is not prime")
    if n < 1:
        raise InvalidParameterError(f"field degree must be positive, got {n}")
    if modulus is None:
        mod = _default_modulus(p, n)
    else:
        mod = tuple(int(c) % p for c in modulus)
        if len(mod) != n + 1 or mod[-1] != 1:
            raise InvalidParameterError(f"modulus must be monic of degree {n}")
        witness = _irreducible_witness(mod, p)
        if witness is not None:
            factor, cofactor = witness
            raise IrreducibilityError(factor, cofactor)
    return FiniteField(p, n, mod)


def multiplication_map(field: FiniteField, a: Element) -> tuple[int, ...]:
    """The index of a*x for every x, in index order.

    x -> a*x is Z_p-linear: column j of its matrix holds the coefficients of
    a*x^j, the image of the basis element of index p^j, so n field products
    and one groups.linear_map_table pass give every image.
    """
    a = field._check(a)
    cols = [field.mul(a, field.element_at(field.p ** j)) for j in range(field.n)]
    return tuple(linear_map_table(field.p, field.n, list(zip(*cols))).tolist())


@lru_cache(maxsize=None)
def additive_group(field: FiniteField) -> FiniteGroup:
    """The additive group of the field; index i corresponds to element_at(i)."""
    return build_elementary_abelian(field.p, field.n)


def primitive_element(field: FiniteField) -> Element:
    """The first element in index order whose multiplicative order is p^n - 1."""
    target = field.order - 1
    for i in range(1, field.order):
        a = field.element_at(i)
        if field.multiplicative_order(a) == target:
            return a
    raise AssertionError("no primitive element found")  # unreachable for a true field


def unit_subgroup_elements(field: FiniteField, d: int) -> tuple[Element, ...]:
    """The unique multiplicative subgroup of index d, as {g^(d*i)} for the
    deterministic primitive element g.  Returned sorted by element index."""
    q1 = field.order - 1
    if d < 1 or q1 % d != 0:
        raise InvalidParameterError(f"{d} does not divide {q1}")
    step = multiplication_map(field, field.pow(primitive_element(field), d))
    elems, i = [1], step[1]
    while i != 1:
        elems.append(i)
        i = step[i]
    assert len(elems) == q1 // d
    return tuple(field.element_at(i) for i in sorted(elems))
