"""Endomorphisms and automorphism sets on a finite group.

Maps are stored as full value tables.  Every structural predicate is exact,
and each one that quantifies over a group checks only a greedy generating
set of it (``FiniteGroup.generators``, ``automorphism_generators``), which
gives the same verdict: the homomorphism check costs O(v log v), closure
|Ψ| log2 |Ψ| compositions.  Where a witness is reported, a failed generator
check is followed by the full scan, so the witness is the first one in scan
order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    HomomorphismError,
    HypothesisError,
    InvalidParameterError,
    TheoremViolationError,
)
from .fields import Element, FiniteField, additive_group, multiplication_map
from .groups import FiniteGroup, elementary_abelian_table, linear_map_table


def _hom_witness(group: FiniteGroup, table: Sequence[int]) -> Optional[tuple[int, int]]:
    """First (x, y) with f(x+y) != f(x)+f(y), or None.

    The y with f(x+y) = f(x)+f(y) for all x are closed under addition, so f
    is a homomorphism once that holds for every generator y of the group:
    one gather of the generators' columns.  Only when it fails does the
    O(v^2) array compare run, to name the first pair.
    """
    arr, f = group.array, np.array(table)
    gens = list(group.generators)
    if np.array_equal(f[arr[:, gens]], arr[f[:, None], f[gens]]):
        return None
    x, y = np.argwhere(f[arr] != arr[f[:, None], f])[0]
    return (int(x), int(y))


class Endomorphism:
    """An additive endomorphism, validated against the group table."""

    def __init__(self, group: FiniteGroup, table: Sequence[int]):
        tab = tuple(int(t) for t in table)
        if len(tab) != group.order or any(t not in range(group.order) for t in tab):
            raise InvalidParameterError("map table must list one element index per element")
        witness = _hom_witness(group, tab)
        if witness is not None:
            x, y = witness
            raise HomomorphismError(witness, f"f({x}+{y}) != f({x})+f({y})")
        self.group = group
        self.table = tab

    @classmethod
    def _trusted(cls, group: FiniteGroup, table: Sequence[int]) -> "Endomorphism":
        # For compositions and inverses of already-validated maps.
        obj = object.__new__(cls)
        obj.group = group
        obj.table = tuple(table)
        return obj

    def __call__(self, x: int) -> int:
        return self.table[x]

    def compose(self, other: "Endomorphism") -> "Endomorphism":
        """self after other."""
        if other.group is not self.group:
            raise InvalidParameterError("cannot compose maps on different groups")
        t = self.table
        return Endomorphism._trusted(self.group, tuple(t[o] for o in other.table))

    @property
    def is_zero(self) -> bool:
        return all(t == 0 for t in self.table)

    @property
    def is_identity(self) -> bool:
        return all(t == x for x, t in enumerate(self.table))

    @property
    def is_bijective(self) -> bool:
        return len(set(self.table)) == self.group.order

    def inverse(self) -> "Endomorphism":
        if not self.is_bijective:
            raise InvalidParameterError("cannot invert a non-bijective map")
        inv = [0] * self.group.order
        for x, y in enumerate(self.table):
            inv[y] = x
        return Endomorphism._trusted(self.group, tuple(inv))

    def pow(self, k: int) -> "Endomorphism":
        if k < 0:
            return self.inverse().pow(-k)
        out = identity_endo(self.group)
        for _ in range(k):
            out = self.compose(out)
        return out

    def order(self) -> int:
        if not self.is_bijective:
            raise InvalidParameterError("only bijective maps return to the identity")
        n, acc = 1, self
        while not acc.is_identity:
            acc = acc.compose(self)
            n += 1
        return n

    def __eq__(self, other) -> bool:
        if not isinstance(other, Endomorphism):
            return NotImplemented
        return self.group is other.group and self.table == other.table

    def __hash__(self) -> int:
        return hash(self.table)

    def __repr__(self) -> str:
        return f"Endomorphism({list(self.table)!r})"


def identity_endo(group: FiniteGroup) -> Endomorphism:
    return Endomorphism._trusted(group, tuple(range(group.order)))


def zero_endo(group: FiniteGroup) -> Endomorphism:
    return Endomorphism._trusted(group, (0,) * group.order)


def make_endo(group: FiniteGroup, table: Sequence[int]) -> Endomorphism:
    """Validate a raw table as an endomorphism (witness pair on failure)."""
    return Endomorphism(group, table)


def scalar_endo(group: FiniteGroup, c: int) -> Endomorphism:
    """x -> c*x (c-fold sum) on a commutative group."""
    if not group.commutative:
        raise InvalidParameterError("scalar maps are only additive on commutative groups")
    if c < 0:
        raise InvalidParameterError("scalar must be nonnegative")
    arr = group.array
    acc, base = np.zeros(group.order, dtype=np.int64), np.arange(group.order)
    while c:
        if c & 1:
            acc = arr[acc, base]
        base = arr[base, base]
        c >>= 1
    return Endomorphism(group, acc.tolist())


def _elementary_abelian_shape(group: FiniteGroup) -> tuple[int, int]:
    """(p, k) if the group has the canonical (Z_p)^k table, else an error."""
    v = group.order
    p = 2
    while v % p:
        p += 1
    k, m = 0, v
    while m % p == 0:
        m //= p
        k += 1
    if m != 1:
        raise InvalidParameterError(f"group order {v} is not a prime power")
    if not (group.array == elementary_abelian_table(p, k)).all():
        raise InvalidParameterError(
            "group table does not match the canonical elementary abelian encoding")
    return (p, k)


def matrix_endo(group: FiniteGroup, rows: Sequence[Sequence[int]]) -> Endomorphism:
    """Digit-vector map x -> M.x mod p on a canonical elementary abelian group."""
    p, k = _elementary_abelian_shape(group)
    mat = [tuple(int(e) % p for e in row) for row in rows]
    if len(mat) != k or any(len(r) != k for r in mat):
        raise InvalidParameterError(f"matrix must be {k}x{k} for this group")
    return Endomorphism(group, linear_map_table(p, k, mat).tolist())


def field_mult_endo(field: FiniteField, a: Element) -> Endomorphism:
    """Left multiplication by ``a`` on the additive group of the field."""
    return Endomorphism(additive_group(field), multiplication_map(field, a))


@dataclass(frozen=True)
class MapCheck:
    """A raw self-map plus the verdicts of the endomorphism/bijectivity scans."""

    group: FiniteGroup
    table: tuple[int, ...]
    is_endomorphism: bool
    is_bijective: bool
    witness: Optional[tuple[int, int]]  # homomorphism failure pair, if any


def one_minus(alpha: Endomorphism) -> MapCheck:
    """The pointwise map x -> x - alpha(x), with validation flags.

    The result is returned even when it is not an endomorphism, because the
    segment constructions quantify over exactly that situation.
    """
    g = alpha.group
    table = tuple(g.array[np.arange(g.order), np.array(g.negs)[list(alpha.table)]].tolist())
    witness = _hom_witness(g, table)
    return MapCheck(g, table, witness is None, len(set(table)) == g.order, witness)


def _ensure_same_group(maps: Sequence[Endomorphism]) -> FiniteGroup:
    if not maps:
        raise InvalidParameterError("empty map set")
    group = maps[0].group
    if any(m.group is not group for m in maps):
        raise InvalidParameterError("all maps must live on the same group")
    return group


def dedup_endos(maps: Sequence[Endomorphism]) -> tuple[Endomorphism, ...]:
    """Drop duplicate tables, preserving first-seen order (set semantics)."""
    _ensure_same_group(maps)
    seen: dict[tuple, Endomorphism] = {}
    for m in maps:
        seen.setdefault(m.table, m)
    return tuple(seen.values())


def closure(gens: Sequence[Endomorphism]) -> tuple[Endomorphism, ...]:
    """Composition closure of bijective generators, sorted by value table."""
    group = _ensure_same_group(gens)
    for g in gens:
        if not g.is_bijective:
            raise InvalidParameterError("closure generators must be bijective")
    seen = {identity_endo(group).table: identity_endo(group)}
    frontier = []
    for g in gens:
        if g.table not in seen:
            seen[g.table] = g
            frontier.append(g)
    gen_list = list(dict.fromkeys(gens, None))
    while frontier:
        nxt = []
        for a in gen_list:
            for b in frontier:
                c = a.compose(b)
                if c.table not in seen:
                    seen[c.table] = c
                    nxt.append(c)
        frontier = nxt
    return tuple(sorted(seen.values(), key=lambda e: e.table))


def automorphism_generators(maps: Sequence[Endomorphism]) -> tuple[Endomorphism, ...]:
    """Check the list is a duplicate-free group of automorphisms, and return
    greedy generators of it.

    Each generator is the first map, in list order, not yet reached from the
    identity by composing on the right with the generators before it; each
    one at least doubles the reached subgroup, so there are at most
    log2 |maps| of them.  The list holds the identity and is closed under
    composition exactly when every map reached this way is in the list:
    T ∘ A ⊆ T with the identity in T gives T = ⟨A⟩.  Costs |maps| times the
    number of generators compositions.
    """
    group = _ensure_same_group(maps)
    tables = {m.table for m in maps}
    if len(tables) != len(maps):
        raise InvalidParameterError("automorphism group lists one map per element")
    identity = identity_endo(group)
    if identity.table not in tables:
        raise InvalidParameterError("automorphism group must contain the identity")
    for m in maps:
        if not m.is_bijective:
            raise InvalidParameterError("automorphism group members must be bijective")
    reached = {identity.table}
    found = [identity]
    gens: list[Endomorphism] = []
    for m in maps:
        if m.table in reached:
            continue
        # Maps found so far are closed under the earlier generators, so they
        # need only the new one; maps found from here on need them all.
        queue = [x.compose(m) for x in found]
        gens.append(m)
        while queue:
            y = queue.pop()
            if y.table in reached:
                continue
            if y.table not in tables:
                raise InvalidParameterError("map list is not closed under composition")
            reached.add(y.table)
            found.append(y)
            queue.extend(y.compose(g) for g in gens)
    return tuple(gens)


def ensure_automorphism_group(maps: Sequence[Endomorphism]) -> FiniteGroup:
    """Check the list is a duplicate-free group of automorphisms."""
    automorphism_generators(maps)
    return maps[0].group


@dataclass(frozen=True)
class FpfWitness:
    """Two distinct maps agreeing on a nonzero element."""

    x: int
    first: Endomorphism
    second: Endomorphism


def fpf_failure(maps: Sequence[Endomorphism]) -> Optional[FpfWitness]:
    """Witness against |S(x)| = |S| on the nonzero elements, or None."""
    maps = dedup_endos(maps)
    group = maps[0].group
    for x in group.nonzero():
        seen: dict[int, Endomorphism] = {}
        for m in maps:
            val = m.table[x]
            if val in seen:
                return FpfWitness(x, seen[val], m)
            seen[val] = m
    return None


def is_fpf(maps: Sequence[Endomorphism]) -> bool:
    return fpf_failure(maps) is None


def require_fpf(maps: Sequence[Endomorphism], condition: str) -> None:
    """Raise HypothesisError(condition) with an (x, first, second) witness
    unless the maps are fixed-point-free."""
    bad = fpf_failure(maps)
    if bad is not None:
        raise HypothesisError(condition, {"x": bad.x, "first": list(bad.first.table),
                                          "second": list(bad.second.table)})


def orbit(maps: Sequence[Endomorphism], x: int) -> tuple[int, ...]:
    """S(x) = { f(x) : f in S } as a sorted duplicate-free tuple."""
    return tuple(sorted({m.table[x] for m in maps}))


def cyclic_generated(alpha: Endomorphism) -> tuple[Endomorphism, ...]:
    """The cyclic group of compositions generated by a bijective map."""
    if not alpha.is_bijective:
        raise InvalidParameterError("generator must be bijective")
    out = [identity_endo(alpha.group)]
    acc = alpha
    while not acc.is_identity:
        out.append(acc)
        acc = acc.compose(alpha)
    return tuple(out)


def center(phi: Sequence[Endomorphism]) -> tuple[Endomorphism, ...]:
    """The members that commute with every generator, hence with all of Φ."""
    gens = automorphism_generators(phi)
    members = [a for a in phi
               if all(a.compose(b).table == b.compose(a).table for b in gens)]
    return tuple(sorted(members, key=lambda e: e.table))


def normalizes(alpha: Endomorphism, sub: Sequence[Endomorphism]) -> bool:
    """alpha H alpha^-1 == H, elementwise on tables.

    Conjugation is a bijective homomorphism, so it maps H onto H once it
    maps each generator of H into H.
    """
    gens = automorphism_generators(sub)
    if not alpha.is_bijective:
        raise InvalidParameterError("conjugating map must be bijective")
    inv = alpha.inverse()
    tables = {h.table for h in sub}
    return all(alpha.compose(h).compose(inv).table in tables for h in gens)


def centralizes(alpha: Endomorphism, sub: Sequence[Endomorphism]) -> bool:
    """alpha commutes with every member of H, checked on its generators."""
    gens = automorphism_generators(sub)
    return all(alpha.compose(h).table == h.compose(alpha).table for h in gens)


def is_cyclic(phi: Sequence[Endomorphism]) -> bool:
    ensure_automorphism_group(phi)
    return any(a.order() == len(phi) for a in phi)


#: |Phi / Z(Phi)| values compatible with sets closed under alpha -> 1 - alpha.
RECOGNIZED_QUOTIENT_ORDERS = frozenset({1, 12, 24, 60, 120})


@dataclass(frozen=True)
class ClassificationReport:
    """Order-level structure report; makes no isomorphism claim."""

    order: int
    center_order: int
    quotient_order: int
    member: bool


def classification_check(phi: Sequence[Endomorphism]) -> ClassificationReport:
    z = center(phi)
    quotient = len(phi) // len(z)
    return ClassificationReport(len(phi), len(z), quotient,
                                quotient in RECOGNIZED_QUOTIENT_ORDERS)


def halving_endo(group: FiniteGroup) -> Endomorphism:
    """The inverse of doubling x -> x+x, where doubling is a bijection."""
    if not group.commutative:
        raise InvalidParameterError("halving is only defined on commutative groups")
    doubling = np.diagonal(group.array)
    if len(np.unique(doubling)) != group.order:
        raise InvalidParameterError("doubling is not a bijection, no halving map exists")
    inv = np.empty(group.order, dtype=np.int64)
    inv[doubling] = np.arange(group.order)
    return Endomorphism(group, inv.tolist())


def order6_segment_set(phi: Sequence[Endomorphism]) -> tuple[Endomorphism, ...]:
    """Zero, identity, and every order-6 member of a fixed-point-free group.

    Verifies that the set is stable under alpha -> 1 - alpha before
    returning it.
    """
    group = ensure_automorphism_group(phi)
    require_fpf(phi, "Φ fpf")
    if len(phi) % 6 != 0:
        raise HypothesisError("6 divides |Φ|", {"order": len(phi)})
    sixes = sorted((a for a in phi if a.order() == 6), key=lambda e: e.table)
    out = [zero_endo(group), identity_endo(group)] + sixes
    tables = {m.table for m in out}
    for m in out:
        if one_minus(m).table not in tables:
            raise TheoremViolationError(
                "S = 1-S", {"map": list(m.table)},
                "order-6 construction produced a set not stable under 1 - alpha")
    return tuple(out)
