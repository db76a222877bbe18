"""Finite groups in additive notation, backed by validated Cayley tables.

Elements are dense indices ``0 .. order-1`` and index 0 is always the
identity.  All group axioms are checked at construction time, exactly:
identity and inverses by whole-table array compares, O(v^2), and
associativity by Light's test over a greedy generating set of at most
log2(v) elements, O(v^2 log v) with numpy under a documented order cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import GroupAxiomError, InvalidParameterError

#: Default upper bound on group order; keeps eager validation under a second.
MAX_ORDER = 512


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class FiniteGroup:
    """A finite (not necessarily abelian) group written additively.

    The constructor validates the full addition table: index 0 must be a
    two-sided identity, every element needs a two-sided inverse, and the
    table must be associative (Light's test over ``generators``, which is
    as strict as checking every triple).

    ``array`` is the table as a read-only (v, v) int64 array, the one copy
    every pass reads; ``add``, ``neg`` and ``sub`` read single entries.  The
    builders hand over their int64 arrays; other tables are read entry by
    entry with int().

    ``generators`` is a greedy generating set: each member is the smallest
    element not reached from 0 by right additions of the members before it.
    Each one at least doubles the reached subgroup, so there are at most
    log2(order) of them.
    """

    def __init__(self, table: Sequence[Sequence[int]]):
        v = len(table)
        if v < 2:
            raise InvalidParameterError(f"group order must be at least 2, got {v}")
        check_order_cap(v)
        if any(len(row) != v for row in table):
            raise InvalidParameterError(f"addition table must be {v}x{v}")
        if isinstance(table, np.ndarray) and table.dtype == np.int64 and table.ndim == 2:
            arr = table.copy()  # a builder's table
        else:
            try:
                arr = np.array([tuple(map(int, row)) for row in table], dtype=np.int64)
            except OverflowError:
                raise InvalidParameterError(f"table entries must lie in [0,{v})") from None
        arr.flags.writeable = False
        negs, commutative, generators = _validate_table(arr, v)
        self.order = v
        self.array = arr
        self.negs = negs
        self.commutative = commutative
        self.generators = generators

    def add(self, x: int, y: int) -> int:
        return self.array.item(x, y)

    def neg(self, x: int) -> int:
        return self.negs[x]

    def sub(self, x: int, y: int) -> int:
        """x + (-y)."""
        return self.array.item(x, self.negs[y])

    def elements(self) -> range:
        return range(self.order)

    def nonzero(self) -> range:
        """All elements except the identity."""
        return range(1, self.order)

    def __repr__(self) -> str:
        kind = "abelian" if self.commutative else "non-abelian"
        return f"FiniteGroup(order={self.order}, {kind})"


def _validate_table(arr: np.ndarray, v: int) -> tuple:
    if arr.min() < 0 or arr.max() >= v:
        x, y = map(int, np.argwhere((arr < 0) | (arr >= v))[0])
        raise InvalidParameterError(f"table entry at ({x},{y}) is outside [0,{v})")

    idx = np.arange(v)
    if not np.array_equal(arr[0], idx):
        x = int(np.flatnonzero(arr[0] != idx)[0])
        raise GroupAxiomError("identity", (0, x), f"0 + {x} = {int(arr[0, x])}, expected {x}")
    if not np.array_equal(arr[:, 0], idx):
        x = int(np.flatnonzero(arr[:, 0] != idx)[0])
        raise GroupAxiomError("identity", (x, 0), f"{x} + 0 = {int(arr[x, 0])}, expected {x}")

    # The right inverse of x is the first zero of row x; it must be a left one too.
    zero = arr == 0
    negs = zero.argmax(axis=1)
    bad = ~zero[idx, negs] | (arr[negs, idx] != 0)
    if bad.any():
        x = int(np.flatnonzero(bad)[0])
        y = int(negs[x])
        if arr[x, y] != 0:
            raise GroupAxiomError("inverse", (x,), f"element {x} has no right inverse")
        raise GroupAxiomError("inverse", (x, y), f"{x} + {y} = 0 but {y} + {x} = {int(arr[y, x])}")

    generators = _greedy_generators(arr)
    # Light's test: the a with (x+a)+y = x+(a+y) for all x, y are closed under
    # addition, so checking the generators checks every triple.
    if not all(np.array_equal(arr[arr[:, a]], arr[:, arr[a]]) for a in generators):
        # Name the first failing triple, in (x, y, z) order, as the full scan does.
        for x in range(v):
            lhs = arr[arr[x]]
            rhs = arr[x][arr]
            if not np.array_equal(lhs, rhs):
                y, z = map(int, np.argwhere(lhs != rhs)[0])
                raise GroupAxiomError(
                    "associativity", (x, y, z),
                    f"({x}+{y})+{z} = {int(lhs[y, z])} but {x}+({y}+{z}) = {int(rhs[y, z])}")

    return tuple(negs.tolist()), bool(np.array_equal(arr, arr.T)), generators


def _closure(arr: np.ndarray, gens: Iterable[int]) -> set[int]:
    """The elements reached from 0 by right additions of ``gens``, read
    from the generators' columns of the table as lists."""
    cols = arr[:, sorted(gens)].T.tolist()
    elems, frontier = {0}, [0]
    while frontier:
        x = frontier.pop()
        for col in cols:
            if col[x] not in elems:
                elems.add(col[x])
                frontier.append(col[x])
    return elems


def _greedy_generators(arr: np.ndarray) -> tuple[int, ...]:
    """The smallest element not yet reached from 0 by right additions of the
    generators so far, repeatedly, until every element is reached."""
    gens: list[int] = []
    reached = {0}
    for c in range(1, len(arr)):
        if c not in reached:
            gens.append(c)
            reached = _closure(arr, gens)
    return tuple(gens)


def check_order_cap(v: int) -> None:
    if v > MAX_ORDER:
        raise InvalidParameterError(f"group order {v} exceeds the cap {MAX_ORDER}")


def _cyclic_table(n: int) -> np.ndarray:
    r = np.arange(n)
    return np.add.outer(r, r) % n


def _product_table(tables: Sequence[np.ndarray]) -> np.ndarray:
    """Cayley table of the direct product of the factor tables, with the
    first factor least significant: (x_1, ..., x_m) has index
    x_1 + v_1 (x_2 + v_2 (x_3 + ...)), v_i the order of factor i."""
    out = np.zeros((1, 1), dtype=np.int64)
    for t in tables:
        v, o = len(out), len(t)
        # Entry [d, a, e, b] is (a + v d) + (b + v e) = (a + b) + v (d + e).
        out = (out[None, :, None, :] + v * t[:, None, :, None]).reshape(o * v, o * v)
    return out


def build_cyclic(n: int) -> FiniteGroup:
    """The cyclic group Z_n with addition mod n."""
    if not isinstance(n, int) or n < 2:
        raise InvalidParameterError(f"cyclic group order must be an integer >= 2, got {n!r}")
    check_order_cap(n)
    return FiniteGroup(_cyclic_table(n))


def digits_of(index: int, p: int, k: int) -> tuple[int, ...]:
    """Base-p digits of ``index``, least significant first, padded to length k."""
    out = []
    for _ in range(k):
        index, r = divmod(index, p)
        out.append(r)
    return tuple(out)


def index_of_digits(digits: Sequence[int], p: int) -> int:
    index = 0
    for d in reversed(digits):
        index = index * p + d
    return index


def check_power_cap(p: int, k: int) -> None:
    """Reject p^k > MAX_ORDER when p >= 2 and k >= 1, without computing a huge p^k."""
    if p >= 2 and k >= MAX_ORDER.bit_length():
        raise InvalidParameterError(f"group order {p}^{k} exceeds the cap {MAX_ORDER}")
    if p >= 2 and k >= 1:
        check_order_cap(p ** k)


def elementary_abelian_table(p: int, k: int) -> np.ndarray:
    """The (Z_p)^k table, index = sum(digit_i * p^i): k copies of Z_p's."""
    return _product_table([_cyclic_table(p)] * k)


def linear_map_table(p: int, k: int, rows: Sequence[Sequence[int]]) -> np.ndarray:
    """The index of M.x mod p for every x of (Z_p)^k, in index order, where
    M is the k x k matrix ``rows`` with entries in [0, p): one product of
    the (p^k, k) digit array of all x with M's transpose, then one with the
    digit weights p^i."""
    weights = p ** np.arange(k)
    digits = np.arange(p ** k)[:, None] // weights % p
    return digits @ np.array(rows, dtype=np.int64).T % p @ weights


def build_elementary_abelian(p: int, k: int) -> FiniteGroup:
    """(Z_p)^k with componentwise addition; index = sum(digit_i * p^i)."""
    check_power_cap(p, k)
    if not is_prime(p):
        raise InvalidParameterError(f"{p} is not prime")
    if k < 1:
        raise InvalidParameterError(f"exponent must be positive, got {k}")
    return FiniteGroup(elementary_abelian_table(p, k))


def build_direct_product(factors: Sequence[FiniteGroup]) -> FiniteGroup:
    """Componentwise product; the first factor is the least significant digit."""
    if not factors:
        raise InvalidParameterError("direct product needs at least one factor")
    v = 1
    for g in factors:
        v *= g.order
    check_order_cap(v)
    return FiniteGroup(_product_table([g.array for g in factors]))


def build_from_cayley(table: Sequence[Sequence[int]]) -> FiniteGroup:
    """Validate an explicit Cayley table; rejects non-groups with a witness."""
    return FiniteGroup(table)


@dataclass(frozen=True)
class Subgroup:
    """A subgroup given by its sorted element set."""

    group: FiniteGroup
    elements: tuple[int, ...]

    def __post_init__(self):
        elems = tuple(sorted(set(self.elements)))
        object.__setattr__(self, "elements", elems)
        if not is_subgroup(self.group, elems):
            raise InvalidParameterError(f"{elems!r} is not a subgroup")

    @classmethod
    def _trusted(cls, group: FiniteGroup, elements: tuple[int, ...]) -> "Subgroup":
        # For sorted element sets known to be subgroups: closures, stabilizers.
        obj = object.__new__(cls)
        object.__setattr__(obj, "group", group)
        object.__setattr__(obj, "elements", elements)
        return obj

    def __contains__(self, x: int) -> bool:
        return x in set(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


def is_subgroup(group: FiniteGroup, elems: Iterable[int]) -> bool:
    """True iff ``elems`` is nonempty and closed under addition and negation."""
    s = set(elems)
    if not s or any(x not in range(group.order) for x in s):
        return False
    if any(group.negs[x] not in s for x in s):
        return False
    member = np.zeros(group.order, dtype=bool)
    idx = np.array(sorted(s))
    member[idx] = True
    return bool(member[group.array[np.ix_(idx, idx)]].all())


def subgroup_generated(group: FiniteGroup, gens: Iterable[int]) -> Subgroup:
    """Smallest subgroup containing ``gens``, by closure iteration."""
    gens = set(gens)
    if any(g not in range(group.order) for g in gens):
        raise InvalidParameterError("generator outside the element range")
    return Subgroup._trusted(group, tuple(sorted(_closure(group.array, gens))))


def all_subgroups(group: FiniteGroup) -> tuple[Subgroup, ...]:
    """Every subgroup, each new one the closure of a known subgroup's
    generators plus one element outside it.

    Intended for small orders (the exhaustive lemma checks use <= 24).
    """
    seen = {frozenset({0})}
    queue: list[tuple[frozenset, tuple[int, ...]]] = [(frozenset({0}), ())]
    while queue:
        base, gens = queue.pop()
        for x in group.nonzero():
            if x in base:
                continue
            bigger = frozenset(subgroup_generated(group, gens + (x,)).elements)
            if bigger not in seen:
                seen.add(bigger)
                queue.append((bigger, gens + (x,)))
    subs = [Subgroup._trusted(group, tuple(sorted(s))) for s in seen]
    subs.sort(key=lambda h: (len(h.elements), h.elements))
    return tuple(subs)
