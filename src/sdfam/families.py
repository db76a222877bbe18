"""Blocks, labeled families, developments, and the verification engines.

A labeled family is an ordered list of (label, block) pairs.  Keeping the
labels, rather than collapsing to a plain set of blocks, makes the triple
count |S|*(|S|-1) literal for orbit families even when distinct labels
yield the same block; verifying the deduplicated set version must then
agree on lambda, and the test suite checks that agreement.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from .errors import DesignCheckError, InvalidParameterError, SdfCheckError, TheoremViolationError
from .groups import MAX_ORDER, FiniteGroup, Subgroup

Block = tuple  # sorted duplicate-free tuple of element indices
Label = Union[int, str]


def make_block(group: FiniteGroup, elems: Iterable[int]) -> Block:
    out = tuple(sorted(set(int(x) for x in elems)))
    if not out:
        raise InvalidParameterError("blocks must be nonempty")
    if out[0] < 0 or out[-1] >= group.order:
        raise InvalidParameterError(f"block {out!r} has elements outside [0,{group.order})")
    return out


class FamilyEntry(NamedTuple):
    label: Label
    block: Block


@dataclass(frozen=True)
class LabeledFamily:
    """Ordered (label, block) pairs over one group; labels are distinct."""

    group: FiniteGroup
    entries: tuple[FamilyEntry, ...]

    def __post_init__(self):
        normalized = tuple(FamilyEntry(label, make_block(self.group, block))
                           for label, block in self.entries)
        labels = [e.label for e in normalized]
        if len(set(labels)) != len(labels):
            dup = next(l for l in labels if labels.count(l) > 1)
            raise InvalidParameterError(f"duplicate family label {dup!r}")
        object.__setattr__(self, "entries", normalized)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def blocks(self) -> tuple[Block, ...]:
        return tuple(e.block for e in self.entries)

    def dedup(self) -> "LabeledFamily":
        """Set-semantics version: one entry per distinct block, first label kept."""
        seen = {}
        for label, block in self.entries:
            seen.setdefault(block, label)
        return LabeledFamily(self.group, tuple(FamilyEntry(l, b) for b, l in seen.items()))


@dataclass(frozen=True)
class SdfCertificate:
    """Verified short-difference-family parameters."""

    v: int
    k: int
    mu: int
    nu: int
    lam_prime: int
    lam: int

    def __post_init__(self):
        if min(self.v, self.k, self.mu, self.nu, self.lam_prime, self.lam) < 1:
            raise InvalidParameterError("certificate parameters must be positive")
        if self.lam * self.mu * self.nu != self.lam_prime:
            raise InvalidParameterError("inconsistent certificate: lam*mu*nu != lam_prime")

    @property
    def params(self) -> tuple[int, int, int]:
        return (self.v, self.k, self.lam)


@dataclass(frozen=True)
class Design:
    """Points 0..v-1 plus a duplicate-free block set with verified (v,k,lam)."""

    v: int
    k: int
    lam: int
    blocks: tuple[Block, ...]

    def __post_init__(self):
        blocks = tuple(sorted(tuple(sorted(b)) for b in self.blocks))
        if len(set(blocks)) != len(blocks):
            raise InvalidParameterError("designs cannot repeat blocks")
        if any(len(b) != self.k for b in blocks):
            raise InvalidParameterError(f"designs need uniform block size {self.k}")
        object.__setattr__(self, "blocks", blocks)

    @classmethod
    def _trusted(cls, v: int, k: int, lam: int, blocks: Sequence[Block]) -> "Design":
        # For distinct sorted blocks of size k that verify_bibd has checked.
        obj = object.__new__(cls)
        for name, value in (("v", v), ("k", k), ("lam", lam), ("blocks", tuple(sorted(blocks)))):
            object.__setattr__(obj, name, value)
        return obj


def translate(group: FiniteGroup, block: Block, g: int) -> Block:
    """The right translate B + g."""
    return tuple(sorted(group.table[b][g] for b in block))


def stabilizer(group: FiniteGroup, block: Block) -> Subgroup:
    """All g with B + g = B; always a subgroup, and the largest one H with
    B + H = B (every such H is contained in it).

    Every such g maps b0 = B[0] into B, so g = (-b0) + b for some b in B:
    only these k candidates are tried, at O(k^2) per block.
    """
    want = set(block)
    table = group.table
    start = table[group.negs[block[0]]]
    candidates = [start[b] for b in block]
    fixers = [g for g in candidates if all(table[b][g] in want for b in block)]
    return Subgroup._trusted(group, tuple(sorted(fixers)))


def are_translates(group: FiniteGroup, b: Block, c: Block) -> Optional[int]:
    """Smallest g with B = C + g, or None.

    Such a g maps c0 = C[0] into B, so g = (-c0) + b for some b in B: only
    these k candidates are tried, smallest first, at O(k^2) per pair.
    """
    if len(b) != len(c):
        return None
    want = frozenset(b)
    table = group.table
    start = table[group.negs[c[0]]]
    for g in sorted(start[x] for x in b):
        if all(table[x][g] in want for x in c):
            return g
    return None


def equivalence_classes(family: LabeledFamily) -> tuple[tuple[Label, ...], ...]:
    """Labels grouped by translate-equivalence of their blocks, in entry order.

    B + g = C + h exactly when {B + (-b) : b in B} = {C + (-c) : c in C},
    which holds in non-abelian groups too, so each block is keyed by the
    smallest member of its set (the smallest translate containing 0) and the
    classes come from one dict pass.  Each label that joins a class is
    confirmed against the class's first block by are_translates.  Cost
    O(k^2 log k) per entry, O(n k^2 log k) per family of n entries.
    """
    group = family.group
    classes: dict[Block, tuple[Block, list[Label]]] = {}
    for label, block in family.entries:
        key = min(translate(group, block, group.negs[b]) for b in block)
        if key not in classes:
            classes[key] = (block, [label])
            continue
        rep, members = classes[key]
        if are_translates(group, block, rep) is None:
            raise TheoremViolationError("canonical-translate", {
                "block": list(block), "rep": list(rep)})
        members.append(label)
    return tuple(tuple(members) for _, members in classes.values())


def development(family: LabeledFamily) -> tuple[Block, ...]:
    """All translates of all blocks, deduplicated and sorted."""
    group = family.group
    out = set()
    for block in set(family.blocks()):
        for g in group.elements():
            out.add(translate(group, block, g))
    return tuple(sorted(out))


def verify_sdf(family: LabeledFamily) -> SdfCertificate:
    """Check the four short-difference-family conditions over a labeled family.

    Uniform block size k, uniform stabilizer size mu, uniform
    translate-class size nu, and a constant positive count lam_prime of
    triples (entry, a, b) with a - b = d for every nonzero d; emits
    lam = lam_prime / (mu * nu) after the divisibility check.  Raises
    SdfCheckError naming the failed condition with a concrete witness.
    """
    group = family.group
    entries = family.entries
    if not entries:
        raise InvalidParameterError("family has no entries")

    k = len(entries[0].block)
    for label, block in entries[1:]:
        if len(block) != k:
            raise SdfCheckError("block-size", {
                "label_a": entries[0].label, "size_a": k,
                "label_b": label, "size_b": len(block)})

    mu = len(stabilizer(group, entries[0].block))
    for label, block in entries[1:]:
        m = len(stabilizer(group, block))
        if m != mu:
            raise SdfCheckError("stabilizer-size", {
                "label_a": entries[0].label, "mu_a": mu,
                "label_b": label, "mu_b": m})

    classes = equivalence_classes(family)
    sizes = {label: len(cls) for cls in classes for label in cls}
    nu = sizes[entries[0].label]
    for label, _ in entries[1:]:
        if sizes[label] != nu:
            raise SdfCheckError("class-size", {
                "label_a": entries[0].label, "nu_a": nu,
                "label_b": label, "nu_b": sizes[label]})

    counts = [0] * group.order
    for _, block in entries:
        for a in block:
            for b in block:
                if a != b:
                    counts[group.sub(a, b)] += 1
    lam_prime = counts[1] if group.order > 1 else 0
    for d in range(2, group.order):
        if counts[d] != lam_prime:
            raise SdfCheckError("difference-count", {
                "d_a": 1, "count_a": lam_prime, "d_b": d, "count_b": counts[d]})
    if lam_prime == 0:
        raise SdfCheckError("difference-count", {"d": 1, "count": 0},
                            "difference counts must be positive")

    if lam_prime % (mu * nu) != 0:
        raise SdfCheckError("divisibility", {
            "lam_prime": lam_prime, "mu": mu, "nu": nu})

    return SdfCertificate(group.order, k, mu, nu, lam_prime, lam_prime // (mu * nu))


def verify_bibd(v: int, blocks: Sequence[Iterable[int]]) -> Design:
    """Exhaustive balanced-incomplete-block-design check over all point pairs.

    v is held to the group-order cap, as the pair counts take v*v entries.
    Raises DesignCheckError with the first violating block or pair.
    """
    if v < 2:
        raise InvalidParameterError(f"designs need at least 2 points, got {v}")
    if v > MAX_ORDER:
        raise InvalidParameterError(f"design order {v} exceeds the cap {MAX_ORDER}")
    if not blocks:
        raise InvalidParameterError("design has no blocks")
    normalized = []
    for raw in blocks:
        raw = tuple(map(int, raw))
        block = tuple(sorted(set(raw)))
        if len(block) != len(raw):
            raise InvalidParameterError(f"block {raw!r} repeats a point")
        if not block:
            raise InvalidParameterError("blocks must be nonempty")
        if block[0] < 0 or block[-1] >= v:
            raise InvalidParameterError(f"block {block!r} has points outside [0,{v})")
        normalized.append(block)

    seen = set()
    for block in normalized:
        if block in seen:
            raise DesignCheckError("repeated-block", {"block": list(block)})
        seen.add(block)

    k = len(normalized[0])
    for block in normalized[1:]:
        if len(block) != k:
            raise DesignCheckError("block-size", {
                "block_a": list(normalized[0]), "block_b": list(block)})

    counts = [0] * (v * v)
    for block in normalized:
        for a, b in combinations(block, 2):
            counts[a * v + b] += 1
    lam = counts[1]
    for a in range(v - 1):
        row = counts[a * v + a + 1:(a + 1) * v]
        if row.count(lam) != len(row):
            b = next(b for b, count in enumerate(row, a + 1) if count != lam)
            raise DesignCheckError("pair-coverage", {
                "pair_a": [0, 1], "count_a": lam,
                "pair_b": [a, b], "count_b": row[b - a - 1]})
    if lam == 0:
        raise DesignCheckError("pair-coverage", {"pair": [0, 1], "count": 0},
                               "every pair must be covered at least once")
    return Design._trusted(v, k, lam, normalized)


def is_design_automorphism(perm: Sequence[int], design: Design) -> bool:
    """True iff the point bijection maps the block set onto itself."""
    perm = tuple(int(p) for p in perm)
    if len(perm) != design.v or len(set(perm)) != design.v \
            or any(p not in range(design.v) for p in perm):
        raise InvalidParameterError("permutation must be a bijection on the points")
    blocks = set(design.blocks)
    return all(tuple(sorted(perm[x] for x in block)) in blocks for block in blocks)


def non_automorphism(design: Design, perms: Iterable[Sequence[int]],
                     generators: Sequence[Sequence[int]]) -> Optional[tuple[int, ...]]:
    """The first of ``perms`` that is not an automorphism of the design, or None.

    ``generators`` must generate the group that ``perms`` lists.  A design's
    automorphisms form a group, so when every generator is one, so is every
    member of ``perms``, and only a failure pays for the scan of ``perms``.
    """
    if all(is_design_automorphism(g, design) for g in generators):
        return None
    return next((tuple(p) for p in perms if not is_design_automorphism(p, design)), None)


def is_doubly_transitive(perms: Sequence[Sequence[int]], v: int) -> bool:
    """Breadth-first orbit of the ordered pair (0, 1); true iff it has size v*(v-1)."""
    if v < 2:
        raise InvalidParameterError("need at least 2 points for ordered pairs")
    gens = []
    for perm in perms:
        p = tuple(int(x) for x in perm)
        if len(p) != v or len(set(p)) != v or any(x not in range(v) for x in p):
            raise InvalidParameterError("permutation must be a bijection on the points")
        gens.append(p)
    start = (0, 1)
    seen = {start}
    frontier = [start]
    target = v * (v - 1)
    while frontier and len(seen) < target:
        nxt = []
        for (a, b) in frontier:
            for p in gens:
                img = (p[a], p[b])
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return len(seen) == target
