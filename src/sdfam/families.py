"""Blocks, labeled families, developments, and the verification engines.

A labeled family is an ordered list of (label, block) pairs.  Keeping the
labels, rather than collapsing to a plain set of blocks, makes the triple
count |S|*(|S|-1) literal for orbit families even when distinct labels
yield the same block; verifying the deduplicated set version must then
agree on lambda, and the test suite checks that agreement.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from operator import index
from typing import Iterable, NamedTuple, Optional, Sequence, Union

import numpy as np

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


@dataclass(frozen=True, eq=False, init=False)
class Design:
    """Points 0..v-1 plus a duplicate-free block set with verified (v,k,lam).

    The blocks are one read-only (b, k) int64 array, ``rows``, each row
    sorted and the rows in lexicographic order, made from a 2-D int array
    whole or from other blocks through operator.index (floats and strings
    raise TypeError); points outside [0, v), other sizes than k and repeats
    raise InvalidParameterError.  development and then verify_bibd on Z_509
    with |Φ| = 4 peak at 10,618,225 bytes under tracemalloc.
    """

    v: int
    k: int
    lam: int
    rows: np.ndarray

    def __init__(self, v: int, k: int, lam: int, blocks: Iterable[Iterable[int]]):
        if not (isinstance(blocks, np.ndarray) and blocks.ndim == 2 and blocks.dtype.kind in "iu"):
            blocks = [tuple(map(index, b)) for b in blocks]
        try:
            rows = np.array(blocks, dtype=np.int64).reshape(len(blocks), k)
        except ValueError:  # ragged rows, or rows of another size
            raise InvalidParameterError(f"designs need uniform block size {k}") from None
        except OverflowError:  # an entry beyond int64
            rows = None
        if rows is None or (rows.size and (rows.min() < 0 or rows.max() >= v)):
            raise InvalidParameterError(f"design points must lie in [0,{v})")
        rows, repeated = _lex_rows(rows, v)
        if repeated:
            raise InvalidParameterError("designs cannot repeat blocks")
        rows.flags.writeable = False
        for name, value in (("v", v), ("k", k), ("lam", lam), ("rows", rows)):
            object.__setattr__(self, name, value)

    @property
    def blocks(self) -> tuple[Block, ...]:
        """The rows as int tuples, made anew on each access, taken through
        the ints 0..v-1 as objects so that equal entries share one int (a
        third of the memory of a plain tolist() at v = 509)."""
        return tuple(map(tuple, np.arange(self.v).astype(object)[self.rows].tolist()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Design):
            return NotImplemented
        return (self.v, self.k, self.lam) == (other.v, other.k, other.lam) \
            and np.array_equal(self.rows, other.rows)

    def __hash__(self) -> int:
        return hash((self.v, self.k, self.lam, self.rows.tobytes()))


def _translates(group: FiniteGroup, blocks: np.ndarray) -> np.ndarray:
    """Every translate B + (-b), b in B, of (n, k) blocks of one size, each
    sorted: row (j, i) of the (n, k, k) gather is B_j + (-B_j[i]), which
    holds 0."""
    negs = np.array(group.negs)[blocks]
    rows = group.array[blocks[:, None, :], negs[:, :, None]]
    rows.sort(axis=2)
    return rows


def _witnesses(group: FiniteGroup, b: Block, c: Block) -> np.ndarray:
    """Every g with B = C + g, for blocks of one size.

    Such a g maps c0 = C[0] into B, so g = (-c0) + x for some x in B, and
    then B + (-x) = C + (-c0): the g are (-c0) + x for the rows of B's
    translate gather equal to C's row 0, at O(k^2 log k).
    """
    rows = _translates(group, np.array([b, c]))
    return group.array[group.negs[c[0]], np.array(b)[(rows[0] == rows[1, 0]).all(axis=1)]]


def stabilizer(group: FiniteGroup, block: Block) -> Subgroup:
    """All g with B + g = B (the witnesses that B is a translate of
    itself); always a subgroup, and the largest one H with B + H = B (every
    such H is contained in it)."""
    return Subgroup._trusted(group, tuple(sorted(_witnesses(group, block, block).tolist())))


def are_translates(group: FiniteGroup, b: Block, c: Block) -> Optional[int]:
    """Smallest g with B = C + g, or None."""
    g = _witnesses(group, b, c) if len(b) == len(c) else ()
    return int(g.min()) if len(g) else None


def _translate_classes(group: FiniteGroup, blocks: Sequence[Block]) -> tuple[list, list]:
    """The stabilizer size and the translate-class key of each of the
    distinct blocks.

    For the n blocks of each size k, one (n, k, k) gather holds their
    translates B + (-b).  As in _witnesses, the stabilizer size is the
    number of rows equal to row 0.  B + g = C + h exactly when the two sets
    of rows are equal, which holds in non-abelian groups too, so the least
    row (the smallest translate holding 0), compared on packed keys, keys
    the class.  A second gather confirms that each block is a translate of
    its class's first block.  O(n k^2 log k) array work.
    """
    v, negs = group.order, np.array(group.negs)
    mus, keys = [0] * len(blocks), [None] * len(blocks)
    for k in sorted({len(b) for b in blocks}):
        at = [j for j, b in enumerate(blocks) if len(b) == k]
        arr, n = np.array([blocks[j] for j in at]), len(at)
        rows = _packed(_translates(group, arr).reshape(n * k, k), v)
        same = (rows.reshape(n, k, -1) == rows[::k, None]).all(axis=2).sum(axis=1)
        # Each block's least row, by a lexsort with the block as primary key.
        least = np.lexsort(np.vstack([rows.T[::-1], np.arange(n * k) // k]))[::k]
        first, reps = {}, []
        for j, m, row in zip(at, same.tolist(), rows[least]):
            mus[j], keys[j] = m, (k, row.tobytes())
            reps.append(first.setdefault(keys[j], len(reps)))
        # B + (-B[i]) = R + (-R[r]) gives B = R + ((-R[r]) + B[i]).
        i = least % k
        g = group.array[negs[arr[reps, i[reps]]], arr[np.arange(n), i]]
        moved = np.sort(group.array[arr[reps], g[:, None]], axis=1)
        bad = np.flatnonzero((moved != arr).any(axis=1))
        if len(bad):
            raise TheoremViolationError("canonical-translate", {
                "block": list(blocks[at[bad[0]]]), "rep": list(blocks[at[reps[bad[0]]]])})
    return mus, keys


def equivalence_classes(family: LabeledFamily) -> tuple[tuple[Label, ...], ...]:
    """Labels grouped by translate-equivalence of their blocks, in entry
    order, from one _translate_classes pass over the distinct blocks."""
    blocks = list(dict.fromkeys(family.blocks()))
    key_of = dict(zip(blocks, _translate_classes(family.group, blocks)[1]))
    classes: dict = {}
    for label, block in family.entries:
        classes.setdefault(key_of[block], []).append(label)
    return tuple(map(tuple, classes.values()))


def _packed(rows: np.ndarray, v: int) -> np.ndarray:
    """Rows of points in [0, v) with each run of m columns read as one
    base-v number, m as large as v**m < 2**63 allows (6 at v = 512): the
    packed rows compare lexicographically as the rows do, in fewer columns."""
    k = rows.shape[1]
    m = 1
    while m < k and v ** (m + 1) < 2 ** 63:
        m += 1
    # Rows of no points pack to one column of zeros.
    out = np.zeros((len(rows), -(-k // m) or 1), dtype=np.int64)
    for c, start in enumerate(range(0, k, m)):
        acc = rows[:, start].copy()
        for col in range(start + 1, min(start + m, k)):
            acc *= v
            acc += rows[:, col]
        out[:, c] = acc
    return out


def _strictly_increasing(keys: np.ndarray) -> bool:
    """Whether each row is lexicographically greater than the one before."""
    prev, keys = keys[:-1], keys[1:]
    greater = keys[:, -1] > prev[:, -1]
    for c in range(keys.shape[1] - 2, -1, -1):
        greater = (keys[:, c] > prev[:, c]) | ((keys[:, c] == prev[:, c]) & greater)
    return bool(greater.all())


def _lex_rows(rows: np.ndarray, v: int) -> tuple[np.ndarray, bool]:
    """A (b, k) int64 array of points in [0, v), each row sorted in place,
    in lexicographic row order with repeated rows dropped, and whether any
    were.  The row sort is spared when every row is strictly increasing
    already, and the lexsort, of the packed rows, when the rows are."""
    if not (rows[:, 1:] > rows[:, :-1]).all():
        rows.sort(axis=1)
    keys = _packed(rows, v)
    if _strictly_increasing(keys):
        return rows, False
    order = np.lexsort(keys.T[::-1])
    keys = keys[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    return rows[order[first]], not first.all()


def development(family: LabeledFamily) -> np.ndarray:
    """All translates of all blocks, deduplicated: a (b, k) int64 array with
    each row sorted and the rows in lexicographic order.

    The blocks must have one size k; a family of mixed sizes raises
    InvalidParameterError, and one with no entries gives a (0, 0) array.
    Gathering the n distinct blocks from the group's table array gives all
    n*v translates at once (n*k*v int64 entries); _lex_rows puts them in
    order and the repeats are dropped, O(n k v log(n v)).  On Z_509 with
    Ferrero's |Φ| = 4 family (127 distinct blocks, 64,643 developed),
    development and then verify_bibd peak at 10,618,225 bytes under
    tracemalloc, against 15,593,152 for the tuple-by-tuple loop and the
    pair-by-pair scan.
    """
    group = family.group
    blocks = list(set(family.blocks()))
    sizes = sorted({len(b) for b in blocks})
    if len(sizes) > 1:
        raise InvalidParameterError(f"development needs blocks of one size, got sizes {sizes}")
    if not blocks:
        return np.empty((0, 0), dtype=np.int64)
    # Row (j, g) of the gather is the translate B_j + g.
    translates = group.array[np.array(blocks)].transpose(0, 2, 1).reshape(-1, sizes[0])
    return _lex_rows(translates, group.order)[0]


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

    # Stabilizer sizes and class keys of the distinct blocks, read per label.
    distinct = list(dict.fromkeys(e.block for e in entries))
    mu_of, key_of = (dict(zip(distinct, x)) for x in _translate_classes(group, distinct))
    mu = mu_of[entries[0].block]
    for label, block in entries[1:]:
        if mu_of[block] != mu:
            raise SdfCheckError("stabilizer-size", {
                "label_a": entries[0].label, "mu_a": mu,
                "label_b": label, "mu_b": mu_of[block]})

    sizes = Counter(key_of[block] for _, block in entries)
    nu = sizes[key_of[entries[0].block]]
    for label, block in entries[1:]:
        if sizes[key_of[block]] != nu:
            raise SdfCheckError("class-size", {
                "label_a": entries[0].label, "nu_a": nu,
                "label_b": label, "nu_b": sizes[key_of[block]]})

    # One bincount of a + (-b) over the ordered pairs of distinct positions.
    blocks = np.array(family.blocks())
    i, j = np.nonzero(~np.eye(k, dtype=bool))
    negs = np.array(group.negs)
    counts = np.bincount(group.array[blocks[:, i], negs[blocks[:, j]]].ravel(),
                         minlength=group.order)
    lam_prime = int(counts[1])
    uneven = np.flatnonzero(counts[2:] != lam_prime)
    if len(uneven):
        d = int(uneven[0]) + 2
        raise SdfCheckError("difference-count", {
            "d_a": 1, "count_a": lam_prime, "d_b": d, "count_b": int(counts[d])})
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
    The blocks may be any 2-D int array-like, such as a development's
    (b, k) array or a list of tuples.  A copy of them, in order by
    _lex_rows, must hold points and repeat no point or row; one bincount of
    a*v + b over the pairs a < b of every row counts the coverage, which
    must equal that of (0, 1) and be positive.  O(b k^2 + v^2) array work,
    b k log b when the rows need the lexsort.  On a failure, or on blocks
    that are no rectangular int array, _bibd_scan checks block by block and
    pair by pair and raises InvalidParameterError or DesignCheckError with
    the first violating block or pair.
    """
    if v < 2:
        raise InvalidParameterError(f"designs need at least 2 points, got {v}")
    if v > MAX_ORDER:
        raise InvalidParameterError(f"design order {v} exceeds the cap {MAX_ORDER}")
    if len(blocks) == 0:
        raise InvalidParameterError("design has no blocks")
    design = _bibd_by_array(v, blocks)
    return design if design is not None else _bibd_scan(v, blocks)


def _bibd_by_array(v: int, blocks: Sequence[Iterable[int]]) -> Optional[Design]:
    """The design, or None when the blocks fail a check or are not a
    rectangular array of ints."""
    try:
        rows = np.array(blocks)
    except ValueError:  # ragged blocks
        return None
    # Bools, floats, strings, sets, iterators and ints beyond int64 read as
    # other kinds or shapes.
    if rows.ndim != 2 or rows.dtype.kind != "i" or not rows.shape[1]:
        return None
    rows = rows.astype(np.int64, copy=False)
    if rows.min() < 0 or rows.max() >= v:
        return None
    rows, repeated = _lex_rows(rows, v)
    if repeated or (rows[:, 1:] == rows[:, :-1]).any():
        return None
    a, b = np.triu_indices(rows.shape[1], 1)
    counts = np.bincount((rows[:, a] * v + rows[:, b]).ravel(), minlength=v * v).reshape(v, v)
    lam = int(counts[0, 1])
    if lam == 0 or np.triu(counts - lam, 1).any():
        return None
    del counts  # before Design copies the rows
    return Design(v, rows.shape[1], lam, rows)


def _bibd_scan(v: int, blocks: Sequence[Iterable[int]]) -> Design:
    """verify_bibd block by block and pair by pair, for its witnesses."""
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
    return Design(v, k, lam, normalized)


def _permutation(perm: Sequence[int], v: int) -> tuple[int, ...]:
    """perm as a tuple of ints, checked to be a bijection on the points 0..v-1."""
    p = tuple(int(x) for x in perm)
    if len(p) != v or len(set(p)) != v or any(x not in range(v) for x in p):
        raise InvalidParameterError("permutation must be a bijection on the points")
    return p


def is_design_automorphism(perm: Sequence[int], design: Design) -> bool:
    """True iff the point bijection maps the block set onto itself: the
    design's rows gathered through the permutation and put in order by
    _lex_rows equal the rows.  O(b k log b) array work."""
    perm = _permutation(perm, design.v)
    return np.array_equal(_lex_rows(np.array(perm)[design.rows], design.v)[0], design.rows)


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
    """Breadth-first orbit of the ordered pair (0, 1); true iff it has size v*(v-1).

    Pairs are codes a*v + b in one v*v seen array; each level gathers every
    generator's images of the frontier at once and keeps the unseen ones,
    deduplicated.  O(v^2) memory, O(g v^2) array work over g permutations.
    """
    if v < 2:
        raise InvalidParameterError("need at least 2 points for ordered pairs")
    gens = [_permutation(perm, v) for perm in perms]
    if not gens:
        return False
    # The ordered pair (a, b) is the code a*v + b; (0, 1) is 1.
    images_of = np.array(gens)
    seen = np.zeros(v * v, dtype=bool)
    seen[1] = True
    frontier = np.array([1])
    reached, target = 1, v * (v - 1)
    while len(frontier) and reached < target:
        a, b = np.divmod(frontier, v)
        images = (images_of[:, a] * v + images_of[:, b]).ravel()
        frontier = np.unique(images[~seen[images]])
        seen[frontier] = True
        reached += len(frontier)
    return reached == target
