"""Shared brute-force oracles and small-group builders for the tests.

Everything here is deliberately naive and independent of the library's
internal counting paths, so the tests can freeze expected values computed
by a second route.
"""

from __future__ import annotations

import itertools
import operator
from math import gcd

import numpy as np

from sdfam import FiniteGroup, InvalidParameterError, LabeledFamily, build_from_cayley, development
from sdfam.groups import digits_of, index_of_digits


def naive_pair_counts(v: int, blocks) -> dict:
    """How often each unordered point pair appears across the blocks."""
    counts = {(a, b): 0 for a in range(v) for b in range(a + 1, v)}
    for block in blocks:
        for a, b in itertools.combinations(sorted(block), 2):
            counts[(a, b)] += 1
    return counts


def naive_diff_counts(group: FiniteGroup, entries) -> dict:
    """Triple count per nonzero d: (entry, a, b) with a, b in the block, a-b=d."""
    counts = {d: 0 for d in group.nonzero()}
    for _, block in entries:
        for a in block:
            for b in block:
                if a != b:
                    counts[group.sub(a, b)] += 1
    return counts


def naive_development(family) -> tuple:
    """All translates of all blocks, one tuple at a time, deduplicated by a set."""
    group = family.group
    out = set()
    for block in set(family.blocks()):
        for g in group.elements():
            out.add(naive_translates(group, block, g))
    return tuple(sorted(out))


def development_tuples(family) -> tuple:
    """development's rows as tuples of ints, for set and list comparisons."""
    return tuple(map(tuple, development(family).tolist()))


def element_order(group: FiniteGroup, x: int) -> int:
    """The least n >= 1 with n x = 0."""
    n, acc = 1, x
    while acc != 0:
        acc = group.add(acc, x)
        n += 1
    return n


def difference_table(alpha, beta) -> tuple[int, ...]:
    """Value table of the pointwise difference x -> alpha(x) - beta(x)."""
    g = alpha.group
    return tuple(g.sub(alpha.table[x], beta.table[x]) for x in g.elements())


def naive_translates(group: FiniteGroup, block, g):
    return tuple(sorted(group.add(b, g) for b in block))


def naive_stabilizer(group: FiniteGroup, block) -> tuple:
    """Every g with B + g = B, by scanning all v group elements."""
    want = set(block)
    return tuple(g for g in group.elements()
                 if all(group.add(b, g) in want for b in block))


def naive_are_translates(group: FiniteGroup, b, c):
    """Smallest g with B = C + g, by scanning all v group elements, or None."""
    want = frozenset(b)
    if len(b) != len(c):
        return None
    for g in group.elements():
        if all(group.add(x, g) in want for x in c):
            return g
    return None


def naive_equivalence_classes(family) -> tuple:
    """Labels grouped by translate-equivalence, each entry tested against
    every earlier class representative with the v-element scan."""
    reps = []
    for label, block in family.entries:
        for rep, members in reps:
            if naive_are_translates(family.group, block, rep) is not None:
                members.append(label)
                break
        else:
            reps.append((block, [label]))
    return tuple(tuple(members) for _, members in reps)


def all_automorphism_tables(group: FiniteGroup) -> list[tuple[int, ...]]:
    """Every bijective homomorphism table, by filtering permutations fixing 0.

    Exponential in the order; only use on groups of order <= 8.
    """
    out = []
    v = group.order
    for rest in itertools.permutations(range(1, v)):
        table = (0,) + rest
        ok = True
        for x in range(v):
            for y in range(v):
                if table[group.add(x, y)] != group.add(table[x], table[y]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(table)
    return out


def group_from_permutations(perms) -> FiniteGroup:
    """Cayley table of a set of permutations closed under composition.

    The identity gets index 0; the rest are sorted for determinism.
    """
    perms = {tuple(p) for p in perms}
    n = len(next(iter(perms)))
    ident = tuple(range(n))
    assert ident in perms
    ordered = [ident] + sorted(perms - {ident})
    index = {p: i for i, p in enumerate(ordered)}
    table = [[index[tuple(p[q[i]] for i in range(n))] for q in ordered] for p in ordered]
    return build_from_cayley(table)


def symmetric_group(n: int) -> FiniteGroup:
    return group_from_permutations(itertools.permutations(range(n)))


def dihedral_square() -> FiniteGroup:
    """Symmetries of a square as permutations of its corners (order 8)."""
    rot = (1, 2, 3, 0)
    flip = (1, 0, 3, 2)
    perms = {tuple(range(4))}
    frontier = [tuple(range(4))]
    while frontier:
        p = frontier.pop()
        for q in (rot, flip):
            comp = tuple(q[p[i]] for i in range(4))
            if comp not in perms:
                perms.add(comp)
                frontier.append(comp)
    assert len(perms) == 8
    return group_from_permutations(perms)


def quaternion_group() -> FiniteGroup:
    """The order-8 quaternion group via its multiplication rules.

    Elements are 1, -1, i, -i, j, -j, k, -k in that index order.
    """
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]

    def mul(a: str, b: str) -> str:
        sign = 1
        for t in (a, b):
            if t.startswith("-"):
                sign = -sign
        x, y = a.lstrip("-"), b.lstrip("-")
        rules = {
            ("1", "1"): (1, "1"),
            ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"), ("k", "k"): (-1, "1"),
            ("i", "j"): (1, "k"), ("j", "k"): (1, "i"), ("k", "i"): (1, "j"),
            ("j", "i"): (-1, "k"), ("k", "j"): (-1, "i"), ("i", "k"): (-1, "j"),
        }
        if x == "1":
            s, z = 1, y
        elif y == "1":
            s, z = 1, x
        else:
            s, z = rules[(x, y)]
        sign *= s
        return z if sign == 1 else "-" + z

    table = [[names.index(mul(a, b)) for b in names] for a in names]
    return build_from_cayley(table)


def alternating_group_4() -> FiniteGroup:
    perms = [p for p in itertools.permutations(range(4))
             if sum(1 for i, j in itertools.combinations(range(4), 2) if p[i] > p[j]) % 2 == 0]
    return group_from_permutations(perms)


def units_mod(n: int) -> list[int]:
    return [u for u in range(1, n) if gcd(u, n) == 1]


def random_labeled_family(rng, group):
    """A randomized labeled family, or None when the draw degenerates.

    Mixes three shapes: unrelated random blocks, orbit families of random
    map pools, and the distinct translates of one random block.  The mix is
    tuned so that a useful fraction verifies as a short difference family.
    """
    from sdfam import InvalidParameterError, LabeledFamily

    v = group.order
    kind = rng.randrange(3)
    if kind == 0:
        k = rng.randint(1, min(v, 4))
        m = rng.randint(1, 4)
        entries = [(i, tuple(sorted(rng.sample(range(v), k)))) for i in range(m)]
    elif kind == 1:
        if group.commutative:
            tabs = []
            for c in rng.sample(range(v), rng.randint(2, min(4, v))):
                t = []
                for x in range(v):
                    acc = 0
                    for _ in range(c):
                        acc = group.add(acc, x)
                    t.append(acc)
                tabs.append(tuple(t))
        else:
            tabs = [tuple(group.add(group.add(group.neg(c), x), c) for x in range(v))
                    for c in rng.sample(range(v), rng.randint(2, 4))]
        tabs = list(dict.fromkeys(tabs))
        entries = [(x, tuple(sorted({t[x] for t in tabs}))) for x in group.nonzero()]
    else:
        block = tuple(sorted(rng.sample(range(v), rng.randint(1, min(v, 4)))))
        seen = []
        for g in range(v):
            t = tuple(sorted(group.add(b, g) for b in block))
            if t not in seen:
                seen.append(t)
        entries = [(i, b) for i, b in enumerate(seen)]
    try:
        return LabeledFamily(group, tuple(entries))
    except InvalidParameterError:
        return None


def naive_design_violation(v: int, blocks):
    """The first failed design condition as (condition, witness), or None.

    Checks repeated blocks, then block sizes, then pair coverage in (a, b)
    order, counting pairs with naive_pair_counts.
    """
    blocks = [tuple(sorted(b)) for b in blocks]
    for i, block in enumerate(blocks):
        if block in blocks[:i]:
            return "repeated-block", {"block": list(block)}
    for block in blocks[1:]:
        if len(block) != len(blocks[0]):
            return "block-size", {"block_a": list(blocks[0]), "block_b": list(block)}
    counts = naive_pair_counts(v, blocks)
    lam = counts[(0, 1)]
    for (a, b), count in counts.items():
        if count != lam:
            return "pair-coverage", {"pair_a": [0, 1], "count_a": lam,
                                     "pair_b": [a, b], "count_b": count}
    if lam == 0:
        return "pair-coverage", {"pair": [0, 1], "count": 0}
    return None


def naive_design(v: int, k: int, lam: int, blocks) -> tuple:
    """(v, k, lam, blocks) of the Design of these blocks, as sorted int
    tuples in sorted order, or the error Design raises: TypeError for an
    entry that is no int, then InvalidParameterError for a block of another
    size than k, a point outside [0, v) or a repeated block."""
    blocks = sorted(tuple(sorted(operator.index(x) for x in b)) for b in blocks)
    if any(len(b) != k for b in blocks):
        raise InvalidParameterError(f"designs need uniform block size {k}")
    if any(x not in range(v) for b in blocks for x in b):
        raise InvalidParameterError(f"design points must lie in [0,{v})")
    if len(set(blocks)) != len(blocks):
        raise InvalidParameterError("designs cannot repeat blocks")
    return v, k, lam, tuple(blocks)


def naive_pairwise_fpf(maps):
    """The first pair of maps, in list order, whose pointwise difference is not
    a bijection, as {"first", "second", "x"} with x the first nonzero element
    the difference sends to 0; None when every difference is a bijection."""
    group = maps[0].group
    for i, a in enumerate(maps):
        for b in maps[i + 1:]:
            diff = [group.sub(a.table[x], b.table[x]) for x in group.elements()]
            if len(set(diff)) == group.order:
                continue
            witness = {"first": list(a.table), "second": list(b.table)}
            for x in group.nonzero():
                if diff[x] == 0:
                    witness["x"] = x
                    break
            return witness
    return None


def naive_unit_subgroups(n: int) -> list[tuple[int, ...]]:
    """All subgroups of the multiplicative group mod n, as sorted tuples, by
    closing every extension of a known subgroup by one more unit."""
    units = units_mod(n)

    def close(gens):
        elems = {1}
        frontier = [1]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = (x * g) % n
                if y not in elems:
                    elems.add(y)
                    frontier.append(y)
        return frozenset(elems)

    seen = {frozenset({1})}
    queue = [frozenset({1})]
    while queue:
        base = queue.pop()
        for u in units:
            if u in base:
                continue
            bigger = close(base | {u})
            if bigger not in seen:
                seen.add(bigger)
                queue.append(bigger)
    return sorted(tuple(sorted(s)) for s in seen)


def naive_uniformity_failure(family):
    """The first label whose stabilizer size, then class size, differs from
    the first label's, as (condition, witness); None when both are uniform."""
    group = family.group
    first, rest = family.entries[0], family.entries[1:]
    mu = len(naive_stabilizer(group, first.block))
    for label, block in rest:
        m = len(naive_stabilizer(group, block))
        if m != mu:
            return "uniform stabilizer size", {"label_a": first.label, "mu_a": mu,
                                               "label_b": label, "mu_b": m}
    sizes = {label: len(cls) for cls in naive_equivalence_classes(family) for label in cls}
    for label, _ in rest:
        if sizes[label] != sizes[first.label]:
            return "uniform class size", {"label_a": first.label, "nu_a": sizes[first.label],
                                          "label_b": label, "nu_b": sizes[label]}
    return None


def naive_orbit_outcome(group, maps):
    """What orbit_family must report, by the naive routes.

    ("HypothesisError", condition, witness) for a failed hypothesis, else
    ("ok", (v, k, mu, nu, lam_prime, lam)) with every parameter recounted
    by the v-element scans and naive_diff_counts.
    """
    maps = list(dict.fromkeys(maps))
    if len(maps) < 2:
        return "HypothesisError", "|S| > 1", {"size": len(maps)}
    for m in maps:
        if len(set(m.table)) != group.order and any(m.table):
            return "HypothesisError", "S ⊆ Φ ∪ {0}", {"map": list(m.table)}
    witness = naive_pairwise_fpf(maps)
    if witness is not None:
        return "HypothesisError", "fpf", witness
    family = LabeledFamily(group, tuple(
        (x, tuple(sorted({m.table[x] for m in maps}))) for x in group.nonzero()))
    failure = naive_uniformity_failure(family)
    if failure is not None:
        return ("HypothesisError",) + failure
    first = family.entries[0]
    mu = len(naive_stabilizer(group, first.block))
    nu = sum(naive_are_translates(group, block, first.block) is not None
             for _, block in family.entries)
    lam_prime = naive_diff_counts(group, family.entries)[1]
    return "ok", (group.order, len(first.block), mu, nu, lam_prime, lam_prime // (mu * nu))


def naive_segments_outcome(group, maps):
    """What segments must report, by the naive routes, in the same form as
    naive_orbit_outcome; the closure of the nonzero maps is found by
    composing until nothing new appears, and its fixed points by checking
    every nonzero x against every earlier member."""
    maps = list(dict.fromkeys(maps))
    tables = {m.table for m in maps}
    zero, one = (0,) * group.order, tuple(group.elements())
    if zero not in tables or one not in tables:
        return "HypothesisError", "0,1 ∈ S", {"size": len(maps)}
    if len(maps) <= 2:
        return "HypothesisError", "|S| > 2", {"size": len(maps)}
    for m in maps:
        one_minus = tuple(group.sub(x, m.table[x]) for x in group.elements())
        if one_minus not in tables:
            return "HypothesisError", "S = 1-S", {"map": list(m.table),
                                                  "one_minus": list(one_minus)}
    nonzero = [m.table for m in maps if m.table != zero]
    for t in nonzero:
        if len(set(t)) != group.order:
            return "HypothesisError", "⟨S*⟩ fpf", {"map": list(t)}
    closed = {one} | set(nonzero)
    while True:
        more = {tuple(a[x] for x in b) for a in nonzero for b in closed} - closed
        if not more:
            break
        closed |= more
    closed = sorted(closed)
    for x in group.nonzero():
        for j, b in enumerate(closed):
            a = next((a for a in closed[:j] if a[x] == b[x]), None)
            if a is not None:
                return "HypothesisError", "⟨S*⟩ fpf", {"x": x, "first": list(a),
                                                       "second": list(b)}
    if group.order % 2 == 0:
        return "HypothesisError", "|G| odd", {"order": group.order}
    if len(closed) % 2 == 0:
        return "HypothesisError", "|⟨S*⟩| odd", {"order": len(closed)}
    return naive_orbit_outcome(group, maps)


# The full scans that the generator checks replaced; each names the witness
# the library must still report.

def naive_associativity_witness(table):
    """The first (x, y, z), in that order, with (x+y)+z != x+(y+z), or None,
    by one v x v slab of (x+y)+z against x+(y+z) per x."""
    arr = np.asarray(table)
    for x in range(len(arr)):
        lhs, rhs = arr[arr[x]], arr[x][arr]
        if not np.array_equal(lhs, rhs):
            y, z = map(int, np.argwhere(lhs != rhs)[0])
            return x, y, z
    return None


def naive_inverse_witness(table):
    """(witness, message) of the first x, in order, whose first right
    inverse y (the first zero of row x) is not a left inverse, or that has
    none; None when every element has a two-sided inverse."""
    arr = np.asarray(table)
    for x in range(len(arr)):
        zeros = np.flatnonzero(arr[x] == 0)
        if len(zeros) == 0:
            return (x,), f"element {x} has no right inverse"
        y = int(zeros[0])
        if arr[y, x] != 0:
            return (x, y), f"{x} + {y} = 0 but {y} + {x} = {int(arr[y, x])}"
    return None


def naive_hom_witness(group, table):
    """The first (x, y), in that order, with f(x+y) != f(x)+f(y), or None."""
    for x in group.elements():
        for y in group.elements():
            if table[group.add(x, y)] != group.add(table[x], table[y]):
                return x, y
    return None


def naive_is_closed(maps) -> bool:
    """Whether every composition a∘b of two listed maps is listed."""
    tables = {m.table for m in maps}
    return all(tuple(a.table[x] for x in b.table) in tables for a in maps for b in maps)


def naive_normalizing_witness(psi, maps):
    """The first (ψ, σ), ψ in list order and then σ, with ψσψ⁻¹ not in S, as
    the {"psi", "sigma", "conjugate"} witness of "Ψ normalizes S"; or None."""
    tables = {m.table for m in maps}
    for p in psi:
        inv = [0] * len(p.table)
        for x, y in enumerate(p.table):
            inv[y] = x
        for s in maps:
            conj = tuple(p.table[s.table[inv[x]]] for x in range(len(inv)))
            if conj not in tables:
                return {"psi": list(p.table), "sigma": list(s.table), "conjugate": list(conj)}
    return None


def naive_center_tables(phi) -> list:
    """Tables of the members that commute with every member, sorted."""
    def comp(a, b):
        return tuple(a.table[x] for x in b.table)
    return sorted(a.table for a in phi if all(comp(a, b) == comp(b, a) for b in phi))


def naive_non_automorphism(blocks, perms):
    """The first permutation that maps some block outside the block set, or None."""
    blocks = {tuple(sorted(b)) for b in blocks}
    for perm in perms:
        if any(tuple(sorted(perm[x] for x in b)) not in blocks for b in blocks):
            return tuple(perm)
    return None


# The per-element field products and matrix map, the block-set scan and the
# tuple BFS that the Z_p-linear maps and the array checks replaced.

def naive_field_mult_table(field, a) -> list:
    """The index of a*x for every x, one polynomial product each."""
    a = tuple(int(c) for c in a)
    return [field.element_index(field.mul(a, field.element_at(x))) for x in range(field.order)]


def naive_matrix_table(p: int, k: int, rows) -> list:
    """The index of M.x mod p for every x of (Z_p)^k, digit vector by digit vector."""
    out = []
    for x in range(p ** k):
        d = digits_of(x, p, k)
        out.append(index_of_digits([sum(rows[r][c] * d[c] for c in range(k)) % p
                                    for r in range(k)], p))
    return out


def naive_multiplicative_order(field, a) -> int:
    """The least n with a^n = 1, one product per step."""
    a = field._check(a)
    if a == field.zero:
        raise InvalidParameterError("the zero element has no multiplicative order")
    n, acc = 1, a
    while acc != field.one:
        acc = field.mul(acc, a)
        n += 1
    return n


def naive_is_design_automorphism(perm, design) -> bool:
    """Whether the permutation maps every block into the block set."""
    perm = tuple(int(p) for p in perm)
    if len(perm) != design.v or len(set(perm)) != design.v \
            or any(p not in range(design.v) for p in perm):
        raise InvalidParameterError("permutation must be a bijection on the points")
    blocks = set(design.blocks)
    return all(tuple(sorted(perm[x] for x in block)) in blocks for block in blocks)


def naive_is_doubly_transitive(perms, v: int) -> bool:
    """Breadth-first orbit of (0, 1) over tuples of ordered pairs."""
    if v < 2:
        raise InvalidParameterError("need at least 2 points for ordered pairs")
    gens = []
    for perm in perms:
        p = tuple(int(x) for x in perm)
        if len(p) != v or len(set(p)) != v or any(x not in range(v) for x in p):
            raise InvalidParameterError("permutation must be a bijection on the points")
        gens.append(p)
    seen = {(0, 1)}
    frontier = [(0, 1)]
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


# The comprehension table builders and the pair-by-pair canonical check that
# the mixed-radix numpy tables replaced.

def naive_cyclic_table(n: int) -> list:
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def naive_elementary_abelian_table(p: int, k: int) -> list:
    """(Z_p)^k, index = sum(digit_i * p^i), entry by entry."""
    digs = [digits_of(i, p, k) for i in range(p ** k)]
    return [[index_of_digits([(a + b) % p for a, b in zip(dx, dy)], p) for dy in digs]
            for dx in digs]


def naive_direct_product_table(factors) -> list:
    """Componentwise product, the first factor the least significant digit."""
    orders = [g.order for g in factors]

    def decode(i):
        out = []
        for o in orders:
            i, r = divmod(i, o)
            out.append(r)
        return out

    def encode(parts):
        i = 0
        for o, x in zip(reversed(orders), reversed(parts)):
            i = i * o + x
        return i

    v = 1
    for o in orders:
        v *= o
    coords = [decode(i) for i in range(v)]
    return [[encode([g.add(a, b) for g, a, b in zip(factors, cx, cy)]) for cy in coords]
            for cx in coords]


def naive_elementary_abelian_shape(group: FiniteGroup) -> tuple[int, int]:
    """(p, k) if the group has the canonical (Z_p)^k table, else
    InvalidParameterError, re-deriving the digits of every sum."""
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
    digs = [digits_of(i, p, k) for i in range(v)]
    sums = group.array.tolist()
    for x in range(v):
        for y in range(v):
            expected = index_of_digits([(a + b) % p for a, b in zip(digs[x], digs[y])], p)
            if sums[x][y] != expected:
                raise InvalidParameterError(
                    "group table does not match the canonical elementary abelian encoding")
    return (p, k)
