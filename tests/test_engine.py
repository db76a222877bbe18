"""The numpy block engine against the loops it replaced: development,
difference counts and pair coverage on random families, verify_bibd's
outcome on every kind of rejected or unusual input, the builders' array
intake and the inverse check."""

from __future__ import annotations

import gc
import itertools
import json
import random
import tracemalloc

import numpy as np
import pytest

from sdfam import (
    Design,
    DesignCheckError,
    FiniteGroup,
    GroupAxiomError,
    InvalidParameterError,
    LabeledFamily,
    SdfCheckError,
    build_cyclic,
    build_direct_product,
    build_elementary_abelian,
    build_from_cayley,
    closure,
    development,
    orbit,
    scalar_endo,
    verify_bibd,
    verify_sdf,
)
from sdfam.families import _bibd_scan
from sdfam.specs import design_to_doc, dump_json

import support


@pytest.fixture(scope="module")
def engine_groups(s3, d4, q8_group):
    groups = [build_cyclic(n) for n in (2, 3, 5, 6, 7, 9, 12, 13)]
    groups += [build_elementary_abelian(2, 2), build_elementary_abelian(2, 3),
               build_elementary_abelian(3, 2),
               build_direct_product([build_cyclic(2), build_cyclic(4)]),
               s3, d4, q8_group, support.alternating_group_4()]
    return groups


def random_families(groups, seed: int, count: int):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        family = support.random_labeled_family(rng, rng.choice(groups))
        if family is not None:
            out.append(family)
    return out


def edge_families(group):
    """k = 1, k = v, mixed block sizes, and a block beside its complement."""
    v = group.order
    whole = tuple(group.elements())
    singletons = [(x,) for x in whole]
    mixed = [(0,), (0, 1), whole[:min(v, 3)], whole]
    for blocks in (singletons, [whole], mixed, mixed + singletons, [(0,), whole[1:]]):
        yield LabeledFamily(group, tuple(enumerate(blocks)))


def outcome(fn, *args):
    """What a call returns, or the class, message, condition and witness it raises."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # every outcome is compared, whatever its class
        return type(exc), str(exc), getattr(exc, "condition", None), getattr(exc, "witness", None)


def assert_int_tuples(blocks):
    assert type(blocks) is tuple
    assert all(type(b) is tuple and all(type(x) is int for x in b) for b in blocks)
    assert list(blocks) == sorted(blocks)


def long_block_families(seed: int, count: int):
    """Families over Z_100 with blocks longer than the 9 base-100 digits
    that fit in one int64 sort key."""
    rng = random.Random(seed)
    z100 = build_cyclic(100)
    out = []
    for _ in range(count):
        k = rng.randint(10, 40)
        blocks = [tuple(sorted(rng.sample(range(100), k))) for _ in range(3)]
        out.append(LabeledFamily(z100, tuple(enumerate(blocks))))
    return out


def one_size(family) -> bool:
    return len(set(map(len, family.blocks()))) == 1


def developed_tuples(family) -> tuple:
    """The development as tuples; a mixed-size family, which development
    refuses, through the naive loop."""
    if one_size(family):
        return support.development_tuples(family)
    return support.naive_development(family)


def test_development_matches_the_tuple_loop(engine_groups):
    families = random_families(engine_groups, 8, 500) + long_block_families(8, 20)
    families += [f for g in engine_groups for f in edge_families(g)]
    mixed = 0
    for family in families:
        if not one_size(family):
            with pytest.raises(InvalidParameterError, match="blocks of one size"):
                development(family)
            mixed += 1
            continue
        got = support.development_tuples(family)
        assert got == support.naive_development(family)
        assert_int_tuples(got)
    assert mixed > 0


def test_development_is_one_c_contiguous_int64_array(engine_groups):
    families = random_families(engine_groups, 12, 200) + long_block_families(12, 5)
    families += [f for g in engine_groups for f in edge_families(g)]
    for family in filter(one_size, families):
        got = development(family)
        assert got.dtype == np.int64 and got.flags.c_contiguous
        assert got.shape == (len(support.naive_development(family)), len(family.entries[0].block))
        rows = got.tolist()
        assert rows == sorted(rows) and all(r == sorted(r) for r in rows)
    empty = development(LabeledFamily(engine_groups[0], ()))
    assert empty.shape == (0, 0) and empty.dtype == np.int64
    with pytest.raises(InvalidParameterError, match="design has no blocks"):
        verify_bibd(engine_groups[0].order, empty)


def naive_count_outcome(family):
    """verify_sdf's verdict from naive_diff_counts, once the block, stabilizer
    and class sizes are uniform: lam_prime, or (condition, witness)."""
    counts = support.naive_diff_counts(family.group, family.entries)
    lam = counts[1]
    for d in range(2, family.group.order):
        if counts[d] != lam:
            return "difference-count", {"d_a": 1, "count_a": lam, "d_b": d, "count_b": counts[d]}
    if lam == 0:
        return "difference-count", {"d": 1, "count": 0}
    return lam


NAIVE_UNIFORMITY = {"stabilizer-size": "uniform stabilizer size", "class-size": "uniform class size"}


def test_difference_counts_match_the_naive_count(engine_groups):
    draws = random_families(engine_groups, 9, 600)
    families = draws + [f for g in engine_groups for f in edge_families(g)]
    seen = {"pass": 0, "stabilizer-size": 0, "class-size": 0, "difference-count": 0,
            "divisibility": 0}
    for n, family in enumerate(families):
        try:
            cert = verify_sdf(family)
        except SdfCheckError as exc:
            if exc.condition == "block-size":
                continue
            uniformity = support.naive_uniformity_failure(family)
            if exc.condition in NAIVE_UNIFORMITY:
                assert (NAIVE_UNIFORMITY[exc.condition], exc.witness) == uniformity
                assert all(type(x) is int for x in exc.witness.values())
                seen[exc.condition] += n < len(draws)
                continue
            assert uniformity is None
            expected = naive_count_outcome(family)
            if exc.condition == "divisibility":
                assert exc.witness["lam_prime"] == expected
            else:
                assert (exc.condition, exc.witness) == expected
                assert all(type(x) is int for x in exc.witness.values())
            seen[exc.condition] += 1
            continue
        assert support.naive_uniformity_failure(family) is None
        assert cert.lam_prime == naive_count_outcome(family)
        assert type(cert.lam_prime) is int and type(cert.lam) is int
        assert all(type(x) is int for x in (cert.mu, cert.nu))
        seen["pass"] += 1
    assert seen["pass"] > 50 and seen["difference-count"] > 50
    assert seen["stabilizer-size"] > 0 and seen["class-size"] > 0, seen


def all_subsets_design(v: int, k: int) -> list:
    return list(itertools.combinations(range(v), k))


def perturbations(rng, v: int, blocks: list):
    """The blocks themselves and variants that break each check verify_bibd makes."""
    i = rng.randrange(len(blocks))
    block = blocks[i]
    outside = [p for p in range(v) if p not in block]
    yield blocks
    yield list(reversed(blocks))
    yield rng.sample(blocks, len(blocks))
    yield [tuple(reversed(b)) for b in blocks]
    yield [list(b) for b in blocks]
    yield blocks[:i] + blocks[i + 1:]
    yield blocks + [block]
    yield rng.sample(blocks + blocks, 2 * len(blocks))
    yield blocks[:i] + [block + block[:1]] + blocks[i + 1:]
    yield blocks[:i] + [()] + blocks[i + 1:]
    yield blocks[:i] + [block[:-1] + (v,)] + blocks[i + 1:]
    yield blocks[:i] + [(-1,) + block[1:]] + blocks[i + 1:]
    if len(block) > 1:
        yield blocks[:i] + [block[1:]] + blocks[i + 1:]
    if outside:
        yield blocks[:i] + [block + (rng.choice(outside),)] + blocks[i + 1:]
        swapped = tuple(sorted(set(block) - {rng.choice(block)} | {rng.choice(outside)}))
        yield blocks[:i] + [swapped] + blocks[i + 1:]


def assert_bibd_as_the_scan(v: int, blocks) -> str:
    """verify_bibd gives the scan's outcome, and the naive check's verdict."""
    got = outcome(verify_bibd, v, blocks)
    assert got == outcome(_bibd_scan, v, blocks)
    if got[0] == "ok":
        design = got[1]
        assert_int_tuples(design.blocks)
        assert support.naive_design_violation(v, blocks) is None
        assert design.lam == support.naive_pair_counts(v, blocks)[(0, 1)]
        return "pass"
    if got[0] is DesignCheckError:
        assert (got[2], got[3]) == support.naive_design_violation(v, blocks)
        return got[2]
    return got[0].__name__


def test_verify_bibd_matches_the_scan_on_perturbed_developments(engine_groups):
    rng = random.Random(10)
    families = random_families(engine_groups, 10, 150) + long_block_families(10, 2)
    families += [f for g in engine_groups for f in edge_families(g)]
    designs = [(f.group.order, list(developed_tuples(f))) for f in families]
    designs += [(v, all_subsets_design(v, k))
                for v, k in ((2, 1), (3, 2), (6, 2), (7, 3), (5, 5), (20, 19))]
    seen = set()
    for v, blocks in designs:
        for perturbed in perturbations(rng, v, blocks):
            if perturbed:  # verify_bibd rejects an empty list before either pass
                seen.add(assert_bibd_as_the_scan(v, perturbed))
    assert seen == {"pass", "repeated-block", "block-size", "pair-coverage",
                    "InvalidParameterError"}


def array_forms(blocks: list):
    """The blocks as an int64 array, an int32 array, a non-contiguous slice
    and a read-only array; none for ragged blocks."""
    try:
        arr = np.array(blocks, dtype=np.int64)
    except ValueError:
        return
    if arr.ndim != 2:
        return
    yield arr
    yield arr.astype(np.int32)
    yield np.repeat(arr, 2, axis=0)[::2]
    frozen = arr.copy()
    frozen.flags.writeable = False
    yield frozen


def test_verify_bibd_reads_int_arrays_as_their_lists(engine_groups):
    rng = random.Random(13)
    families = random_families(engine_groups, 13, 60) + long_block_families(13, 2)
    families += [f for g in engine_groups for f in edge_families(g)]
    designs = [(f.group.order, list(support.development_tuples(f)))
               for f in filter(one_size, families)]
    designs.append((7, all_subsets_design(7, 3)))
    forms = 0
    for v, blocks in designs:
        for perturbed in perturbations(rng, v, blocks):
            if not perturbed:
                continue
            expected = outcome(_bibd_scan, v, perturbed)
            for arr in array_forms(perturbed):
                before = arr.copy()
                assert outcome(verify_bibd, v, arr) == expected
                assert np.array_equal(arr, before) and arr.dtype == before.dtype
                forms += 1
    assert forms > 1000


@pytest.mark.parametrize("v, k", [(4, 2), (6, 2), (7, 3), (7, 2)])
def test_every_dropped_block_of_a_complete_design_is_found(v, k):
    # Each pair count is checked: dropping any one block uncovers its pairs only.
    blocks = all_subsets_design(v, k)
    for i in range(len(blocks)):
        assert assert_bibd_as_the_scan(v, blocks[:i] + blocks[i + 1:]) == "pair-coverage"


def test_lambda_zero_and_single_points():
    assert assert_bibd_as_the_scan(3, [(0,), (1,), (2,)]) == "pair-coverage"
    with pytest.raises(DesignCheckError) as err:
        verify_bibd(3, [(0,), (1,), (2,)])
    assert err.value.witness == {"pair": [0, 1], "count": 0}


FANO = [(0, 1, 3), (1, 2, 4), (2, 3, 5), (3, 4, 6), (0, 4, 5), (1, 5, 6), (0, 2, 6)]

UNUSUAL_ENTRIES = {
    "bools": (2, [(False, True)]),
    "bool-and-int": (3, [(0, True), (0, 2), (True, 2)]),
    "floats": (7, [tuple(float(x) for x in b) for b in FANO]),
    "truncated-floats": (3, [(0.5, 1.5), (0, 2.9), (1, 2)]),
    "numeric-strings": (7, [tuple(str(x) for x in b) for b in FANO]),
    "padded-strings": (3, [(" 0", "1 "), ("0", "2"), ("1", "2")]),
    "string-blocks": (3, ["01", "02", "12"]),
    "non-numeric-string": (3, [("0", "x"), (0, 2), (1, 2)]),
    "sets": (7, [set(b) for b in FANO]),
    "frozensets-repeated": (7, [frozenset(b) for b in FANO] + [frozenset(FANO[0])]),
    "beyond-int64": (3, [(0, 2 ** 64), (0, 2), (1, 2)]),
    "at-int64": (3, [(0, 2 ** 63), (0, 2), (1, 2)]),
    "far-negative": (3, [(-(2 ** 70), 1), (0, 2), (1, 2)]),
    "numpy-int32": (7, [tuple(np.int32(x) for x in b) for b in FANO]),
    "numpy-rows": (7, list(np.array(FANO))),
    "numpy-uint64": (7, [tuple(np.uint64(x) for x in b) for b in FANO]),
    "ragged": (7, FANO[:3] + [(3, 4)] + FANO[4:]),
    "nested": (7, [[b] for b in FANO]),
    "ragged-nested": (3, [[(0,), (1, 2)], [(0,), (2, 1)]]),
    "none-entry": (3, [(0, None), (0, 2), (1, 2)]),
    "int-block": (3, [5, (0, 2), (1, 2)]),
}


@pytest.mark.parametrize("name", UNUSUAL_ENTRIES)
def test_unusual_entries_give_the_scans_outcome(name):
    v, blocks = UNUSUAL_ENTRIES[name]
    got = outcome(verify_bibd, v, blocks)
    assert got == outcome(_bibd_scan, v, blocks)
    if got[0] == "ok":
        assert_int_tuples(got[1].blocks)


def test_one_shot_iterator_blocks_are_read_once():
    design = verify_bibd(7, [iter(b) for b in FANO])
    assert design == _bibd_scan(7, FANO)
    assert_int_tuples(design.blocks)


def test_development_and_design_blocks_serialize(z13):
    phi = closure([scalar_endo(z13, 3)])
    family = LabeledFamily(z13, tuple((x, orbit(phi, x)) for x in z13.nonzero()))
    blocks = support.development_tuples(family)
    assert_int_tuples(blocks)
    design = verify_bibd(13, blocks)
    assert_int_tuples(design.blocks)
    doc = json.loads(json.dumps(design_to_doc(design)))
    assert doc["blocks"] == [list(b) for b in blocks] and doc["lambda"] == 2


def test_design_of_a_development_serializes(z7):
    # Design normalises the development's int64 entries to ints.
    family = LabeledFamily(z7, ((0, (0, 1, 3)),))
    design = Design(7, 3, 1, development(family))
    assert_int_tuples(design.blocks)
    doc = json.loads(dump_json(design_to_doc(design)))
    assert doc["blocks"] == [list(b) for b in support.naive_development(family)]
    assert Design(7, 3, 1, (tuple(b) for b in doc["blocks"])) == design
    with pytest.raises(TypeError):
        Design(7, 3, 1, development(family).astype(float))


def traced_peak(fn) -> tuple:
    """The tracemalloc peak of a call, and its result."""
    gc.collect()
    tracemalloc.start()
    try:
        result = fn()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_array_engine_peaks_no_higher_than_the_tuple_path():
    group = build_cyclic(509)
    phi = closure([scalar_endo(group, pow(2, 508 // 4, 509))])
    family = LabeledFamily(group, tuple((x, orbit(phi, x)) for x in group.nonzero()))
    peak, design = traced_peak(lambda: verify_bibd(509, development(family)))
    oracle_peak, oracle = traced_peak(lambda: _bibd_scan(509, support.naive_development(family)))
    assert len(design.blocks) == 64643 and design == oracle
    assert peak <= oracle_peak


def test_a_group_keeps_one_table():
    # The (509, 509) int64 entries take 2,072,648 bytes; a tuple view of the
    # table took 2.1 MB more.
    gc.collect()
    tracemalloc.start()
    try:
        group = build_cyclic(509)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert not hasattr(group, "table") and retained < 2_500_000


def damaged_tables(rng, group, count: int):
    """Copies of the table with up to three entries outside row and column 0
    changed, so the entries stay points and 0 stays the identity."""
    v = group.order
    for _ in range(count):
        arr = group.array.copy()
        for _ in range(rng.randint(1, 3)):
            arr[rng.randrange(1, v), rng.randrange(1, v)] = rng.randrange(v)
        yield arr.tolist()


def test_inverse_check_names_the_loops_witness(engine_groups):
    rng = random.Random(11)
    seen = set()
    for group in engine_groups:
        if group.order < 3:
            continue
        for table in damaged_tables(rng, group, 40):
            expected = support.naive_inverse_witness(table)
            if expected is None:
                continue
            with pytest.raises(GroupAxiomError) as err:
                build_from_cayley(table)
            assert (err.value.axiom, err.value.witness, str(err.value)) == ("inverse",) + expected
            seen.add(len(expected[0]))
    assert seen == {1, 2}


def test_builders_keep_a_read_only_int64_array(s3):
    for group in (build_cyclic(12), build_elementary_abelian(3, 2),
                  build_direct_product([build_cyclic(2), s3]), s3):
        arr = group.array
        assert arr.dtype == np.int64 and not arr.flags.writeable
        assert not hasattr(group, "table")
        assert all(type(group.add(x, y)) is int and type(group.sub(x, y)) is int
                   for x in group.elements() for y in group.elements())
        assert all(type(x) is int for x in group.negs)


def test_an_int64_array_gives_the_group_of_its_list(s3):
    arr = s3.array.copy()
    group = FiniteGroup(arr.tolist())
    same = FiniteGroup(arr)
    assert (same.array.tolist(), same.negs, same.commutative, same.generators) \
        == (group.array.tolist(), group.negs, group.commutative, group.generators)
    assert arr.flags.writeable and same.array is not arr
    arr[1, 1] = 0
    assert same.array[1, 1] == group.array[1, 1] == s3.add(1, 1)


@pytest.mark.parametrize("entry", [6, -1])
def test_an_int64_array_with_an_entry_outside_gets_the_list_message(entry):
    table = np.add.outer(np.arange(6), np.arange(6)) % 6
    table[2, 3] = entry
    for form in (table, table.tolist()):
        with pytest.raises(InvalidParameterError, match=r"table entry at \(2,3\) is outside \[0,6\)"):
            FiniteGroup(form)
