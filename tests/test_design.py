"""Design as one sorted (b, k) int64 array: the checked constructor against
the tuple oracle on random block lists, verify_bibd against the scan on
the same lists, and the points-outside-[0, v) check."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdfam import Design, InvalidParameterError, verify_bibd
from sdfam.families import _bibd_scan

import support

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def outcome(fn, *args):
    """What a call returns, or the class, condition and witness it raises."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # every outcome is compared, whatever its class
        return type(exc), getattr(exc, "condition", None), getattr(exc, "witness", None)


@st.composite
def block_lists(draw):
    """(v, blocks): all k-subsets of v points (a 2-design), or random blocks
    of points in [-1, v], with blocks dropped, repeated, resized, shuffled
    and their points shuffled."""
    v = draw(st.integers(2, 6))
    k = draw(st.integers(1, v))
    if draw(st.booleans()):
        blocks = [list(b) for b in itertools.combinations(range(v), k)]
    else:
        point = st.integers(-1, v)
        blocks = draw(st.lists(st.lists(point, min_size=k, max_size=k), min_size=1, max_size=10))
    edits = draw(st.lists(st.tuples(st.sampled_from("drop repeat resize".split()),
                                    st.integers(0, 99)), max_size=2))
    for edit, i in edits:
        i %= len(blocks)
        if edit == "drop" and len(blocks) > 1:
            del blocks[i]
        elif edit == "repeat":
            blocks.append(list(blocks[i]))
        elif edit == "resize":
            blocks[i] = blocks[i][1:] if len(blocks[i]) > 1 else blocks[i] + [v - 1]
    blocks = draw(st.permutations(blocks))
    return v, [draw(st.permutations(b)) for b in blocks]


@SETTINGS
@given(block_lists())
def test_verify_bibd_gives_the_scans_outcome(case):
    v, blocks = case
    assert outcome(verify_bibd, v, blocks) == outcome(_bibd_scan, v, blocks)


@SETTINGS
@given(block_lists(), st.randoms(use_true_random=False))
def test_design_matches_the_tuple_oracle(case, rng):
    v, blocks = case
    k = len(blocks[0])
    expected = outcome(support.naive_design, v, k, 1, blocks)
    got = outcome(Design, v, k, 1, blocks)
    if all(len(b) == k for b in blocks):
        assert outcome(Design, v, k, 1, np.array(blocks))[0] == got[0]
    if expected[0] != "ok":
        assert got[0] is expected[0]
        return
    design = got[1]
    assert design == Design(v, k, 1, expected[1][3])
    assert design.blocks == expected[1][3]
    assert design.rows.dtype == np.int64 and design.rows.shape == (len(blocks), k)
    assert design.rows.flags.c_contiguous and not design.rows.flags.writeable
    # The same blocks in another order, and as an array, give an equal Design.
    shuffled = [rng.sample(b, len(b)) for b in rng.sample(blocks, len(blocks))]
    for other in (Design(v, k, 1, shuffled), Design(v, k, 1, np.array(shuffled, dtype=np.int32))):
        assert other == design and hash(other) == hash(design)
    assert design != Design(v, k, 2, blocks)


@pytest.mark.parametrize("blocks", [[(-1, 0), (1, 2)], [(0, 5), (1, 2)], [(0, 3), (1, 2)],
                                    [(0, 2 ** 64), (1, 2)], np.array([[-1, 0], [1, 2]]),
                                    np.array([[0, 2 ** 63 + 1], [1, 2]], dtype=np.uint64)])
def test_points_outside_the_point_set_are_refused(blocks):
    with pytest.raises(InvalidParameterError, match=r"design points must lie in \[0,3\)"):
        Design(3, 2, 1, blocks)


def test_an_array_is_copied_and_left_as_it_was():
    arr = np.array([[3, 1, 0], [2, 1, 4]])
    design = Design(5, 3, 1, arr)
    assert design.rows.tolist() == [[0, 1, 3], [1, 2, 4]]
    assert arr.tolist() == [[3, 1, 0], [2, 1, 4]] and arr.flags.writeable
    with pytest.raises(ValueError):
        design.rows[0, 0] = 4
