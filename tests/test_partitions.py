"""Diagram combinatorics: transpose, run-length blocks, dominance order."""

import pytest
from hypothesis import given, settings, strategies as st

from negdim.partitions import (block_param, check_partition, dominance_leq,
                               format_partition, parse_partition,
                               partitions_of_weight, partitions_up_to_weight,
                               rectangle, transpose, weight)


@st.composite
def small_partitions(draw, max_weight=8):
    w = draw(st.integers(0, max_weight))
    options = list(partitions_of_weight(w))
    return draw(st.sampled_from(options))


def test_transpose_examples():
    assert transpose((3, 1)) == (2, 1, 1)
    assert transpose(()) == ()
    assert transpose(rectangle(4, 3)) == (3, 3, 3, 3)


@given(small_partitions())
@settings(max_examples=80, deadline=None)
def test_transpose_involutive(lam):
    assert transpose(transpose(lam)) == lam
    assert weight(transpose(lam)) == weight(lam)


def test_block_param_examples():
    bp = block_param((3, 3, 1))
    assert bp.count == 2
    assert bp.a == (2, 1) and bp.b == (1, 2)
    assert bp.A == (0, 2, 3) and bp.B == (0, 1, 3)

    empty = block_param(())
    assert empty.count == 0
    assert empty.A == (0,) and empty.B == (0,)

    rect = block_param(rectangle(5, 2))
    assert rect.count == 1
    assert rect.a == (2,) and rect.b == (5,)


def test_block_param_reconstructs():
    # block j holds a[j] rows of width B[count - j], top to bottom
    for lam in partitions_up_to_weight(8):
        bp = block_param(lam)
        rebuilt = tuple(bp.B[bp.count - j] for j in range(bp.count)
                        for _ in range(bp.a[j]))
        assert rebuilt == lam


def test_block_transpose_swap_exhaustive():
    # transposition exchanges the row and column run data
    for lam in partitions_up_to_weight(8):
        ours, flipped = block_param(lam), block_param(transpose(lam))
        assert ours.A == flipped.B and ours.B == flipped.A


def test_dominance_examples():
    assert dominance_leq((1, 1, 1), (2, 1))
    assert dominance_leq((2, 2), (3, 1))
    assert not dominance_leq((3, 1), (2, 2))
    with pytest.raises(ValueError):
        dominance_leq((2,), (1,))


@given(small_partitions())
@settings(max_examples=60, deadline=None)
def test_dominance_is_reflexive_and_antisymmetric(lam):
    assert dominance_leq(lam, lam)
    for mu in partitions_of_weight(weight(lam)):
        if dominance_leq(mu, lam) and dominance_leq(lam, mu):
            assert mu == lam


def test_partition_counts():
    assert len(list(partitions_of_weight(6))) == 11
    assert len(list(partitions_up_to_weight(6))) == 30


def test_check_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        check_partition((1, 2))
    with pytest.raises(ValueError):
        check_partition((2, -1))
    # trailing zeros are padding, not an error
    assert check_partition((2, 0)) == (2,)


def test_parse_format_roundtrip():
    assert parse_partition("3,2,1") == (3, 2, 1)
    assert parse_partition("0") == ()
    assert format_partition(()) == "0"
    for lam in partitions_up_to_weight(6):
        assert parse_partition(format_partition(lam)) == lam
