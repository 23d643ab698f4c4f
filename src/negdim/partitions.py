"""Young diagrams: transposition, dominance order and block coordinates.

A partition is stored as a tuple of weakly decreasing positive integers;
() is the empty diagram.  The block (run-length) coordinates encode a
diagram by its maximal runs of equal rows and equal columns; transposing
the diagram exchanges the row data with the column data, which is the
combinatorial heart of every rank-negation identity downstream.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Tuple

Partition = Tuple[int, ...]


def check_partition(parts: Iterable[int]) -> Partition:
    """Normalize to a canonical partition tuple (trailing zeros dropped)."""
    seq = list(parts)
    while seq and seq[-1] == 0:
        seq.pop()
    for i, p in enumerate(seq):
        if not isinstance(p, int) or p <= 0:
            raise ValueError(f"parts must be positive integers, got {seq}")
        if i and seq[i - 1] < p:
            raise ValueError(f"parts must be weakly decreasing, got {seq}")
    return tuple(seq)


def weight(lam: Partition) -> int:
    return sum(lam)


def transpose(lam: Partition) -> Partition:
    """Conjugate diagram: column lengths become row lengths."""
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= j) for j in range(1, lam[0] + 1))


def rectangle(p: int, q: int) -> Partition:
    """q rows of width p."""
    if p <= 0 or q <= 0:
        raise ValueError("rectangle sides must be positive")
    return (p,) * q


def partitions_of_weight(d: int, max_part: int | None = None) -> Iterator[Partition]:
    """All partitions of d in descending lexicographic order.

    Descending lex refines dominance downward, so iterating this order and
    solving as you go is valid for any dominance-triangular system.
    """
    if d < 0:
        return
    if d == 0:
        yield ()
        return
    bound = d if max_part is None else min(max_part, d)
    for first in range(bound, 0, -1):
        for rest in partitions_of_weight(d - first, first):
            yield (first,) + rest


def partitions_up_to_weight(max_weight: int) -> Iterator[Partition]:
    for d in range(max_weight + 1):
        yield from partitions_of_weight(d)


def dominance_leq(mu: Partition, lam: Partition) -> bool:
    """Partial order: prefix sums of mu never exceed those of lam.

    Defined only within a single weight class.
    """
    if sum(mu) != sum(lam):
        raise ValueError(f"dominance needs equal weights: {mu} vs {lam}")
    total_mu = 0
    total_lam = 0
    for j in range(max(len(mu), len(lam))):
        total_mu += mu[j] if j < len(mu) else 0
        total_lam += lam[j] if j < len(lam) else 0
        if total_mu > total_lam:
            return False
    return True


class BlockParam(NamedTuple):
    """Run-length coordinates of a diagram.

    a[i] counts the rows in the i-th maximal run of equal row widths (top
    to bottom); b[i] counts the columns in the i-th maximal run of equal
    column heights (left to right).  A and B are the prefix sums, padded
    with a leading 0, so A[-1] is the number of rows and B[-1] the first
    row's width.  Transposing the diagram exchanges (a, A) with (b, B).
    """

    count: int
    a: Tuple[int, ...]
    b: Tuple[int, ...]
    A: Tuple[int, ...]
    B: Tuple[int, ...]


def block_param(lam: Partition) -> BlockParam:
    lam = check_partition(lam)
    if not lam:
        return BlockParam(count=0, a=(), b=(), A=(0,), B=(0,))
    # runs of equal parts, top to bottom
    values = []
    mults = []
    for part in lam:
        if values and values[-1] == part:
            mults[-1] += 1
        else:
            values.append(part)
            mults.append(1)
    k = len(values)
    prefix_a = [0]
    for m in mults:
        prefix_a.append(prefix_a[-1] + m)
    # B[j] is the j-th smallest distinct part value; equivalently the
    # prefix sums of column runs read left to right.
    prefix_b = [0] + values[::-1]
    widths = tuple(prefix_b[j + 1] - prefix_b[j] for j in range(k))
    return BlockParam(count=k, a=tuple(mults), b=widths,
                      A=tuple(prefix_a), B=tuple(prefix_b))


def parse_partition(text: str) -> Partition:
    """Parse "3,2,1"; "" and "0" denote the empty diagram."""
    text = text.strip()
    if text in ("", "0"):
        return ()
    try:
        parts = [int(piece) for piece in text.split(",")]
    except ValueError:
        raise ValueError(f"cannot parse partition from {text!r}") from None
    return check_partition(parts)


def format_partition(lam: Partition) -> str:
    return ",".join(str(p) for p in lam) if lam else "0"
