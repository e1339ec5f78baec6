"""Item sets as bitmasks over item indices 0..m-1."""

from __future__ import annotations

from typing import Iterator

MAX_ITEMS = 20  # dense 2^m tables stay desk-scale below this


def full_set(m: int) -> int:
    return (1 << m) - 1


def members(s: int) -> list[int]:
    """Item indices in s, ascending."""
    return [j for j in range(int(s).bit_length()) if s >> j & 1]


def from_items(items) -> int:
    s = 0
    for j in items:
        s |= 1 << j
    return s


def subsets(s: int) -> Iterator[int]:
    """All subsets of s, including 0 and s itself."""
    sub = s
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & s


def is_subset(a: int, b: int) -> bool:
    return a & ~b == 0
