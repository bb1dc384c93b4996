"""Integer partitions, star partitions, and the majorization orders used
throughout the pencil laboratory.

A *partition* is a weakly decreasing tuple of nonnegative integers with
trailing zeros stripped, so ``(2, 1)``, ``(2, 1, 0)`` and ``(2, 1, 0, 0)``
all denote the same object.  Indexing past the stored length reads 0.

A *star partition* carries a distinguished zeroth term in front of an
ordinary partition tail; the whole sequence (zeroth, tail...) is weakly
decreasing.  Star partitions are the natural home of the column/row
Brunovsky data of a pencil, where the zeroth term counts minimal indices
(zero ones included).

Finite sequences are deliberately *not* collapsed to partitions: the
one-step majorization predicate depends on their exact lengths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

Partition = tuple[int, ...]


def partition(parts: Iterable[int]) -> Partition:
    """Normalize an iterable into a partition (validates monotonicity)."""
    p = tuple(int(x) for x in parts)
    while p and p[-1] == 0:
        p = p[:-1]
    if any(x < 0 for x in p):
        raise ValueError(f"negative part in partition {p}")
    if any(p[i] < p[i + 1] for i in range(len(p) - 1)):
        raise ValueError(f"parts not weakly decreasing: {p}")
    return p


def part(p: Sequence[int], i: int) -> int:
    """i-th part (1-based), 0 past the end."""
    return p[i - 1] if 1 <= i <= len(p) else 0


def weight(p: Sequence[int]) -> int:
    """Sum of the parts."""
    return sum(p)


def conjugate(p: Sequence[int]) -> Partition:
    """Conjugate partition: k-th part counts entries >= k."""
    q = partition(p)
    if not q:
        return ()
    return tuple(sum(1 for x in q if x >= k) for k in range(1, q[0] + 1))


def add(p: Sequence[int], q: Sequence[int]) -> Partition:
    """Componentwise sum of two partitions."""
    n = max(len(p), len(q))
    return partition(tuple(part(p, i) + part(q, i) for i in range(1, n + 1)))


@dataclass(frozen=True)
class Star:
    """Star partition (p0, p1, p2, ...): a zeroth term plus a partition tail."""

    zeroth: int
    tail: Partition = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "tail", partition(self.tail))
        if self.zeroth < 0:
            raise ValueError("zeroth term must be nonnegative")
        if self.tail and self.zeroth < self.tail[0]:
            raise ValueError(f"star sequence not weakly decreasing: {self}")

    def get(self, i: int) -> int:
        """Entry at index i >= 0 of the full sequence (0 past the end)."""
        return self.zeroth if i == 0 else part(self.tail, i)

    @property
    def tail_weight(self) -> int:
        return weight(self.tail)

    @property
    def star_weight(self) -> int:
        return self.zeroth + weight(self.tail)

    def support(self) -> int:
        """Largest index that may be nonzero (always >= 0)."""
        return len(self.tail)

    def decremented(self, upto: int) -> "Star":
        """Copy with entries 0..upto each lowered by one."""
        seq = [self.get(i) - 1 if i <= upto else self.get(i)
               for i in range(max(upto, self.support()) + 1)]
        if any(x < 0 for x in seq):
            raise ValueError(f"decrement of {self} to index {upto} goes negative")
        return Star(seq[0], tuple(seq[1:]))

    def plus_partition(self, q: Sequence[int]) -> "Star":
        """Add a plain partition componentwise, its first part landing on
        the zeroth term."""
        qq = partition(q)
        n = max(self.support(), len(qq) - 1)
        seq = [self.get(i) + part(qq, i + 1) for i in range(n + 1)]
        return Star(seq[0], tuple(seq[1:]))

    def __str__(self) -> str:
        return "(" + ", ".join(str(self.get(i)) for i in range(self.support() + 1)) + ", 0)"


def star(seq: Iterable[int]) -> Star:
    """Build a star partition from the full sequence (p0, p1, ...)."""
    s = tuple(int(x) for x in seq)
    if not s:
        return Star(0, ())
    return Star(s[0], s[1:])


def star_from_finite_sequence(c: Sequence[int]) -> Star:
    """Star partition (len(c), conjugate(c)) attached to a finite sequence of
    nonnegative integers; the zeroth term records the length."""
    if any(x < 0 for x in c):
        raise ValueError("finite sequence must be nonnegative here")
    return Star(len(c), conjugate(sorted(c, reverse=True)))


def _validate_decreasing(seq: Sequence[int], name: str) -> None:
    if any(seq[i] < seq[i + 1] for i in range(len(seq) - 1)):
        raise ValueError(f"{name} is not weakly decreasing: {tuple(seq)}")


def is_1step_majorized(d: Sequence[int], c: Sequence[int]) -> bool:
    """One-step majorization of finite integer sequences.

    ``d`` must have exactly one more entry than ``c``; both weakly
    decreasing.  True iff c_i = d_{i+1} for h <= i <= p, where p = len(c)
    and h is the first index with c_i < d_i (sentinel c_{p+1} = -inf).
    """
    if len(d) != len(c) + 1:
        raise ValueError(f"length mismatch: len(d)={len(d)} must be len(c)+1={len(c) + 1}")
    _validate_decreasing(d, "d")
    _validate_decreasing(c, "c")
    p = len(c)
    h = p + 1
    for i in range(1, p + 1):
        if c[i - 1] < d[i - 1]:
            h = i
            break
    return all(c[i - 1] == d[i] for i in range(h, p + 1))


def is_conjugate_majorized(s: Star, r: Star) -> bool:
    """Conjugate majorization s <| r: r0 = s0 + 1 and the first entries of r
    exceed those of s by exactly one, up to the last strict-excess index."""
    if r.zeroth != s.zeroth + 1:
        return False
    top = max(r.support(), s.support())
    g = max(i for i in range(top + 1) if r.get(i) > s.get(i))
    return all(r.get(i) == s.get(i) + 1 for i in range(g + 1))


def gap_index(r: Star, s: Star) -> int:
    """Last index where r strictly exceeds s; defined when s is conjugate
    majorized by r."""
    if not is_conjugate_majorized(s, r):
        raise ValueError(f"gap_index requires {s} conjugate majorized by {r}")
    top = max(r.support(), s.support())
    return max(i for i in range(top + 1) if r.get(i) > s.get(i))


def deficit_feasible(p: Star, x: int) -> bool:
    """Is there a star partition q with q <| p and tail weight
    |p.tail| - x?

    With (a1, a2, ...) the conjugate of p.tail: feasible iff p0 = 1 and
    x = a1, or p0 > 1 and (x = a1 or x <= a2).  x may be negative.
    """
    if p.zeroth == 0:
        return False
    a = conjugate(p.tail)
    a1, a2 = part(a, 1), part(a, 2)
    if p.zeroth == 1:
        return x == a1
    return x == a1 or x <= a2


def deficit_construct(p: Star, x: int) -> Star:
    """Explicit witness for :func:`deficit_feasible` (checked postcondition)."""
    if not deficit_feasible(p, x):
        raise ValueError(f"no star partition below {p} with tail deficit {x}")
    a = conjugate(p.tail)
    a1, a2 = part(a, 1), part(a, 2)
    if p.zeroth == 1:
        q = Star(0, ())
    elif x == a1:
        q = Star(p.zeroth - 1, tuple(p.get(i) - 1 for i in range(1, a1 + 1)))
    else:
        # x <= a2: lower the first a2 entries, keep the ones, then pad with
        # extra ones out to index a1 + a2 - x.
        seq = [p.get(i) - 1 for i in range(a2 + 1)]
        seq += [1] * (a1 - a2)
        seq += [1] * (a1 + a2 - x - a1)
        q = Star(seq[0], tuple(seq[1:]))
    assert is_conjugate_majorized(q, p)
    assert q.tail_weight == p.tail_weight - x
    return q


def iter_partitions(total: int) -> Iterator[Partition]:
    """All partitions of exactly ``total``, largest part first."""
    if total == 0:
        yield ()
        return

    def rec(remaining: int, cap: int, prefix: tuple[int, ...]) -> Iterator[Partition]:
        if remaining == 0:
            yield prefix
            return
        for first in range(min(cap, remaining), 0, -1):
            yield from rec(remaining - first, first, prefix + (first,))

    yield from rec(total, total, ())


def iter_decreasing_sequences(length: int, max_entry: int) -> Iterator[tuple[int, ...]]:
    """All weakly decreasing sequences of the given length with entries in
    0..max_entry (length significant, trailing zeros kept)."""
    if length == 0:
        yield ()
        return

    def rec(remaining: int, cap: int, prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield prefix
            return
        for v in range(cap, -1, -1):
            yield from rec(remaining - 1, v, prefix + (v,))

    yield from rec(length, max_entry, ())


def rle(*runs: tuple[int, int]) -> tuple[int, ...]:
    """Expand run-length pairs (value, count) into a flat sequence; used for
    the large fixture partitions."""
    out: list[int] = []
    for value, count in runs:
        out.extend([value] * count)
    return tuple(out)
