"""Partitions of {1..n} with no adjacent pair and no crossing classes.

Such a partition always has at least floor(n/2)+1 classes, and the bound is
attained by putting all odd numbers in one class and each even number in its
own.  The module validates partitions against both conditions (with explicit
witnesses), builds the extremal example, and enumerates every valid partition
for small n so the class-count bound can be checked exhaustively.

Validation decides both conditions in one pass over 1..n; enumeration keeps
the classes the next element may join on a stack of open classes (the
first-block decomposition of non-crossing partitions).
"""

from __future__ import annotations

from .dynamics import _require_int

# Largest n enumerate_valid accepts: Motzkin(n - 1) partitions, 5,798 in 0.06 s at n = 12,
# about 600-680 bytes each if kept (tracemalloc), so n = 20's 18,199,284 would be 12 GB.
MAX_N = 12


class PartitionViolation(ValueError):
    """A partition failing one of the two structural conditions.

    kind is "adjacency" (some class contains i and i+1, witness (i, i+1)) or
    "crossing" (witness (a, b, c, d) with a < b < c < d, a,c in one class and
    b,d in another).
    """

    def __init__(self, kind: str, witness: tuple[int, ...]):
        self.kind = kind
        self.witness = witness
        super().__init__(f"{kind} violation at {witness}")


def _sorted_blocks(blocks) -> list[list[int]]:
    # Each block as a sorted list, in the caller's block order, reading a
    # one-shot iterable once.
    try:
        return [sorted(b) for b in blocks]
    except TypeError:
        raise ValueError("blocks must be collections of integers") from None


def find_violation(n: int, blocks) -> PartitionViolation | None:
    """Return the first structural violation of a partition of {1..n}, if any.

    One pass over 1..n decides whether any class holds two neighbours or any
    two classes cross; the ordered scans run only then, to name the first
    witness: an adjacent pair in block order, else the first crossing pair of
    classes.  Raises ValueError if blocks is not a partition of {1..n} at all
    (bool elements included).
    """
    blocks = _sorted_blocks(blocks)
    class_of: dict[int, int] = {}
    for i, b in enumerate(blocks):
        if not b:
            raise ValueError("empty class in partition")
        for x in b:
            if type(x) is bool or not isinstance(x, int) or not 1 <= x <= n:
                raise ValueError(f"element {x!r} is not an integer in 1..{n}")
            if x in class_of:
                raise ValueError(f"element {x} appears twice")
            class_of[x] = i
    if len(class_of) != n:
        raise ValueError(f"partition covers {len(class_of)} of {n} elements")

    # No class holds x - 1 and x, and no two classes cross iff each element
    # is in the innermost open class (a class is open from its first element
    # to its last).
    open_classes: list[int] = []
    prev = -1
    for x in range(1, n + 1):
        i = class_of[x]
        if i == prev:
            break
        b = blocks[i]
        if x == b[0]:
            open_classes.append(i)
        elif open_classes[-1] != i:
            break
        if x == b[-1]:
            open_classes.pop()
        prev = i
    else:
        return None

    for b in blocks:
        for x, y in zip(b, b[1:]):
            if y == x + 1:
                return PartitionViolation("adjacency", (x, y))

    # Two classes cross iff their merged, class-labelled sequence alternates
    # at least four times (contains the pattern ABAB).
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            merged = sorted([(x, 0) for x in blocks[i]] + [(x, 1) for x in blocks[j]])
            runs: list[tuple[int, int]] = []  # (label, last element of run)
            for x, label in merged:
                if runs and runs[-1][0] == label:
                    runs[-1] = (label, x)
                else:
                    runs.append((label, x))
            if len(runs) >= 4:
                witness = tuple(x for _, x in runs[:4])
                return PartitionViolation("crossing", witness)
    return None


class NCRelation:
    """A validated partition of {1..n}: no adjacent pairs, no crossings."""

    __slots__ = ("n", "blocks")

    def __init__(self, n: int, blocks) -> None:
        n = _require_int(n, "n", 1)
        # Sorted once, in the caller's order, which picks find_violation's witness.
        blocks = _sorted_blocks(blocks)
        violation = find_violation(n, blocks)
        if violation is not None:
            raise violation
        self.n = n
        self.blocks = tuple(sorted(map(tuple, blocks)))

    @classmethod
    def _canonical(cls, n: int, blocks: tuple[tuple[int, ...], ...]) -> "NCRelation":
        # A relation from blocks already validated and canonical: each block
        # ascending, the blocks ordered by their least element.
        rel = object.__new__(cls)
        rel.n = n
        rel.blocks = blocks
        return rel

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NCRelation)
            and self.n == other.n
            and self.blocks == other.blocks
        )

    def __hash__(self) -> int:
        return hash((self.n, self.blocks))

    def __repr__(self) -> str:
        parts = ", ".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks)
        return f"NCRelation(n={self.n}, {parts})"

    def to_dict(self) -> dict:
        return {"n": self.n, "blocks": [list(b) for b in self.blocks]}

    @classmethod
    def from_dict(cls, data: dict) -> "NCRelation":
        return cls(data["n"], data["blocks"])


def validate(n: int, blocks) -> NCRelation:
    """Build a validated NCRelation, raising PartitionViolation with a witness."""
    return NCRelation(n, blocks)


def class_count(rel: NCRelation) -> int:
    return len(rel.blocks)


def min_classes_bound(n: int) -> int:
    """The guaranteed lower bound floor(n/2) + 1 on the number of classes."""
    return n // 2 + 1


def extremal_example(n: int) -> NCRelation:
    """The bound-attaining partition: odds together, evens as singletons.

    >>> extremal_example(4).blocks
    ((1, 3), (2,), (4,))
    """
    n = _require_int(n, "n", 1)
    blocks = [list(range(1, n + 1, 2))] + [[k] for k in range(2, n + 1, 2)]
    return NCRelation(n, blocks)


def enumerate_valid(n: int):
    """Yield every valid partition of {1..n}, each exactly once.

    Enumeration walks restricted-growth strings, placing 1..n in turn, so the
    order is deterministic (lexicographic in the growth string).  The classes
    that the next element t may join are kept on a stack of open classes:
    joining one closes every class opened after it, since a later element in
    one of those would cross it, and the top class holds t - 1, which t may
    not join.  Refused past MAX_N, as the count grows like the Motzkin
    numbers.
    """
    n = _require_int(n, "n", 1)
    if n > MAX_N:
        raise ValueError(f"n={n} exceeds the enumeration limit {MAX_N}")

    blocks: list[list[int]] = []

    def rec(t: int, open_blocks: tuple[list[int], ...]):
        if t == n + 1:
            violation = find_violation(n, blocks)
            if violation is not None:
                raise violation
            # Already canonical: each block grows upward, and a block is
            # opened by its least element, so they are ordered by it.
            yield NCRelation._canonical(n, tuple(map(tuple, blocks)))
            return
        for k, block in enumerate(open_blocks[:-1]):
            block.append(t)
            yield from rec(t + 1, open_blocks[:k + 1])
            block.pop()
        blocks.append([t])
        yield from rec(t + 1, open_blocks + (blocks[-1],))
        blocks.pop()

    yield from rec(1, ())


def min_classes(n: int) -> int:
    """Exhaustive minimum of class_count over all valid partitions of {1..n}."""
    return min(class_count(rel) for rel in enumerate_valid(n))
