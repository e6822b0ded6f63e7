"""Partitions of {1..n} with no adjacent pair and no crossing classes.

Such a partition always has at least floor(n/2)+1 classes, and the bound is
attained by putting all odd numbers in one class and each even number in its
own.  The module validates partitions against both conditions (with explicit
witnesses), builds the extremal example, and enumerates every valid partition
for small n so the class-count bound can be checked exhaustively.
"""

from __future__ import annotations

DEFAULT_CAP = 12


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


def find_violation(n: int, blocks) -> PartitionViolation | None:
    """Return the first structural violation of a partition of {1..n}, if any.

    A linear nesting scan decides whether any two classes cross; the pairwise
    search runs only then, to supply the first crossing witness.  Raises
    ValueError if blocks is not a partition of {1..n} at all.
    """
    blocks = [sorted(b) for b in blocks]
    class_of: dict[int, int] = {}
    for i, b in enumerate(blocks):
        if not b:
            raise ValueError("empty class in partition")
        for x in b:
            if not isinstance(x, int) or not 1 <= x <= n:
                raise ValueError(f"element {x!r} outside 1..{n}")
            if x in class_of:
                raise ValueError(f"element {x} appears twice")
            class_of[x] = i
    if len(class_of) != n:
        raise ValueError(f"partition covers {len(class_of)} of {n} elements")

    for b in blocks:
        for x, y in zip(b, b[1:]):
            if y == x + 1:
                return PartitionViolation("adjacency", (x, y))

    # No two classes cross iff each element is in the innermost open class (a
    # class is open from its first element to its last).
    open_classes: list[int] = []
    for x in range(1, n + 1):
        i = class_of[x]
        if x == blocks[i][0]:
            open_classes.append(i)
        elif open_classes[-1] != i:
            break
        if x == blocks[i][-1]:
            open_classes.pop()
    else:
        return None

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
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        violation = find_violation(n, blocks)
        if violation is not None:
            raise violation
        self.n = n
        self.blocks = tuple(sorted(tuple(sorted(b)) for b in blocks))

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
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    blocks = [list(range(1, n + 1, 2))] + [[k] for k in range(2, n + 1, 2)]
    return NCRelation(n, blocks)


def enumerate_valid(n: int, cap: int = DEFAULT_CAP):
    """Yield every valid partition of {1..n}, each exactly once.

    Enumeration walks restricted-growth strings, pruning both conditions as
    each element is placed, so the order is deterministic (lexicographic in
    the growth string).  Guarded by `cap` because the count grows like the
    Motzkin numbers.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > cap:
        raise ValueError(f"n={n} exceeds the enumeration cap {cap}")

    blocks: list[list[int]] = []

    def placement_ok(block_idx: int, t: int) -> bool:
        last = blocks[block_idx][-1]
        if last == t - 1:
            return False  # adjacency
        # Crossing is created iff the target block's last element lies
        # strictly inside another block's span: no two blocks cross before t
        # is placed, so any crossing t creates involves that last element.
        return not any(other[0] < last < other[-1] for other in blocks)

    def rec(t: int):
        if t == n + 1:
            yield NCRelation(n, [list(b) for b in blocks])
            return
        for idx in range(len(blocks)):
            if placement_ok(idx, t):
                blocks[idx].append(t)
                yield from rec(t + 1)
                blocks[idx].pop()
        blocks.append([t])
        yield from rec(t + 1)
        blocks.pop()

    yield from rec(1)


def min_classes(n: int) -> int:
    """Exhaustive minimum of class_count over all valid partitions of {1..n}."""
    return min(class_count(rel) for rel in enumerate_valid(n))
