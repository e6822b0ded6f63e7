import json

import pytest

from orbitgrowth import (
    NCRelation,
    PartitionViolation,
    class_count,
    enumerate_valid,
    extremal_example,
    find_violation,
    min_classes,
    min_classes_bound,
    validate,
)


def motzkin(n):
    """Independent count oracle: M[k+1] = M[k] + sum M[i]*M[k-1-i]."""
    m = [1, 1]
    while len(m) <= n:
        k = len(m) - 1
        m.append(m[k] + sum(m[i] * m[k - 1 - i] for i in range(k)))
    return m[n]


def _pairwise_find_violation(n, blocks):
    # Reference for find_violation: validation and adjacency as there, then
    # the pairwise ABAB search over every pair of classes, with no nesting
    # scan in front of it.
    blocks = [sorted(b) for b in blocks]
    seen = set()
    for b in blocks:
        if not b:
            raise ValueError("empty class in partition")
        for x in b:
            if not isinstance(x, int) or not 1 <= x <= n:
                raise ValueError(f"element {x!r} outside 1..{n}")
            if x in seen:
                raise ValueError(f"element {x} appears twice")
            seen.add(x)
    if len(seen) != n:
        raise ValueError(f"partition covers {len(seen)} of {n} elements")
    for b in blocks:
        for x, y in zip(b, b[1:]):
            if y == x + 1:
                return PartitionViolation("adjacency", (x, y))
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            merged = sorted([(x, 0) for x in blocks[i]] + [(x, 1) for x in blocks[j]])
            runs = []
            for x, label in merged:
                if runs and runs[-1][0] == label:
                    runs[-1] = (label, x)
                else:
                    runs.append((label, x))
            if len(runs) >= 4:
                return PartitionViolation("crossing", tuple(x for _, x in runs[:4]))
    return None


def _all_elements_enumerate_valid(n):
    # Reference for enumerate_valid: the same restricted-growth walk, with a
    # crossing test over every element x of the target block (some other
    # block has an element below x and one strictly between x and t).
    blocks = []

    def placement_ok(block_idx, t):
        block = blocks[block_idx]
        if block[-1] == t - 1:
            return False
        return not any(other[0] < x and any(x < y < t for y in other)
                       for x in block for i, other in enumerate(blocks) if i != block_idx)

    def rec(t):
        if t == n + 1:
            yield tuple(tuple(b) for b in blocks)
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


def _set_partitions(n):
    # Every set partition of {1..n}, blocks in order of their least element.
    if n == 0:
        yield []
        return
    for p in _set_partitions(n - 1):
        for i in range(len(p)):
            yield p[:i] + [p[i] + [n]] + p[i + 1:]
        yield p + [[n]]


class TestValidate:
    def test_valid_example(self):
        rel = validate(4, [[1, 3], [2], [4]])
        assert rel.blocks == ((1, 3), (2,), (4,))

    def test_adjacency_violation(self):
        with pytest.raises(PartitionViolation) as exc:
            validate(3, [[1, 2], [3]])
        assert exc.value.kind == "adjacency"
        assert exc.value.witness == (1, 2)

    def test_crossing_violation(self):
        with pytest.raises(PartitionViolation) as exc:
            validate(4, [[1, 3], [2, 4]])
        assert exc.value.kind == "crossing"
        assert exc.value.witness == (1, 2, 3, 4)

    def test_find_violation_returns_none_when_valid(self):
        assert find_violation(5, [[1, 3, 5], [2], [4]]) is None

    def test_not_a_partition(self):
        with pytest.raises(ValueError):
            validate(3, [[1, 2]])
        with pytest.raises(ValueError):
            validate(3, [[1, 2], [2, 3]])
        with pytest.raises(ValueError):
            validate(3, [[1, 2], [3], []])
        with pytest.raises(ValueError):
            validate(3, [[0, 2], [1, 3]])

    @pytest.mark.parametrize("n", range(1, 8))
    def test_find_violation_matches_pairwise_reference(self, n):
        kinds = set()  # crossing witnesses exist from n = 4 on
        for partition in _set_partitions(n):
            for blocks in (partition, partition[::-1]):
                got = find_violation(n, blocks)
                want = _pairwise_find_violation(n, blocks)
                assert (got is None) == (want is None), blocks
                if got is not None:
                    assert (got.kind, got.witness) == (want.kind, want.witness), blocks
                    kinds.add(got.kind)
        assert ("crossing" in kinds) == (n >= 4)

    def test_nested_blocks_allowed(self):
        # nesting without adjacency is fine; only interleaving crosses
        rel = validate(5, [[1, 4], [2], [3], [5]])
        assert class_count(rel) == 4

    def test_json_round_trip(self):
        rel = validate(4, [[1, 3], [2], [4]])
        assert NCRelation.from_dict(json.loads(json.dumps(rel.to_dict()))) == rel


class TestClassCount:
    def test_examples(self):
        assert class_count(validate(4, [[1, 3], [2], [4]])) == 3 == min_classes_bound(4)
        assert class_count(validate(1, [[1]])) == 1
        assert class_count(extremal_example(6)) == 4 == min_classes_bound(6)


class TestExtremal:
    def test_n4(self):
        assert extremal_example(4).blocks == ((1, 3), (2,), (4,))

    def test_n5(self):
        rel = extremal_example(5)
        assert rel.blocks == ((1, 3, 5), (2,), (4,))
        assert class_count(rel) == 3

    def test_n1(self):
        assert extremal_example(1).blocks == ((1,),)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_attains_bound(self, n):
        assert class_count(extremal_example(n)) == min_classes_bound(n)


class TestEnumeration:
    def test_n2_single_relation(self):
        assert [r.blocks for r in enumerate_valid(2)] == [((1,), (2,))]

    def test_n3_two_relations(self):
        assert {r.blocks for r in enumerate_valid(3)} == {
            ((1,), (2,), (3,)),
            ((1, 3), (2,)),
        }

    @pytest.mark.parametrize("n", range(1, 9))
    def test_everything_emitted_validates(self, n):
        rels = list(enumerate_valid(n))
        for rel in rels:
            assert find_violation(rel.n, rel.blocks) is None
        assert len(set(rels)) == len(rels)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_counts_match_motzkin(self, n):
        assert sum(1 for _ in enumerate_valid(n)) == motzkin(n - 1)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_reflection_closure(self, n):
        rels = {r.blocks for r in enumerate_valid(n)}
        for blocks in rels:
            mirrored = tuple(
                sorted(tuple(sorted(n + 1 - x for x in b)) for b in blocks)
            )
            assert mirrored in rels

    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_all_elements_reference_in_order(self, n):
        got = [rel.blocks for rel in enumerate_valid(n)]
        assert got == [tuple(sorted(p)) for p in _all_elements_enumerate_valid(n)]

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            list(enumerate_valid(13))
        assert sum(1 for _ in enumerate_valid(13, cap=13)) == motzkin(12)


class TestMinClasses:
    @pytest.mark.parametrize("n,expected", [(1, 1), (2, 2), (3, 2), (4, 3), (8, 5)])
    def test_small_values(self, n, expected):
        assert min_classes(n) == expected == min_classes_bound(n)

    def test_every_relation_meets_bound(self):
        for n in range(1, 9):
            bound = min_classes_bound(n)
            assert all(class_count(r) >= bound for r in enumerate_valid(n))

    def test_bound_sharp_up_to_twelve(self):
        # full enumeration to the cap: the bound holds and is attained
        for n in (11, 12):
            bound = min_classes_bound(n)
            counts = [class_count(r) for r in enumerate_valid(n)]
            assert min(counts) == bound
