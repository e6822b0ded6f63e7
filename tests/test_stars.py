import json
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest

from orbitgrowth import (
    Angle,
    DegenerateArcError,
    Star,
    StarSet,
    check_maximal_bruteforce,
    disjoint,
    enumerate_grid_star_sets,
    has_cycle,
    is_maximal,
    multiplicity,
    named_example_stars,
    quotient,
    sum_multiplicities,
)
from orbitgrowth.circle import in_one_gap
from orbitgrowth.stars import _candidate_pairs, _forest, _gap_mask, _lattice, _structure

E = named_example_stars()


def star(d, *pts):
    return Star(d, [Angle(Fraction(p)) for p in pts])


class TestStarConstruction:
    def test_quarter_pair(self):
        s = star(4, 0, "1/4")
        assert s.points == (Angle(0), Angle(1, 4))

    def test_full_fiber(self):
        s = star(4, 0, "1/4", "1/2", "3/4")
        assert len(s.points) == 4

    def test_non_fiber_point_rejected(self):
        with pytest.raises(ValueError):
            star(4, 0, "1/3")

    def test_singleton_rejected(self):
        with pytest.raises(ValueError):
            star(4, "1/4")

    def test_duplicates_collapse(self):
        assert star(4, 0, 0, "1/2") == star(4, 0, "1/2")

    def test_degree_too_small(self):
        with pytest.raises(ValueError):
            star(1, 0, "1/2")

    @pytest.mark.parametrize("make", [
        lambda d: Star(d, [Angle(0), Angle(1, 2)]),
        StarSet,
        enumerate_grid_star_sets,
    ], ids=["Star", "StarSet", "enumerate_grid_star_sets"])
    @pytest.mark.parametrize("d", [1, -4, 4.0, True, "4"])
    def test_bad_degree_rejected(self, make, d):
        # Star and StarSet accepted the float degree 4.0
        with pytest.raises(ValueError, match="degree must be an integer >= 2"):
            make(d)

    def test_offset_fiber(self):
        # stars need not contain grid points of {k/d}
        s = star(3, "1/9", "4/9", "7/9")
        assert multiplicity(s) == 2

    def test_points_share_their_image(self):
        # the j/d spacing forces every point of a star into one fiber
        from orbitgrowth import multiply

        for s in (star(3, "1/9", "4/9", "7/9"), star(4, "1/8", "3/8", "7/8"), E["E4"]):
            images = {multiply(p, s.degree) for p in s.points}
            assert len(images) == 1

    def test_json_round_trip(self):
        s = star(4, 0, "1/4", "1/2")
        assert Star.from_dict(json.loads(json.dumps(s.to_dict()))) == s


class TestMultiplicity:
    def test_examples(self):
        assert multiplicity(E["E1"]) == 1
        assert multiplicity(star(4, 0, "1/4", "1/2")) == 2
        for d in range(2, 7):
            full = Star(d, [Angle(k, d) for k in range(d)])
            assert multiplicity(full) == d - 1


class TestDisjoint:
    def test_paper_pairs(self):
        assert disjoint(E["E3"], E["E4"])
        assert disjoint(E["E1"], E["E3"])

    def test_interleaved(self):
        assert not disjoint(E["E4"], star(4, "1/8", "5/8"))

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            disjoint(E["E1"], star(2, 0, "1/2"))

    def test_shared_point_allowed(self):
        assert disjoint(E["E1"], E["E2"])

    def test_subset_of_consecutive_points(self):
        big = star(4, 0, "1/4", "1/2")
        assert disjoint(big, star(4, 0, "1/4"))
        # 1/2 and 0 are cyclically consecutive in big, so this pair is fine too
        assert disjoint(big, star(4, 0, "1/2"))
        # in the full fiber, 0 and 1/2 are separated by 1/4 and 3/4
        full = star(4, 0, "1/4", "1/2", "3/4")
        assert not disjoint(full, star(4, 0, "1/2"))

    def test_symmetry_exhaustive_on_grid(self):
        for d in (3, 4, 5, 6):
            stars = [
                Star(d, [Angle(k, d) for k in comb])
                for size in range(2, d + 1)
                for comb in combinations(range(d), size)
            ]
            for a, b in combinations(stars, 2):
                assert disjoint(a, b) == disjoint(b, a)


def _find_cycle(stars, through: int | None = None) -> bool:
    # Reference for has_cycle: an independent depth-first search for a
    # cycle of stars.
    # Cycle = closed chain of >= 2 distinct stars joined by pairwise distinct
    # shared points.  If `through` is given, only cycles containing that star
    # are searched (enough when it is the only new member of a known-acyclic
    # family).
    n = len(stars)
    adj: dict[int, list[tuple[int, frozenset]]] = {i: [] for i in range(n)}
    for i in range(n):
        for j in range(i + 1, n):
            shared = frozenset(stars[i].points) & frozenset(stars[j].points)
            if shared:
                adj[i].append((j, shared))
                adj[j].append((i, shared))

    def dfs(start: int, cur: int, visited: frozenset, used: frozenset, length: int) -> bool:
        for nxt, shared in adj[cur]:
            for p in shared:
                if p in used:
                    continue
                if nxt == start and length >= 2:
                    return True
                if nxt in visited or (through is None and nxt < start):
                    continue
                if dfs(start, nxt, visited | {nxt}, used | {p}, length + 1):
                    return True
        return False

    starts = range(n) if through is None else (through,)
    return any(dfs(s, s, frozenset({s}), frozenset(), 1) for s in starts)


def _disjoint_grid_families(d):
    # Every pairwise disjoint family of at least two stars on the grid {k/d},
    # cyclic or not.
    stars = [
        Star(d, [Angle(k, d) for k in comb])
        for size in range(2, d + 1)
        for comb in combinations(range(d), size)
    ]
    families = []

    def extend(start, family):
        if len(family) >= 2:
            families.append(StarSet(d, family))
        for i in range(start, len(stars)):
            if all(disjoint(stars[i], s) for s in family):
                extend(i + 1, family + [stars[i]])

    extend(0, [])
    return families


class TestCycles:
    def test_agrees_with_reference_search_on_grids(self):
        families = [f for d in range(2, 6) for f in _disjoint_grid_families(d)]
        assert len(families) == 5412
        for family in families:
            assert has_cycle(family) == _find_cycle(family.stars), family

    def test_four_chain_is_cycle(self):
        assert has_cycle(StarSet(4, [E["E1"], E["E2"], E["E3"], E["E5"]]))

    def test_maximal_family_is_acyclic(self):
        assert not has_cycle(StarSet(4, [E["E1"], E["E2"], E["E3"]]))

    def test_two_disjoint_stars_no_cycle(self):
        assert not has_cycle(StarSet(4, [E["E3"], E["E4"]]))

    def test_two_stars_sharing_two_points(self):
        pair = StarSet(4, [star(4, 0, "1/4"), star(4, 0, "1/4", "1/2")])
        assert has_cycle(pair)

    def test_single_shared_point_is_not_a_cycle(self):
        assert not has_cycle(StarSet(4, [E["E1"], E["E2"]]))

    def test_non_disjoint_rejected(self):
        with pytest.raises(ValueError):
            has_cycle(StarSet(4, [E["E4"], star(4, "1/8", "5/8")]))


class TestMaximality:
    def test_paper_family_maximal(self):
        assert is_maximal(StarSet(4, [E["E1"], E["E2"], E["E3"]]))

    def test_two_star_family_not_maximal(self):
        assert not is_maximal(StarSet(4, [E["E3"], E["E4"]]))

    def test_cycle_not_maximal(self):
        assert not is_maximal(StarSet(4, [E["E1"], E["E2"], E["E3"], E["E5"]]))

    def test_full_fiber_alone_is_maximal(self):
        for d in range(2, 7):
            full = Star(d, [Angle(k, d) for k in range(d)])
            assert is_maximal(StarSet(d, [full]))

    def test_sum_multiplicities(self):
        assert sum_multiplicities(StarSet(4, [E["E1"], E["E2"], E["E3"]])) == 3
        assert sum_multiplicities(StarSet(4, [E["E3"], E["E4"]])) == 2
        assert sum_multiplicities(StarSet(4)) == 0

    def test_degree_mismatch_in_family(self):
        with pytest.raises(ValueError):
            StarSet(4, [star(2, 0, "1/2")])


def _reference_bruteforce(star_set, grid_refinement):
    # Reference for check_maximal_bruteforce: each grid pair built as a Star
    # and tested on its own lattice, by disjoint() against every member and a
    # fresh cycle test of the extended family.
    d = star_set.degree
    grid = d * grid_refinement
    existing = {frozenset(s.points) for s in star_set.stars}
    for k in range(grid):
        for j in range(1, d):
            candidate = star(d, Fraction(k, grid), Fraction(k, grid) + Fraction(j, d))
            if frozenset(candidate.points) in existing:
                continue
            if not all(disjoint(candidate, s) for s in star_set.stars):
                continue
            if has_cycle(StarSet(d, [*star_set.stars, candidate])):
                continue
            return False
    return True


def _offgrid_families(d, m):
    # Every disjoint, cycle-free family of one or two two-point stars on the
    # finer grid {k/(d*m)}.
    grid = d * m
    pairs = {star(d, Fraction(k, grid), Fraction(k + j * m, grid))
             for k in range(grid) for j in range(1, d)}
    families = [StarSet(d, [p]) for p in pairs]
    for a, b in combinations(sorted(pairs, key=lambda s: s.points), 2):
        if disjoint(a, b) and not has_cycle(StarSet(d, [a, b])):
            families.append(StarSet(d, [a, b]))
    return families


class TestBruteforceOracle:
    def test_maximal_family_unextendable(self):
        assert check_maximal_bruteforce(StarSet(4, [E["E1"], E["E2"], E["E3"]]), 2)

    def test_extension_witness_found(self):
        assert not check_maximal_bruteforce(StarSet(4, [E["E3"], E["E4"]]), 2)

    def test_empty_family_extendable(self):
        assert not check_maximal_bruteforce(StarSet(2), 4)

    def test_precondition_checked(self):
        with pytest.raises(ValueError):
            check_maximal_bruteforce(StarSet(4, [E["E1"], E["E2"], E["E3"], E["E5"]]))

    @pytest.mark.parametrize("g", [0, -1, 2.5, 2.0, True, "2"])
    def test_bad_grid_refinement_rejected(self, g):
        with pytest.raises(ValueError, match="grid_refinement must be an integer >= 1"):
            check_maximal_bruteforce(StarSet(4, [E["E1"], E["E2"], E["E3"]]), g)

    def test_oversized_grid_refused_before_allocating(self, monkeypatch):
        # 4 * 10**8 * 3 candidates would not fit in memory
        def build(*args):
            raise AssertionError("the candidates were built")

        monkeypatch.setattr("orbitgrowth.stars._candidate_pairs", build)
        with pytest.raises(ValueError, match="more than 1000000 candidate stars"):
            check_maximal_bruteforce(StarSet(4, [E["E1"], E["E2"], E["E3"]]), 10**8)

    def test_grid_limit_is_on_the_candidate_count(self, monkeypatch):
        # d * g * (d - 1) = 24 candidates at d = 4, g = 2; 36 at g = 3
        monkeypatch.setattr("orbitgrowth.stars.MAX_GRID_CANDIDATES", 24)
        family = StarSet(4, [E["E1"], E["E2"], E["E3"]])
        assert check_maximal_bruteforce(family, 2)
        with pytest.raises(ValueError, match="more than 24 candidate stars"):
            check_maximal_bruteforce(family, 3)

    def test_disjointness_precondition_checked(self):
        # 1/8 is not a multiple of 1/(d*g) = 1/4, so the check runs on the
        # eighths, the lattice shared by the family and the grid
        interleaved = StarSet(4, [E["E4"], star(4, "1/8", "5/8")])
        with pytest.raises(ValueError, match="pairwise disjoint"):
            check_maximal_bruteforce(interleaved, 1)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_agrees_with_reference_on_grid_families(self, d):
        for family in enumerate_grid_star_sets(d):
            for refinement in (1, 2, 3):
                assert (check_maximal_bruteforce(family, refinement)
                        == _reference_bruteforce(family, refinement)), (family, refinement)

    def test_agrees_with_reference_off_the_grid(self):
        # denominators that do not divide d*g put the family and the grid on
        # a lattice finer than the grid
        families = [StarSet(4, [star(4, "1/8", "3/8")])]
        families += [f for d, m in ((3, 2), (4, 2), (4, 3)) for f in _offgrid_families(d, m)]
        verdicts = set()
        for family in families:
            for refinement in (1, 3, 5):
                verdict = check_maximal_bruteforce(family, refinement)
                assert verdict == _reference_bruteforce(family, refinement), (family, refinement)
                assert verdict == is_maximal(family), (family, refinement)
                verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_validation_runs_with_masks_cached(self):
        # valid families first cache the mask of every star of the two invalid
        # ones, on their lattices; the precondition errors must still be raised
        interleaved = StarSet(4, [E["E4"], star(4, "1/8", "5/8")])
        cyclic = StarSet(4, [E["E1"], E["E2"], E["E3"], E["E5"]])
        for refinement in (1, 2):
            assert check_maximal_bruteforce(StarSet(4, [E["E1"], E["E2"], E["E3"]]), refinement)
            assert not check_maximal_bruteforce(StarSet(4, [E["E5"]]), refinement)
            assert not check_maximal_bruteforce(StarSet(4, [E["E4"], star(4, "1/8", "3/8")]),
                                                refinement)
            assert not check_maximal_bruteforce(StarSet(4, [star(4, "1/8", "5/8")]), refinement)
            misses = _gap_mask.cache_info().misses
            for family in (interleaved, cyclic):
                L, ticks = _lattice(family.stars)
                M = lcm(4 * refinement, L)
                for t in ticks:
                    _gap_mask(4, refinement, M, tuple(x * (M // L) for x in t))
            assert _gap_mask.cache_info().misses == misses
            with pytest.raises(ValueError, match="pairwise disjoint"):
                check_maximal_bruteforce(interleaved, refinement)
            with pytest.raises(ValueError, match="acyclic"):
                check_maximal_bruteforce(cyclic, refinement)

    def test_masks_keyed_by_lattice(self):
        # {1/4, 3/4} has the ticks (1, 3) over the quarters (3, 9 over the
        # twelfths) and {1/8, 3/8} the same over the eighths (the 24ths), so a
        # mask cached for one must never be read for the other
        grid_family = StarSet(4, [E["E1"], E["E2"], star(4, "1/4", "3/4")])
        offgrid_family = StarSet(4, [star(4, "1/8", "3/8")])
        for refinement in (1, 3):
            for order in ((grid_family, offgrid_family, grid_family),
                          (offgrid_family, grid_family, offgrid_family)):
                _gap_mask.cache_clear()
                for family in order:
                    assert (check_maximal_bruteforce(family, refinement)
                            == _reference_bruteforce(family, refinement)), (family, refinement)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_gap_masks_equal_the_sum_of_their_bits(self, d):
        # the masks are set byte by byte; the former build added 1 << i for
        # each candidate i that fits, one big-int addition each
        stars = {s for family in enumerate_grid_star_sets(d) for s in family}
        for refinement in (1, 2, 3):
            pairs = _candidate_pairs(d, refinement)
            for s in stars:
                L, (ticks,) = _lattice((s,))
                M = lcm(d * refinement, L)
                ticks, scale = tuple(t * (M // L) for t in ticks), M // (d * refinement)
                expected = sum(1 << i for i, (a, b) in enumerate(pairs)
                               if in_one_gap((a * scale, b * scale), ticks, M))
                assert _gap_mask(d, refinement, M, ticks) == expected, (s, refinement)

    def test_candidate_cache_stops_growing_over_many_grids(self):
        # each grid refinement caches its candidates; past the cache's size
        # the oldest go, so 40 more grids retain about what 20 did, where an
        # unbounded cache would retain three times as much
        family = StarSet(2, [star(2, "0", "1/2")])
        _candidate_pairs.cache_clear()
        _gap_mask.cache_clear()
        retained = []
        tracemalloc.start()
        try:
            for grids in (range(300, 320), range(320, 360)):
                for refinement in grids:
                    assert check_maximal_bruteforce(family, refinement)
                retained.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        assert retained[1] < 1.5 * retained[0]

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_agrees_with_count_on_small_grids(self, d):
        for family in enumerate_grid_star_sets(d):
            expected = is_maximal(family)
            for refinement in (1, 2, 3):
                assert check_maximal_bruteforce(family, refinement) == expected


class TestFamilyStructure:
    def test_each_family_validated_once_in_a_sweep(self):
        # is_maximal computes a family's structure and the oracle reads it
        families = enumerate_grid_star_sets(6)
        _structure.cache_clear()
        for family in families:
            is_maximal(family)
            for refinement in (1, 2, 3):
                check_maximal_bruteforce(family, refinement)
        info = _structure.cache_info()
        assert (info.misses, info.hits) == (len(families), 3 * len(families))
        assert info.currsize <= info.maxsize == 64

    @pytest.mark.parametrize("d", [4, 5])
    def test_equal_family_built_separately_gets_the_same_verdicts(self, d):
        for family in enumerate_grid_star_sets(d):
            verdicts = ([has_cycle(family), is_maximal(family)]
                        + [check_maximal_bruteforce(family, g) for g in (1, 2, 3)])
            twin = StarSet(d, [Star.from_dict(s.to_dict()) for s in reversed(family.stars)])
            assert twin == family and hash(twin) == hash(family)
            assert not any(a is b for a, b in zip(twin.stars, family.stars))
            misses = _structure.cache_info().misses
            assert ([has_cycle(twin), is_maximal(twin)]
                    + [check_maximal_bruteforce(twin, g) for g in (1, 2, 3)]) == verdicts
            assert _structure.cache_info().misses == misses

    @pytest.mark.parametrize("refinement", [1, 2, 3, 4, 5])
    def test_invalid_families_raise_at_every_refinement(self, refinement):
        interleaved = StarSet(4, [E["E4"], star(4, "1/8", "5/8")])
        cyclic = StarSet(4, [E["E1"], E["E2"], E["E3"], E["E5"]])
        for _ in range(2):  # the second round reads the cached structures
            assert not is_maximal(interleaved) and not is_maximal(cyclic)
            with pytest.raises(ValueError, match="pairwise disjoint"):
                check_maximal_bruteforce(interleaved, refinement)
            with pytest.raises(ValueError, match="acyclic"):
                check_maximal_bruteforce(cyclic, refinement)
            with pytest.raises(ValueError, match="pairwise disjoint"):
                has_cycle(interleaved)
            assert has_cycle(cyclic)

    def test_canonical_order_is_the_order_of_points(self):
        # k/q and floor(10^20 k/q)/10^20 have one float; the Fractions must
        # still order them
        stars = [star(2, 0, "1/2"), star(2, "1/9", "11/18")]
        for a in (Fraction(1, 3), Fraction(1, 6)):
            near = Fraction(a.numerator * 10**20 // a.denominator, 10**20)
            assert float(near) == float(a)
            stars += [star(2, a, a + Fraction(1, 2)), star(2, near, near + Fraction(1, 2))]
        want = sorted(stars, key=lambda s: s.points)
        for order in (stars, stars[::-1]):
            assert list(StarSet(2, order).stars) == want
            assert sorted(order, key=lambda s: s._order) == want


class TestQuotient:
    def test_worked_example(self):
        family = StarSet(4, [E["E1"], E["E2"], E["E3"]])
        ell, image = quotient(family, E["E1"], Angle(1, 4), Angle(0))
        assert ell == 3
        assert image == StarSet(3, [star(3, 0, "1/3"), star(3, "1/3", "2/3")])
        assert is_maximal(image)

    def test_degenerate_arc(self):
        family = StarSet(2, [star(2, 0, "1/2")])
        with pytest.raises(DegenerateArcError):
            quotient(family, star(2, 0, "1/2"), Angle(0), Angle(1, 2))

    def test_non_consecutive_endpoints_rejected(self):
        big = star(4, 0, "1/4", "1/2")
        family = StarSet(4, [big])
        with pytest.raises(ValueError):
            quotient(family, big, Angle(0), Angle(1, 2))

    def test_star_of_another_degree_rejected(self):
        family = StarSet(4, [E["E1"], E["E2"], E["E3"]])
        with pytest.raises(ValueError, match="does not match the family degree"):
            quotient(family, star(3, 0, "1/3"), Angle(0), Angle(1, 3))

    def test_straddling_star_rejected(self):
        anchor = star(4, 0, "1/2")
        straddler = star(4, "3/8", "5/8")
        family = StarSet(4, [anchor, straddler])
        with pytest.raises(ValueError, match="straddle"):
            quotient(family, anchor, Angle(0), Angle(1, 2))

    def test_outside_stars_dropped(self):
        family = StarSet(4, [E["E1"], E["E2"], E["E3"]])
        ell, image = quotient(family, E["E3"], Angle(3, 4), Angle(1, 2))
        # arc from 3/4 through 0 to 1/2 contains E1 and E2
        assert ell == 3
        assert len(image) == 2

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_maximal_quotients_stay_maximal(self, d):
        for family in enumerate_grid_star_sets(d):
            if not family.stars or not is_maximal(family):
                continue
            for anchor in family.stars:
                pts = anchor.points
                for i in range(len(pts)):
                    start, end = pts[i], pts[(i + 1) % len(pts)]
                    try:
                        ell, image = quotient(family, anchor, start, end)
                    except DegenerateArcError:
                        continue
                    assert is_maximal(image), (family, anchor, start, end)


def _reference_quotient(star_set, star, arc_start, arc_end):
    # Reference for quotient: the arc and every offset from its start measured
    # as Fractions mod 1, with its own closed-arc test.
    d = star_set.degree
    if star.degree != d:
        raise ValueError("star degree does not match the family degree")
    if arc_start not in frozenset(star.points) or arc_end not in frozenset(star.points):
        raise ValueError("arc endpoints must be points of the star")
    if arc_start == arc_end:
        raise ValueError("arc endpoints must be distinct")
    arc_len = (Fraction(arc_end) - Fraction(arc_start)) % 1
    for p in star.points:
        off = (Fraction(p) - Fraction(arc_start)) % 1
        if 0 < off < arc_len:
            raise ValueError("arc endpoints are not consecutive in the star")
    ell_frac = arc_len * d
    assert ell_frac.denominator == 1  # guaranteed by the star invariant
    ell = int(ell_frac)
    if ell < 2:
        raise DegenerateArcError(
            f"arc of length {arc_len} gives quotient degree {ell} < 2"
        )

    inside = []
    for other in star_set.stars:
        if other == star:
            continue
        offsets = [(Fraction(p) - Fraction(arc_start)) % 1 for p in other.points]
        strictly_in = [o for o in offsets if 0 < o < arc_len]
        all_in = all(o <= arc_len for o in offsets)
        if strictly_in and not all_in:
            raise ValueError(f"star {other!r} straddles the arc boundary")
        if all_in:
            inside.append(other)

    images = []
    for other in inside:
        image_pts = {
            Angle(((Fraction(p) - Fraction(arc_start)) % 1) * d, ell)
            for p in other.points
        }
        if len(image_pts) < 2:
            raise ValueError(
                f"star {other!r} collapses onto the identified arc endpoints"
            )
        images.append(Star(ell, image_pts))
    return ell, StarSet(ell, images)


def _outcome(f, *args):
    # f's result, or the type and message of what it raised
    try:
        return f(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _random_offgrid_families(d, count, seed):
    # Families of one to three stars, each on its own grid {k/(d*g)}, g <= 4,
    # so the family's lattice mixes denominators; disjoint or not.
    rng = random.Random(seed)

    def random_star():
        g = rng.randint(1, 4)
        base = rng.randrange(d * g)
        js = rng.sample(range(d), rng.randint(2, d))
        return Star(d, [Angle(base + j * g, d * g) for j in js])

    return [StarSet(d, [random_star() for _ in range(rng.randint(1, 3))])
            for _ in range(count)]


def _quotient_cases(family, anchors):
    # Each anchor with every ordered pair of its points, and with an endpoint
    # off the star.
    for anchor in anchors:
        for a in anchor.points:
            for b in (*anchor.points, Angle(1, 5 * family.degree + 1)):
                yield family, anchor, a, b


def _outside_anchor(d):
    # a 2-star off the grid {k/d}, so never a member of a grid family
    return star(d, "1/7", Fraction(1, 7) + Fraction(1, d))


class TestQuotientReference:
    def assert_matches(self, cases):
        for case in cases:
            assert _outcome(quotient, *case) == _outcome(_reference_quotient, *case), case

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_matches_on_grid_families(self, d):
        self.assert_matches(c for f in enumerate_grid_star_sets(d)
                            for c in _quotient_cases(f, f.stars))

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_matches_with_an_anchor_outside_the_family(self, d):
        self.assert_matches(c for f in enumerate_grid_star_sets(d)
                            for c in _quotient_cases(f, [_outside_anchor(d)]))

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_matches_off_the_grid(self, d):
        self.assert_matches(c for f in _random_offgrid_families(d, 60, seed=d)
                            for c in _quotient_cases(f, [*f.stars, _outside_anchor(d)]))


def _reference_grid_families(d):
    # Reference for enumerate_grid_star_sets: each candidate is gap-tested
    # against every member of the family, with no precomputed bitmasks, and
    # joins after a fresh _forest of the whole extended family, with no
    # forest carried down the recursion.
    all_stars = [comb for size in range(2, d + 1) for comb in combinations(range(d), size)]
    families = []

    def extend(start, fam):
        families.append(StarSet(d, [Star(d, [Angle(k, d) for k in e]) for e in fam]))
        for i in range(start, len(all_stars)):
            cand = all_stars[i]
            if all(in_one_gap(cand, e, d) for e in fam) and _forest(fam + [cand]) is not None:
                extend(i + 1, fam + [cand])

    extend(0, [])
    return families


class TestEnumeration:
    def test_counts(self):
        # disjoint acyclic families on the grid, empty family included
        assert len(enumerate_grid_star_sets(2)) == 2
        assert len(enumerate_grid_star_sets(3)) == 8
        assert len(enumerate_grid_star_sets(4)) == 46

    def test_count_at_degree_seven(self):
        assert len(enumerate_grid_star_sets(7)) == 18160

    def test_degree_past_the_limit_refused(self, monkeypatch):
        # d = 10 would take minutes and gigabytes; refused before any work
        with pytest.raises(ValueError, match="exceeds the grid enumeration limit 9"):
            enumerate_grid_star_sets(10)
        monkeypatch.setattr("orbitgrowth.stars.MAX_GRID_DEGREE", 3)
        assert len(enumerate_grid_star_sets(3)) == 8
        with pytest.raises(ValueError, match="limit 3"):
            enumerate_grid_star_sets(4)

    @pytest.mark.parametrize("d", range(2, 7))
    def test_matches_reference_in_order(self, d):
        assert enumerate_grid_star_sets(d) == _reference_grid_families(d)

    def test_families_are_canonical_at_degree_seven(self):
        # the families are built without StarSet's dedup and sort
        for family in enumerate_grid_star_sets(7):
            again = StarSet(7, family.stars[::-1])
            assert family.stars == again.stars and hash(family) == hash(again)

    def test_families_are_valid(self):
        for family in enumerate_grid_star_sets(4):
            for a, b in combinations(family.stars, 2):
                assert disjoint(a, b)
            assert not has_cycle(family)

    def test_total_multiplicity_bounded(self):
        for d in (2, 3, 4, 5):
            for family in enumerate_grid_star_sets(d):
                assert sum_multiplicities(family) <= d - 1
