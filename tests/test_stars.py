import json
from fractions import Fraction
from itertools import combinations

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
from orbitgrowth.stars import _forest, _gap_mask, _lattice

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
            shared = stars[i]._point_set & stars[j]._point_set
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
    existing = {s._point_set for s in star_set.stars}
    for k in range(grid):
        for j in range(1, d):
            candidate = star(d, Fraction(k, grid), Fraction(k, grid) + Fraction(j, d))
            if candidate._point_set in existing:
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
                M, ticks = _lattice(family.stars, 4 * refinement)
                for t in ticks:
                    _gap_mask(4, refinement, M, t)
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

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_agrees_with_count_on_small_grids(self, d):
        for family in enumerate_grid_star_sets(d):
            expected = is_maximal(family)
            for refinement in (1, 2, 3):
                assert check_maximal_bruteforce(family, refinement) == expected


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

    @pytest.mark.parametrize("d", range(2, 7))
    def test_matches_reference_in_order(self, d):
        assert enumerate_grid_star_sets(d) == _reference_grid_families(d)

    def test_families_are_valid(self):
        for family in enumerate_grid_star_sets(4):
            for a, b in combinations(family.stars, 2):
                assert disjoint(a, b)
            assert not has_cycle(family)

    def test_total_multiplicity_bounded(self):
        for d in (2, 3, 4, 5):
            for family in enumerate_grid_star_sets(d):
                assert sum_multiplicities(family) <= d - 1
