"""Stars: finite circle subsets lying in one fiber of the times-d map.

A degree-d star is a set of at least two angles whose pairwise distances are
all multiples of 1/d, i.e. a subset of a single fiber of theta -> d*theta.
This module provides the structural predicates on families of stars
(disjointness, cycles, maximality), an independent brute-force maximality
oracle, and the arc-quotient construction that rescales the stars inside an
arc of a star onto a smaller circle.

Internally every predicate works on an integer lattice (points scaled by a
common denominator), which keeps the exhaustive degree-by-degree sweeps fast
while staying exact.  The grid enumeration prunes with gap tests precomputed
as one bitmask per star; the brute-force oracle ANDs cached per-star masks of
the grid candidates, on one lattice shared by the family and the grid.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import lcm

from .circle import Angle, in_one_gap


class DegenerateArcError(ValueError):
    """Raised when a quotient arc has length 1/d: no room for any star."""


class Star:
    """A validated d-star: cyclically sorted angles, pairwise j/d apart."""

    __slots__ = ("degree", "points", "_den", "_ticks", "_point_set")

    def __init__(self, degree: int, points) -> None:
        if degree < 2:
            raise ValueError(f"star degree must be >= 2, got {degree}")
        pts = sorted({p if isinstance(p, Angle) else Angle(p) for p in points})
        if len(pts) < 2:
            raise ValueError("a star needs at least two distinct points")
        base = Fraction(pts[0])
        for p in pts[1:]:
            if ((Fraction(p) - base) * degree).denominator != 1:
                raise ValueError(
                    f"{p} - {pts[0]} is not a multiple of 1/{degree}; not a {degree}-star"
                )
        self.degree = degree
        self.points = tuple(pts)
        self._den = lcm(*(p.denominator for p in pts))
        self._ticks = tuple(p.numerator * (self._den // p.denominator) for p in pts)
        self._point_set = frozenset(pts)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Star)
            and self.degree == other.degree
            and self.points == other.points
        )

    def __hash__(self) -> int:
        return hash((self.degree, self.points))

    def __repr__(self) -> str:
        return f"Star(d={self.degree}, {{{', '.join(map(str, self.points))}}})"

    def to_dict(self) -> dict:
        return {"d": self.degree, "points": [str(p) for p in self.points]}

    @classmethod
    def from_dict(cls, data: dict) -> "Star":
        return cls(data["d"], [Angle(Fraction(p)) for p in data["points"]])


def multiplicity(star: Star) -> int:
    """Number of points minus one."""
    return len(star.points) - 1


class StarSet:
    """A family of stars of one common degree (structure is checked lazily).

    Duplicates are collapsed and the stars kept in a canonical order, so
    equal families compare equal regardless of input order.
    """

    __slots__ = ("degree", "stars")

    def __init__(self, degree: int, stars=()) -> None:
        if degree < 2:
            raise ValueError(f"degree must be >= 2, got {degree}")
        stars = tuple(sorted(set(stars), key=lambda s: s.points))
        for s in stars:
            if s.degree != degree:
                raise ValueError(f"star {s!r} has degree {s.degree}, expected {degree}")
        self.degree = degree
        self.stars = stars

    def __len__(self) -> int:
        return len(self.stars)

    def __iter__(self):
        return iter(self.stars)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, StarSet)
            and self.degree == other.degree
            and self.stars == other.stars
        )

    def __hash__(self) -> int:
        return hash((self.degree, self.stars))

    def __repr__(self) -> str:
        return f"StarSet(d={self.degree}, {list(self.stars)!r})"

    def to_list(self) -> list[dict]:
        return [s.to_dict() for s in self.stars]


# -- integer-lattice primitives ----------------------------------------------

def _lattice(stars, grid: int = 1) -> tuple[int, list[tuple[int, ...]]]:
    # The common denominator L of the stars' points and of 1/grid, and each
    # star's points as the sorted ticks k of k/L.
    L = lcm(grid, *(s._den for s in stars))
    return L, [tuple(t * (L // s._den) for t in s._ticks) for s in stars]


def disjoint(e1: Star, e2: Star) -> bool:
    """True iff e2 lies in the closure of one complementary arc of e1.

    Shared points are allowed; interleaved stars are not.  Symmetric in its
    arguments (a consequence of the definition, exercised by the tests).
    """
    if e1.degree != e2.degree:
        raise ValueError(f"degree mismatch: {e1.degree} vs {e2.degree}")
    L, (t1, t2) = _lattice((e1, e2))
    return in_one_gap(t1, t2, L)


def _pairwise_disjoint(stars) -> bool:
    return all(disjoint(a, b) for a, b in combinations(stars, 2))


def _root(parent: dict[int, int], t: int) -> int:
    while parent.get(t, t) != t:
        t = parent[t]
    return t


def _forest(tick_sets, parent: dict[int, int] | None = None) -> dict[int, int] | None:
    # The star-point incidence graph is a forest iff joining each star's
    # points by union-find never joins two points that are already connected.
    # Returns the parent map (a copy of `parent` extended), or None at the
    # first cycle.  Ticks must share one lattice: equal ticks, equal points.
    parent = {} if parent is None else dict(parent)
    for ticks in tick_sets:
        first = _root(parent, ticks[0])
        for t in ticks[1:]:
            r = _root(parent, t)
            if r == first:
                return None
            parent[r] = first
    return parent


def has_cycle(star_set: StarSet) -> bool:
    """True iff the family contains a cycle of stars.

    A cycle is a closed chain of at least two stars with pairwise distinct
    connection points; in particular two stars sharing two points form one,
    while a single shared point never does.  Requires the stars to be
    pairwise disjoint.

    Equivalently, the bipartite graph joining each star to its points is not
    a forest.  The test joins the points of each star in turn by union-find
    over integer ticks on the family's common lattice, and reports a cycle
    as soon as two points to be joined are already connected.
    """
    if not _pairwise_disjoint(star_set.stars):
        raise ValueError("has_cycle requires pairwise disjoint stars")
    return _forest(_lattice(star_set.stars)[1]) is None


def sum_multiplicities(star_set: StarSet) -> int:
    return sum(multiplicity(s) for s in star_set.stars)


def is_maximal(star_set: StarSet) -> bool:
    """Pairwise disjoint, cycle-free, and total multiplicity exactly d-1.

    The multiplicity count is the cheap characterization of "no further star
    can be added"; check_maximal_bruteforce is the independent search-based
    oracle for the same property.
    """
    if not _pairwise_disjoint(star_set.stars):
        return False
    if _forest(_lattice(star_set.stars)[1]) is None:
        return False
    return sum_multiplicities(star_set) == star_set.degree - 1


@lru_cache(maxsize=None)
def _candidate_pairs(d: int, grid_refinement: int) -> tuple[tuple[int, int], ...]:
    # Every two-point star {k/grid, k/grid + j/d} as its sorted ticks over
    # grid = d*grid_refinement, each once, in order of first appearance.
    grid = d * grid_refinement
    return tuple(dict.fromkeys(
        tuple(sorted((k, (k + j * grid_refinement) % grid)))
        for k in range(grid) for j in range(1, d)
    ))


@lru_cache(maxsize=1024)
def _gap_mask(d: int, grid_refinement: int, M: int, ticks: tuple[int, ...]) -> int:
    # Bit i: ticks (a star on the lattice M) lie in one closed gap of candidate
    # i scaled to M.  1024 masks hold a d <= 8 sweep at g = 1, 2, 3 (741 stars).
    scale = M // (d * grid_refinement)
    return sum(1 << i for i, (a, b) in enumerate(_candidate_pairs(d, grid_refinement))
               if in_one_gap((a * scale, b * scale), ticks, M))


def check_maximal_bruteforce(star_set: StarSet, grid_refinement: int = 2) -> bool:
    """Maximality by direct search: is any grid two-point star addable?

    Tries every candidate {a, a + j/d} with both endpoints on the grid
    {k/(d*grid_refinement)} and reports True iff none can be added while
    keeping the family pairwise disjoint and cycle-free.  Two-point
    candidates suffice: any addable star contains an addable pair.

    On the lattice shared by the family and the grid, the candidates disjoint
    from every member are the AND of the members' cached gap masks, and one of
    them is addable iff its ticks have different union-find roots.
    """
    if grid_refinement < 1:
        raise ValueError("grid_refinement must be >= 1")
    d = star_set.degree
    grid = d * grid_refinement
    M, family = _lattice(star_set.stars, grid)
    if not all(in_one_gap(a, b, M) for a, b in combinations(family, 2)):
        raise ValueError("brute-force oracle requires pairwise disjoint stars")
    parent = _forest(family)
    if parent is None:
        raise ValueError("brute-force oracle requires an acyclic star family")

    pairs = _candidate_pairs(d, grid_refinement)
    fits = (1 << len(pairs)) - 1
    for ticks in family:
        fits &= _gap_mask(d, grid_refinement, M, ticks)
    scale = M // grid
    while fits:
        a, b = pairs[(fits & -fits).bit_length() - 1]
        fits &= fits - 1
        if _root(parent, a * scale) != _root(parent, b * scale):
            return False  # found an extension: not maximal
    return True


def quotient(
    star_set: StarSet, star: Star, arc_start: Angle, arc_end: Angle
) -> tuple[int, StarSet]:
    """Collapse the arc of `star` from arc_start to arc_end onto a new circle.

    arc_start and arc_end must be consecutive points of `star`; the arc has
    length l/d for an integer l, and the stars of the family lying (entirely)
    inside the closed arc are rescaled by d/l into valid l-stars on a circle
    of length 1 with the arc endpoints identified.  Returns (l, rescaled
    family).
    """
    d = star_set.degree
    if star.degree != d:
        raise ValueError("star degree does not match the family degree")
    if arc_start not in star._point_set or arc_end not in star._point_set:
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

    inside: list[Star] = []
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


# -- canonical degree-4 demo configurations and exhaustive enumeration --------

def named_example_stars() -> dict[str, Star]:
    """The five two-point stars on the quarter grid used throughout the docs.

    E1={0,1/4}, E2={1/4,1/2}, E3={1/2,3/4}, E4={0,1/2}, E5={3/4,0}:
    {E1,E2,E3} is maximal, {E1,E2,E3,E5} is a cycle, {E3,E4} is disjoint but
    not maximal.
    """
    q = Fraction(1, 4)
    return {
        "E1": Star(4, (Angle(0), Angle(q))),
        "E2": Star(4, (Angle(q), Angle(2 * q))),
        "E3": Star(4, (Angle(2 * q), Angle(3 * q))),
        "E4": Star(4, (Angle(0), Angle(2 * q))),
        "E5": Star(4, (Angle(3 * q), Angle(0))),
    }


def enumerate_grid_star_sets(degree: int) -> list[StarSet]:
    """Every pairwise disjoint, cycle-free family of stars on the grid {k/d}.

    Includes the empty family.  Exhaustive and fast for small degrees (the
    families are tiny because total multiplicity can never exceed d-1); used
    by the verification sweeps that compare is_maximal against the
    brute-force oracle on every possible input.
    """
    if degree < 2:
        raise ValueError(f"degree must be >= 2, got {degree}")
    d = degree

    all_stars = [
        comb for size in range(2, d + 1) for comb in combinations(range(d), size)
    ]
    star_objects = [Star(d, [Angle(k, d) for k in comb]) for comb in all_stars]
    # Bit i of fits[j] is set iff star j lies in one gap of star i.
    fits = [
        sum(1 << i for i, cand in enumerate(all_stars) if in_one_gap(cand, e, d))
        for e in all_stars
    ]

    families: list[tuple[int, ...]] = []

    def extend(allowed: int, fam_idx: tuple[int, ...], parent: dict[int, int]) -> None:
        # allowed: the candidates after the last member that fit every member;
        # parent: the union-find forest of the members' points.
        families.append(fam_idx)
        while allowed:
            i = (allowed & -allowed).bit_length() - 1
            allowed &= allowed - 1
            joined = _forest((all_stars[i],), parent)
            if joined is not None:
                extend(allowed & fits[i], fam_idx + (i,), joined)

    extend((1 << len(all_stars)) - 1, (), {})
    return [StarSet(d, [star_objects[i] for i in idx]) for idx in families]
