"""Stars: finite circle subsets lying in one fiber of the times-d map.

A degree-d star is a set of at least two angles whose pairwise distances are
all multiples of 1/d, i.e. a subset of a single fiber of theta -> d*theta.
This module provides the structural predicates on families of stars
(disjointness, cycles, maximality), an independent brute-force maximality
oracle, and the arc-quotient construction that rescales the stars inside an
arc of a star onto a smaller circle.

Internally every predicate and the arc quotient work on the family's integer
lattice (its points as ticks over a common denominator), which keeps the
exhaustive degree-by-degree sweeps fast while staying exact.  A family is
validated once, on its own lattice: its ticks, whether its stars are pairwise
disjoint and its union-find forest are computed together and cached for the
last few families, and has_cycle, is_maximal and the brute-force oracle read
them.  The grid enumeration prunes
with gap tests precomputed as one bitmask per star; the brute-force oracle
ANDs cached per-star masks of the grid candidates, keyed by the members' ticks
on the lattice shared by the family and the grid.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import lcm

from .circle import Angle, in_one_gap
from .dynamics import _require_int

# Largest degree enumerate_grid_star_sets accepts.  The families grow about 8x
# a degree: 148,222 at d = 8 in 1.9 s and 65 MB ru_maxrss, 1,245,296 at d = 9 in
# 19 s and 319 MB; at that ratio d = 10 (not run) would take minutes and GBs.
MAX_GRID_DEGREE = 9
# Largest candidate count d * g * (d - 1) check_maximal_bruteforce accepts at
# grid refinement g.  The time grows with the count: at d = 4, 120,000 took
# 0.17 s, 360,000 0.53 s and 999,996 1.4 s and 110 MB ru_maxrss.
MAX_GRID_CANDIDATES = 1_000_000


class DegenerateArcError(ValueError):
    """Raised when a quotient arc has length 1/d: no room for any star."""


class Star:
    """A validated d-star: cyclically sorted angles, pairwise j/d apart."""

    __slots__ = ("degree", "points", "_den", "_ticks", "_hash", "_order")

    def __init__(self, degree: int, points) -> None:
        degree = _require_int(degree, "star degree", 2)
        pts = sorted({p if isinstance(p, Angle) else Angle(p) for p in points})
        if len(pts) < 2:
            raise ValueError("a star needs at least two distinct points")
        den = lcm(*(p.denominator for p in pts))
        ticks = tuple(p.numerator * (den // p.denominator) for p in pts)
        for p, t in zip(pts[1:], ticks[1:]):
            if (t - ticks[0]) * degree % den:
                raise ValueError(
                    f"{p} - {pts[0]} is not a multiple of 1/{degree}; not a {degree}-star"
                )
        self.degree = degree
        self.points = tuple(pts)
        self._den = den
        self._ticks = ticks
        self._hash = hash((degree, self.points))
        # Orders stars as `points` does (float() is monotone), but compares
        # floats first and Fractions only on a tie.
        self._order = tuple([(float(p), p) for p in pts])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Star)
            and self.degree == other.degree
            and self.points == other.points
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Star(d={self.degree}, {{{', '.join(map(str, self.points))}}})"

    def to_dict(self) -> dict:
        return {"d": self.degree, "points": [str(p) for p in self.points]}

    @classmethod
    def from_dict(cls, data: dict) -> "Star":
        return cls(data["d"], [Angle(p) for p in data["points"]])


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
        degree = _require_int(degree, "degree", 2)
        stars = tuple(sorted(set(stars), key=lambda s: s._order))
        for s in stars:
            if s.degree != degree:
                raise ValueError(f"star {s!r} has degree {s.degree}, expected {degree}")
        self.degree = degree
        self.stars = stars

    @classmethod
    def _canonical(cls, degree: int, stars: tuple[Star, ...]) -> "StarSet":
        # A family from distinct stars of this degree already in canonical order.
        family = object.__new__(cls)
        family.degree = degree
        family.stars = stars
        return family

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

def _lattice(stars) -> tuple[int, tuple[tuple[int, ...], ...]]:
    # The common denominator L of the stars' points, and each star's points
    # as the sorted ticks k of k/L.
    L = lcm(*[s._den for s in stars])
    return L, tuple([s._ticks if s._den == L else tuple([t * (L // s._den) for t in s._ticks])
                     for s in stars])


def disjoint(e1: Star, e2: Star) -> bool:
    """True iff e2 lies in the closure of one complementary arc of e1.

    Shared points are allowed; interleaved stars are not.  Symmetric in its
    arguments (a consequence of the definition, exercised by the tests).
    """
    if e1.degree != e2.degree:
        raise ValueError(f"degree mismatch: {e1.degree} vs {e2.degree}")
    if e1._den == e2._den:
        return in_one_gap(e1._ticks, e2._ticks, e1._den)
    L, (t1, t2) = _lattice((e1, e2))
    return in_one_gap(t1, t2, L)


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


@lru_cache(maxsize=64)
def _structure(stars: tuple[Star, ...]):
    # A family's structure, computed once for every predicate that reads it:
    # its own lattice L, each star's ticks on L, whether the stars are
    # pairwise disjoint and, if they are, the union-find root of each star
    # point (None if the family has a cycle).  A sweep asks is_maximal and
    # the oracle about one family in a row, so a small cache serves it.
    # Every caller shares the cached result, so callers only read it.
    L, family = _lattice(stars)
    pairwise = all(in_one_gap(a, b, L) for a, b in combinations(family, 2))
    parent = _forest(family) if pairwise else None
    roots = None if parent is None else {t: _root(parent, t) for ticks in family for t in ticks}
    return L, family, pairwise, roots


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
    _, _, pairwise, roots = _structure(star_set.stars)
    if not pairwise:
        raise ValueError("has_cycle requires pairwise disjoint stars")
    return roots is None


def sum_multiplicities(star_set: StarSet) -> int:
    return sum(multiplicity(s) for s in star_set.stars)


def is_maximal(star_set: StarSet) -> bool:
    """Pairwise disjoint, cycle-free, and total multiplicity exactly d-1.

    The multiplicity count is the cheap characterization of "no further star
    can be added"; check_maximal_bruteforce is the independent search-based
    oracle for the same property.
    """
    if not all(disjoint(a, b) for a, b in combinations(star_set.stars, 2)):
        return False
    if _structure(star_set.stars)[3] is None:
        return False
    return sum_multiplicities(star_set) == star_set.degree - 1


@lru_cache(maxsize=16)
def _candidate_pairs(d: int, grid_refinement: int) -> tuple[tuple[int, int], ...]:
    # Every two-point star {k/grid, k/grid + j/d} as its sorted ticks over
    # grid = d*grid_refinement, each once, in order of first appearance.
    # 16 entries hold a d = 2..6 sweep at g = 1, 2, 3 (15 keys); one entry
    # at d = 4, g = 2000 holds 1.3 MB (tracemalloc), so the bound matters.
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
    pairs = _candidate_pairs(d, grid_refinement)
    bits = bytearray((len(pairs) + 7) // 8)
    for i, (a, b) in enumerate(pairs):
        if in_one_gap((a * scale, b * scale), ticks, M):
            bits[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(bits, "little")


def check_maximal_bruteforce(star_set: StarSet, grid_refinement: int = 2) -> bool:
    """Maximality by direct search: is any grid two-point star addable?

    Tries every candidate {a, a + j/d} with both endpoints on the grid
    {k/(d*grid_refinement)} and reports True iff none can be added while
    keeping the family pairwise disjoint and cycle-free.  Two-point
    candidates suffice: any addable star contains an addable pair.

    The family is validated once, on its own lattice L, and that structure
    is shared with is_maximal and has_cycle.  The candidates disjoint from
    every member are the AND of the members' cached gap masks, keyed by their
    ticks on M = lcm(grid, L); one of them is addable iff its endpoints have
    different union-find roots, where a grid point off L is its own root.
    A grid of more than MAX_GRID_CANDIDATES candidates is refused.
    """
    grid_refinement = _require_int(grid_refinement, "grid_refinement", 1)
    d = star_set.degree
    if d * grid_refinement * (d - 1) > MAX_GRID_CANDIDATES:
        raise ValueError(f"grid refinement {grid_refinement} at degree {d} gives more than "
                         f"{MAX_GRID_CANDIDATES} candidate stars; lower it")
    grid = d * grid_refinement
    L, family, pairwise, roots = _structure(star_set.stars)
    if not pairwise:
        raise ValueError("brute-force oracle requires pairwise disjoint stars")
    if roots is None:
        raise ValueError("brute-force oracle requires an acyclic star family")

    M = lcm(grid, L)
    up, down = M // L, M // grid
    pairs = _candidate_pairs(d, grid_refinement)
    fits = (1 << len(pairs)) - 1
    for ticks in family:
        fits &= _gap_mask(d, grid_refinement, M, tuple([t * up for t in ticks]))
    while fits:
        a, b = pairs[(fits & -fits).bit_length() - 1]
        fits &= fits - 1
        a, b = a * down, b * down
        if a % up or b % up:
            return False  # an endpoint off L lies on no star: an extension
        a, b = a // up, b // up
        if roots.get(a, a) != roots.get(b, b):
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
    family).  Works on the family's ticks k/L: the arc is the offsets
    (k - start) mod L from 0 to its width, and offset o maps to o*d/(L*l).
    """
    d = star_set.degree
    if star.degree != d:
        raise ValueError("star degree does not match the family degree")
    if arc_start not in star.points or arc_end not in star.points:
        raise ValueError("arc endpoints must be points of the star")
    if arc_start == arc_end:
        raise ValueError("arc endpoints must be distinct")
    L, (ticks, *family) = _lattice((star, *star_set.stars))
    s0 = ticks[star.points.index(arc_start)]
    width = (ticks[star.points.index(arc_end)] - s0) % L
    if any(0 < (t - s0) % L < width for t in ticks):
        raise ValueError("arc endpoints are not consecutive in the star")
    ell = width * d // L    # exact: the star's points are j/d apart
    if ell < 2:
        raise DegenerateArcError(f"arc of length {Angle(width, L)} gives quotient degree {ell} < 2")

    inside = {}
    for other, other_ticks in zip(star_set.stars, family):
        if other == star:
            continue
        offsets = [(t - s0) % L for t in other_ticks]
        if all(o <= width for o in offsets):
            inside[other] = {Angle(o * d, L * ell) for o in offsets}
        elif any(0 < o < width for o in offsets):
            raise ValueError(f"star {other!r} straddles the arc boundary")
    for other, image_pts in inside.items():
        if len(image_pts) < 2:
            raise ValueError(f"star {other!r} collapses onto the identified arc endpoints")
    return ell, StarSet(ell, [Star(ell, pts) for pts in inside.values()])


# -- canonical degree-4 demo configurations and exhaustive enumeration --------

def named_example_stars() -> dict[str, Star]:
    """The five two-point stars on the quarter grid used throughout the docs.

    E1={0,1/4}, E2={1/4,1/2}, E3={1/2,3/4}, E4={0,1/2}, E5={3/4,0}:
    {E1,E2,E3} is maximal, {E1,E2,E3,E5} is a cycle, {E3,E4} is disjoint but
    not maximal.
    """
    return {
        "E1": Star(4, (Angle(0), Angle(1, 4))),
        "E2": Star(4, (Angle(1, 4), Angle(2, 4))),
        "E3": Star(4, (Angle(2, 4), Angle(3, 4))),
        "E4": Star(4, (Angle(0), Angle(2, 4))),
        "E5": Star(4, (Angle(3, 4), Angle(0))),
    }


def enumerate_grid_star_sets(degree: int) -> list[StarSet]:
    """Every pairwise disjoint, cycle-free family of stars on the grid {k/d}.

    Includes the empty family.  Exhaustive and fast for small degrees (the
    families are tiny because total multiplicity can never exceed d-1); used
    by the verification sweeps that compare is_maximal against the
    brute-force oracle on every possible input.  A degree past
    MAX_GRID_DEGREE is refused.
    """
    d = _require_int(degree, "degree", 2)
    if d > MAX_GRID_DEGREE:
        raise ValueError(f"degree {d} exceeds the grid enumeration limit {MAX_GRID_DEGREE}")

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
    # Each star's rank in the order StarSet keeps, so each family is built in
    # that order directly, without StarSet's dedup and sort.
    order = sorted(range(len(star_objects)), key=lambda i: star_objects[i]._order)
    rank = {i: r for r, i in enumerate(order)}
    return [StarSet._canonical(d, tuple([star_objects[i] for i in sorted(idx, key=rank.__getitem__)]))
            for idx in families]
