"""Subset-sum cubes over F_p and their avoidance/containment dimensions.

A cube H(a0; a1..ad) is the set {a0 + sum of any sub-collection of the
generators} mod p. Generators must be pairwise distinct and nonzero (a zero
generator would inflate the dimension without changing the element set; all
dimensions reported here use the nonzero convention). Searches run over
element bitmasks, where adding a generator g is a cyclic shift-or.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import CapabilityError
from .numtheory import PrimeContext, bitmap_to_set, legendre_symbol

ELEMENT_ENUM_CAP = 30         # 2^d subset sums; keep enumeration honest
EXHAUSTIVE_P_CAP = 60         # ceiling for exact searches
HEURISTIC_RESTARTS = 40       # greedy restarts per heuristic search
NONRESIDUE = "non-residue"
PRIMROOT = "primitive-root"
DEFAULT_SEED = 0x5EED         # the heuristic's random seed

_PREDICATES = (NONRESIDUE, PRIMROOT)


@dataclass(frozen=True)
class HilbertCube:
    base: int
    gens: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.gens)) != len(self.gens):
            raise ValueError("generators must be pairwise distinct")
        if any(g == 0 for g in self.gens):
            raise ValueError("generators must be nonzero")

    @property
    def dim(self) -> int:
        return len(self.gens)

    def __str__(self):
        return f"({self.base};{','.join(map(str, self.gens))})"


@dataclass(frozen=True)
class CubeSearchResult:
    dim: int
    witness: HilbertCube
    exact: bool  # False: heuristic lower bound only


@dataclass(frozen=True)
class CubeCensus:
    """Exhaustive avoidance/containment dimensions for one prime."""

    p: int
    avoid_nonresidue: CubeSearchResult      # f
    avoid_primroot: CubeSearchResult        # F
    inside_nonresidue: CubeSearchResult     # f-bar
    inside_primroot: CubeSearchResult       # F-bar

    def chain_violations(self) -> list[str]:
        """Check the weak chain F-bar <= f-bar <= f <= F; f-bar < f is allowed,
        as at p = 5, where every maximal avoiding cube contains 0."""
        f = self.avoid_nonresidue.dim
        big_f = self.avoid_primroot.dim
        fbar = self.inside_nonresidue.dim
        big_fbar = self.inside_primroot.dim
        out = []
        if not big_fbar <= fbar:
            out.append(f"F_bar={big_fbar} > f_bar={fbar}")
        if not fbar <= f:
            out.append(f"f_bar={fbar} > f={f}")
        if not f <= big_f:
            out.append(f"f={f} > F={big_f}")
        return out


def cube_elements(cube: HilbertCube, p: int) -> set[int]:
    """All subset-sum translates of the base, reduced mod p."""
    if cube.dim > ELEMENT_ENUM_CAP:
        raise CapabilityError(f"cube dimension {cube.dim} exceeds enumeration cap")
    elems = {cube.base % p}
    for g in cube.gens:
        elems |= {(x + g) % p for x in elems}
    return elems


def _target_mask(ctx: PrimeContext, predicate: str) -> int:
    """Bit a set iff a satisfies the predicate; PRIMROOT's is the checked bitmap."""
    if predicate == NONRESIDUE:
        return sum(1 << a for a in range(1, ctx.p) if legendre_symbol(a, ctx.p) == -1)
    if predicate == PRIMROOT:
        return ctx.pr_bitmap()
    raise ValueError(f"unknown predicate {predicate!r}; expected one of {_PREDICATES}")


def cube_avoids(cube: HilbertCube, ctx: PrimeContext, predicate: str) -> bool:
    """True iff no cube element satisfies the predicate (0 satisfies neither)."""
    elems, target = cube_elements(cube, ctx.p), _target_mask(ctx, predicate)
    return not any(target >> a & 1 for a in elems)


def cube_contained(cube: HilbertCube, ctx: PrimeContext, predicate: str) -> bool:
    elems, target = cube_elements(cube, ctx.p), _target_mask(ctx, predicate)
    return all(target >> a & 1 for a in elems)


def small_elements_cube(dim: int) -> HilbertCube:
    """The cube (0; 1, 2, ..., d) whose elements fill [0, d(d+1)/2]."""
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    return HilbertCube(0, tuple(range(1, dim + 1)))


def _translate_union(elems: int, g: int, p: int) -> int:
    """Element bitmask of a cube with the generator g added: elems | (elems + g)."""
    return elems | (((elems << g) | (elems >> (p - g))) & ((1 << p) - 1))


def _max_cube_exhaustive(p: int, allowed_mask: int) -> CubeSearchResult:
    """Deepest cube whose elements stay inside allowed_mask, by pruned DFS.

    Generators are canonicalised ascending; branches die as soon as a partial
    element set leaves the allowed mask. Iteration order (base ascending,
    then generators lexicographically) makes the reported witness the least
    one among the maximal cubes. Capped at p <= EXHAUSTIVE_P_CAP.
    """
    if p > EXHAUSTIVE_P_CAP:
        raise CapabilityError(f"exhaustive cube search capped at p <= {EXHAUSTIVE_P_CAP}")
    best_dim = 0
    best = HilbertCube(bitmap_to_set(allowed_mask)[0], ())

    def grow(base: int, gens: tuple[int, ...], elems: int):
        nonlocal best_dim, best
        start = gens[-1] + 1 if gens else 1
        for g in range(start, p):
            new = _translate_union(elems, g, p)
            if new & ~allowed_mask:
                continue
            cand = gens + (g,)
            if len(cand) > best_dim:
                best_dim = len(cand)
                best = HilbertCube(base, cand)
            grow(base, cand, new)

    for base in bitmap_to_set(allowed_mask):
        grow(base, (), 1 << base)
    return CubeSearchResult(best_dim, best, exact=True)


def _max_cube_heuristic(p: int, allowed_mask: int) -> CubeSearchResult:
    """Greedy growth with random restarts; yields a valid lower bound."""
    rng = random.Random(DEFAULT_SEED)
    bases = bitmap_to_set(allowed_mask)
    best_dim = 0
    best = HilbertCube(bases[0], ())
    for _ in range(HEURISTIC_RESTARTS):
        base = rng.choice(bases)
        elems = 1 << base
        gens: list[int] = []
        candidates = [g for g in range(1, p)]
        rng.shuffle(candidates)
        progress = True
        while progress:
            progress = False
            for g in candidates:
                if g in gens:
                    continue
                new = _translate_union(elems, g, p)
                if not new & ~allowed_mask:
                    gens.append(g)
                    elems = new
                    progress = True
        if len(gens) > best_dim or (len(gens) == best_dim
                                    and (base, tuple(sorted(gens))) < (best.base, best.gens)):
            best_dim = len(gens)
            best = HilbertCube(base, tuple(sorted(gens)))
    return CubeSearchResult(best_dim, best, exact=False)


def _allowed_mask(ctx: PrimeContext, predicate: str, contained: bool) -> int:
    target = _target_mask(ctx, predicate)
    allowed = target if contained else target ^ ((1 << ctx.p) - 1)
    if not allowed:
        raise ValueError("empty target set admits no cube")
    return allowed


def max_avoiding_dimension(ctx: PrimeContext, predicate: str) -> CubeSearchResult:
    """Largest cube dimension avoiding the predicate set (f for non-residues,
    F for primitive roots): exact up to EXHAUSTIVE_P_CAP, a heuristic lower
    bound (exact=False) above it."""
    mask = _allowed_mask(ctx, predicate, False)
    if ctx.p <= EXHAUSTIVE_P_CAP:
        return _max_cube_exhaustive(ctx.p, mask)
    return _max_cube_heuristic(ctx.p, mask)


def max_contained_dimension(ctx: PrimeContext, predicate: str) -> CubeSearchResult:
    """Largest cube dimension entirely inside the predicate set (f-bar/F-bar),
    by exhaustive search."""
    return _max_cube_exhaustive(ctx.p, _allowed_mask(ctx, predicate, True))


def cube_census(ctx: PrimeContext) -> CubeCensus:
    if not 2 < ctx.p <= EXHAUSTIVE_P_CAP:
        raise CapabilityError(f"cube census needs an odd prime p <= {EXHAUSTIVE_P_CAP}")
    return CubeCensus(
        p=ctx.p,
        avoid_nonresidue=max_avoiding_dimension(ctx, NONRESIDUE),
        avoid_primroot=max_avoiding_dimension(ctx, PRIMROOT),
        inside_nonresidue=max_contained_dimension(ctx, NONRESIDUE),
        inside_primroot=max_contained_dimension(ctx, PRIMROOT),
    )


def longest_ap_in_cube(cube: HilbertCube, ctx: PrimeContext) -> tuple[int, int, int]:
    """Longest run {a*n + b : n = 1..L} inside the cube's element set.

    Maximised over steps a != 0 (and any b); ties break toward the smallest
    (a, b). Runs may wrap around mod p since elements are residues.
    """
    p = ctx.p
    elems = cube_elements(cube, p)
    if len(elems) == p:
        return p, 1, 0
    best = (0, 0, 0)
    for a in range(1, p):
        # walk each maximal run once, from its start
        for e in sorted(elems):
            if (e - a) % p in elems:
                continue
            length = 1
            x = e
            while (x + a) % p in elems:
                x = (x + a) % p
                length += 1
            b = (e - a) % p
            if length > best[0] or (length == best[0] and (a, b) < best[1:]):
                best = (length, a, b)
    return best
