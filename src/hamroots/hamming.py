"""Fixed-width binary expansions: weights, flip sets and covering radii.

Every integer attached to a prime context is viewed as a bit_len = r+1 bit
string (2^r < p <= 2^(r+1)), leading zeros included. The headline statistic
is the covering radius of the primitive-root set: the least s such that every
n in the scan domain is within s bit flips of a valid target. covering_radius
computes it by bitmap dilation; a multi-source BFS over the hypercube and a
per-n ball search are kept as its oracles, and all three must agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

from .errors import CapabilityError, InvariantViolation
from .numtheory import PrimeContext, bitmap_to_set


@dataclass(frozen=True)
class BitExpansion:
    """An integer pinned to a fixed bit width (index 0 = least significant)."""

    value: int
    length: int

    def __post_init__(self):
        if not 0 <= self.value < (1 << self.length):
            raise ValueError(f"{self.value} does not fit in {self.length} bits")

    @property
    def weight(self) -> int:
        return self.value.bit_count()

    def __str__(self):
        return format(self.value, f"0{self.length}b")


@dataclass(frozen=True)
class RadiusVariant:
    """Convention knobs for the covering radius.

    n_domain_zero: measure n over [0, p-1] instead of [1, p]. The two domains
    differ only in the points 0 and p, so this is a view of one dilation (see
    `view`), not a parameter of it.
    reduced_targets: accept any bit pattern t < 2^bit_len whose residue mod p
    is a primitive root, instead of only literal integers in [1, p-1].
    """

    name: str
    n_domain_zero: bool = False
    reduced_targets: bool = False

    @property
    def targets(self) -> str:
        """The name of the target set, the one choice a dilation depends on."""
        return "reduced" if self.reduced_targets else "literal"


CANONICAL = RadiusVariant("canonical")
DOMAIN0 = RadiusVariant("domain0", n_domain_zero=True)
REDUCED = RadiusVariant("reduced", reduced_targets=True)

VARIANTS = {v.name: v for v in (CANONICAL, DOMAIN0, REDUCED)}
# The view over [1, p] of each target set: what a scan and its file give.
BASE_VIEWS = {v.targets: v for v in (CANONICAL, REDUCED)}


class Radii(NamedTuple):
    """What one dilation of the targets says about the class 0 and the rest.

    core is the covering radius of [1, p-1] and witnesses its witness
    classes, ascending, or () where no view reads them; dist_0 and dist_p are
    the distances from the points 0 and p to the targets. Both points are
    the class 0, so every domain convention is a view of these (see `view`).
    """

    core: int
    dist_0: int
    dist_p: int
    witnesses: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class HammingProfile:
    """Per-prime record of the three statistics (None = not computed / undefined).

    delta and witnesses are the `variant` view of radii; radii is None where
    delta is (p = 2, or not computed) and in profiles built without it.
    """

    p: int
    r: int
    w: int | None = None
    W: int | None = None
    delta: int | None = None
    witnesses: tuple[int, ...] = ()
    variant: str = CANONICAL.name
    radii: Radii | None = None


def hamming_weight(n: int) -> int:
    if n < 0:
        raise ValueError("weight of a negative integer is undefined")
    return n.bit_count()


def hamming_distance(a: int, b: int, length: int) -> int:
    """Number of differing positions in the length-bit expansions of a and b."""
    if a >= (1 << length) or b >= (1 << length) or a < 0 or b < 0:
        raise ValueError(f"operands must fit in {length} bits")
    return (a ^ b).bit_count()


def _check_flip_params(ctx: PrimeContext, n: int, k: int) -> None:
    if not 1 <= k <= ctx.r:
        raise ValueError(f"k must be in [1, r={ctx.r}], got {k}")
    if not 1 <= n <= ctx.p:
        raise ValueError(f"n must be in [1, p={ctx.p}], got {n}")


def _flips(x: int, width: int, count: int):
    """x with each `count`-subset of its low `width` bits flipped, the subsets
    in lexicographic order of their positions (ascending)."""
    for masks in combinations([1 << i for i in range(width)], count):
        yield x ^ sum(masks)


def high_bit_flip_set(n: int, ctx: PrimeContext, k: int, flips: int) -> list[int]:
    """Positive u < 2^k differing from the top k bits of n in exactly `flips` places.

    The top k bits are positions r-k+1..r of the (r+1)-bit expansion of n.
    The all-zero pattern is excluded, so the count is C(k, flips) minus one
    exactly when the top bits have weight `flips`.
    """
    _check_flip_params(ctx, n, k)
    if not 0 <= flips <= k:
        raise ValueError(f"flip count must be in [0, {k}], got {flips}")
    return sorted(u for u in _flips(n >> (ctx.bit_len - k), k, flips) if u)


def low_bit_flip_set(n: int, ctx: PrimeContext, k: int, flips: int) -> list[int]:
    """Positive v < 2^(r-k+1) differing from the low r-k+1 bits of n in `flips` places."""
    _check_flip_params(ctx, n, k)
    width = ctx.r - k + 1
    if not 0 <= flips <= ctx.r - k:
        raise ValueError(f"flip count must be in [0, {ctx.r - k}], got {flips}")
    return sorted(v for v in _flips(n & ((1 << width) - 1), width, flips) if v)


def recombined_set(n: int, ctx: PrimeContext, k: int, hi_flips: int, lo_flips: int) -> list[int]:
    """All u * 2^(r-k+1) + v over the two flip sets; each differs from n in
    exactly hi_flips + lo_flips positions."""
    shift = ctx.r - k + 1
    return sorted(
        (u << shift) | v
        for u in high_bit_flip_set(n, ctx, k, hi_flips)
        for v in low_bit_flip_set(n, ctx, k, lo_flips)
    )


# --- covering radius engines ---------------------------------------------


def _target_bitmap(ctx: PrimeContext, reduced_targets: bool) -> int:
    bm = ctx.pr_bitmap()
    if reduced_targets:
        width_mask = (1 << (1 << ctx.bit_len)) - 1
        bm |= (bm << ctx.p) & width_mask
    return bm


@lru_cache(maxsize=None)
def _flip_shuffles(length: int) -> tuple[tuple[int, int], ...]:
    """(shift, mask-of-positions-with-bit-i-clear) pairs for bitmap dilation.

    Masks repeat a little-endian byte pattern, cut to 2^length bits; linear
    in 2^length."""
    size = 1 << length
    out = []
    for i in range(length):
        s = 1 << i
        block = (bytes([(0x55, 0x33, 0x0F)[i]]) if s < 8
                 else b"\xff" * (s // 8) + b"\0" * (s // 8))
        mask = int.from_bytes(block * max(1, size // 8 // len(block)), "little")
        out.append((s, mask & ((1 << size) - 1)))
    return tuple(out)


def dilate(bitmap: int, length: int) -> int:
    """Union of a set in {0,1}^length with all single-bit-flip images."""
    out = bitmap
    for s, low in _flip_shuffles(length):
        out |= ((bitmap & low) << s) | ((bitmap >> s) & low)
    return out


def lists_core_witnesses(core: int, dist_0: int, dist_p: int, reduced_targets: bool) -> bool:
    """Whether a view of these targets reads the core witnesses: one whose
    endpoint (p, or 0 too under literal targets) is no farther than the core."""
    return (dist_p if reduced_targets else min(dist_0, dist_p)) <= core


def dilation_radii(ctx: PrimeContext, reduced_targets: bool) -> Radii:
    """Radii by iterated bitmap dilation.

    Grows the target set by Hamming-ball radius one per round until [1, p-1]
    and the points 0 and p are all covered. The core witnesses are the points
    of [1, p-1] still uncovered going into the round that covers it, if read.
    """
    p = ctx.p
    if p == 2:
        raise CapabilityError("p = 2 is excluded from covering-radius scans")
    core = (1 << p) - 2  # n in [1, p-1]
    ball = previous = _target_bitmap(ctx, reduced_targets)
    radius = 0
    core_radius = dist_0 = dist_p = None
    while True:
        if core_radius is None and ball & core == core:
            core_radius, uncovered = radius, core & ~previous
        if dist_0 is None and ball & 1:
            dist_0 = radius
        if dist_p is None and ball >> p & 1:
            dist_p = radius
        if None not in (core_radius, dist_0, dist_p):
            if not lists_core_witnesses(core_radius, dist_0, dist_p, reduced_targets):
                uncovered = 0  # no view reads the core witnesses
            return Radii(core_radius, dist_0, dist_p, tuple(bitmap_to_set(uncovered)))
        if radius == ctx.bit_len:
            raise InvariantViolation(
                f"p={p} targets={'reduced' if reduced_targets else 'literal'}: the dilation "
                f"for delta leaves the domain uncovered after {radius} rounds")
        previous = ball
        ball = dilate(ball, ctx.bit_len)
        radius += 1


def view(radii: Radii, variant: RadiusVariant) -> tuple[int, tuple[int, ...]]:
    """(delta, witness classes) over the variant's domain, [0, p-1] or [1, p]:
    its endpoint 0 or p adds the class 0 to the witnesses of [1, p-1]."""
    end = radii.dist_0 if variant.n_domain_zero else radii.dist_p
    delta = max(radii.core, end)
    return delta, (((0,) if end == delta else ())
                   + (radii.witnesses if radii.core == delta else ()))


def viewed_profile(p: int, r: int, w: int | None, W: int | None, radii: Radii | None,
                   variant: RadiusVariant) -> HammingProfile:
    """The profile of these statistics whose delta and witnesses are the
    variant's view of radii; the variant's targets must be those of radii."""
    delta, wits = view(radii, variant) if radii else (None, ())
    return HammingProfile(p, r, w, W, delta, wits, variant.name, radii)


def covering_radius(ctx: PrimeContext, variant: RadiusVariant = CANONICAL
                    ) -> tuple[int, tuple[int, ...]]:
    """Covering radius and its witness classes (n mod p, ascending) over the
    variant's domain, by bitmap dilation."""
    return view(dilation_radii(ctx, variant.reduced_targets), variant)


def covering_radius_bfs(ctx: PrimeContext, variant: RadiusVariant = CANONICAL
                        ) -> tuple[int, tuple[int, ...]]:
    """Covering radius by multi-source BFS over the bit_len-cube."""
    if ctx.p == 2:
        raise CapabilityError("p = 2 is excluded from covering-radius scans")
    size = 1 << ctx.bit_len
    targets = _target_bitmap(ctx, variant.reduced_targets)
    dist = [-1] * size
    frontier = []
    t = targets
    while t:
        lowbit = t & -t
        x = lowbit.bit_length() - 1
        dist[x] = 0
        frontier.append(x)
        t ^= lowbit
    d = 0
    while frontier:
        nxt = []
        for x in frontier:
            for i in range(ctx.bit_len):
                y = x ^ (1 << i)
                if dist[y] < 0:
                    dist[y] = d + 1
                    nxt.append(y)
        frontier = nxt
        d += 1
    lo = 0 if variant.n_domain_zero else 1
    hi = ctx.p - 1 if variant.n_domain_zero else ctx.p
    radius = max(dist[n] for n in range(lo, hi + 1))
    wits = tuple(sorted(n % ctx.p for n in range(lo, hi + 1) if dist[n] == radius))
    return radius, wits


def min_flips_to_primroot(n: int, ctx: PrimeContext, variant: RadiusVariant = CANONICAL
                          ) -> tuple[int, int]:
    """Least s with a valid target s flips from n, plus the first such target.

    Balls are searched radius by radius; within a radius, flipped-position
    subsets are tried in lexicographic order (positions ascending), so the
    witness is deterministic across runs and engines.
    """
    p, length = ctx.p, ctx.bit_len
    if variant.n_domain_zero:
        if not 0 <= n <= p - 1:
            raise ValueError(f"n must be in [0, {p - 1}] for this variant")
    elif not 1 <= n <= p:
        raise ValueError(f"n must be in [1, {p}]")
    targets = _target_bitmap(ctx, variant.reduced_targets)
    for s in range(length + 1):
        for t in _flips(n, length, s):
            if targets >> t & 1:
                return s, t
    raise InvariantViolation(f"p={p} variant={variant.name}: the ball search for delta "
                             f"reaches no target from n={n}")


# --- minimal-weight statistics --------------------------------------------


def _next_same_weight(v: int) -> int:
    # Gosper's hack: next larger integer with the same popcount.
    c = v & -v
    r = v + c
    return r | (((v ^ r) >> 2) // c)


def ascending_weight_values(weight: int, below: int):
    """Integers of the given Hamming weight in [1, below), ascending."""
    v = (1 << weight) - 1
    while v < below:
        yield v
        v = _next_same_weight(v)


def sparsest(ctx: PrimeContext, roots: bool
             ) -> tuple[tuple[int, int] | None, tuple[int, int] | None]:
    """(weight, witness) of the sparsest quadratic non-residue of [1, p-1]
    and, if `roots`, of the sparsest primitive root (else None), in one sweep.

    The candidates are tried once each, in increasing weight and ascending
    within a weight, with one Euler test v^((p-1)/2) each. Every primitive
    root is a non-residue, since a square has order dividing (p-1)/2, so a
    root is a non-residue that also passes v^((p-1)/q) != 1 for each odd prime
    q | p-1, and only non-residues get those tests. The first non-residue is
    w's witness, and the first that passes them all is W's. Class 1 is {2}:
    the powers of two lie in <2>, so 2^a is a non-residue (or a root) only if
    2 is. For p = 2 there are no non-residues and 1 is the root.
    """
    p = ctx.p
    if p == 2:
        return None, (1, 1) if roots else None
    half = (p - 1) // 2
    odd_exponents = ctx.pr_test_exponents()[1:]  # the first is half, for q = 2
    nonresidue = None
    for weight in range(1, ctx.bit_len + 1):
        for v in (2,) if weight == 1 else ascending_weight_values(weight, p):
            if pow(v, half, p) != p - 1:
                continue
            if nonresidue is None:
                nonresidue = weight, v
                if not roots:
                    return nonresidue, None
            if all(pow(v, e, p) != 1 for e in odd_exponents):
                return nonresidue, (weight, v)
    raise InvariantViolation(f"p={p}: the candidate sweep for {'W' if nonresidue else 'w'} finds "
                             f"no {'primitive root' if nonresidue else 'non-residue'}")


def min_nonresidue_weight(ctx: PrimeContext) -> tuple[int, int]:
    """(weight, witness): sparsest quadratic non-residue in [1, p-1]."""
    if ctx.p == 2:
        raise CapabilityError("non-residues are undefined mod 2")
    return sparsest(ctx, roots=False)[0]


def min_primroot_weight(ctx: PrimeContext) -> tuple[int, int]:
    """(weight, witness): sparsest primitive root in [1, p-1]; (1, 1) for p = 2."""
    return sparsest(ctx, roots=True)[1]
