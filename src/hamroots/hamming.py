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

from .errors import CapabilityError
from .numtheory import PrimeContext, bitmap_to_set, is_primitive_root, legendre_symbol


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
    """Convention knobs for the covering-radius scan.

    n_domain_zero: scan n over [0, p-1] instead of [1, p].
    reduced_targets: accept any bit pattern t < 2^bit_len whose residue mod p
    is a primitive root, instead of only literal integers in [1, p-1].
    """

    name: str
    n_domain_zero: bool = False
    reduced_targets: bool = False


CANONICAL = RadiusVariant("canonical")
DOMAIN0 = RadiusVariant("domain0", n_domain_zero=True)
REDUCED = RadiusVariant("reduced", reduced_targets=True)

VARIANTS = {v.name: v for v in (CANONICAL, DOMAIN0, REDUCED)}


@dataclass(frozen=True)
class HammingProfile:
    """Per-prime record of the three statistics (None = not computed / undefined)."""

    p: int
    r: int
    w: int | None = None
    W: int | None = None
    delta: int | None = None
    witnesses: tuple[int, ...] = ()
    variant: str = CANONICAL.name


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


def _target_bitmap(ctx: PrimeContext, variant: RadiusVariant) -> int:
    bm = ctx.pr_bitmap()
    if variant.reduced_targets:
        width_mask = (1 << (1 << ctx.bit_len)) - 1
        bm |= (bm << ctx.p) & width_mask
    return bm


def _domain_bitmap(ctx: PrimeContext, variant: RadiusVariant) -> int:
    if variant.n_domain_zero:
        return (1 << ctx.p) - 1  # n in [0, p-1]
    return ((1 << (ctx.p + 1)) - 1) - 1  # n in [1, p]


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


def _witness_classes(uncovered: int, p: int) -> tuple[int, ...]:
    return tuple(sorted(n % p for n in bitmap_to_set(uncovered)))


def covering_radius(ctx: PrimeContext, variant: RadiusVariant = CANONICAL
                    ) -> tuple[int, tuple[int, ...]]:
    """Covering radius by iterated bitmap dilation.

    Grows the target set by Hamming-ball radius one per round until the scan
    domain is covered; the witnesses are the domain points still uncovered
    going into the final round (reported as classes n mod p, ascending).
    """
    if ctx.p == 2:
        raise CapabilityError("p = 2 is excluded from covering-radius scans")
    domain = _domain_bitmap(ctx, variant)
    ball = _target_bitmap(ctx, variant)
    radius = 0
    previous = ball
    while ball & domain != domain:
        previous = ball
        ball = dilate(ball, ctx.bit_len)
        radius += 1
        if radius > ctx.bit_len:
            raise RuntimeError(f"dilation failed to cover the domain for p={ctx.p}")
    return radius, _witness_classes(domain & ~previous, ctx.p)


def covering_radius_bfs(ctx: PrimeContext, variant: RadiusVariant = CANONICAL
                        ) -> tuple[int, tuple[int, ...]]:
    """Covering radius by multi-source BFS over the bit_len-cube."""
    if ctx.p == 2:
        raise CapabilityError("p = 2 is excluded from covering-radius scans")
    size = 1 << ctx.bit_len
    targets = _target_bitmap(ctx, variant)
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
    targets = _target_bitmap(ctx, variant)
    for s in range(length + 1):
        for t in _flips(n, length, s):
            if targets >> t & 1:
                return s, t
    raise RuntimeError(f"no target reachable from n={n} mod p={p}")


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


def _sparsest(ctx: PrimeContext, accept, what: str) -> tuple[int, int]:
    """(weight, witness): the first v in [1, p-1] that `accept`s, enumerating
    weight classes in increasing weight and values ascending within a class.
    `accept(v)` holds iff v lies outside every subgroup of a fixed family (the
    squares, or the q-th powers for each prime q | p-1): 2^a lies in <2>, so
    accept(2^a) implies accept(2), and class 1 is decided by 1 and 2 alone."""
    for w in range(1, ctx.bit_len + 1):
        # Class 1 is the powers of two: only 1 (for p = 2) and 2 can be first.
        for v in ascending_weight_values(w, min(ctx.p, 3) if w == 1 else ctx.p):
            if accept(v):
                return w, v
    raise RuntimeError(f"no {what} found mod {ctx.p}")


def min_nonresidue_weight(ctx: PrimeContext) -> tuple[int, int]:
    """(weight, witness): sparsest quadratic non-residue in [1, p-1]."""
    p = ctx.p
    if p == 2:
        raise CapabilityError("non-residues are undefined mod 2")
    return _sparsest(ctx, lambda v: legendre_symbol(v, p) == -1, "non-residue")


def min_primroot_weight(ctx: PrimeContext) -> tuple[int, int]:
    """(weight, witness): sparsest primitive root in [1, p-1]; (1, 1) for p = 2."""
    return _sparsest(ctx, lambda v: is_primitive_root(v, ctx), "primitive root")


def hamming_profile(ctx: PrimeContext, variant: RadiusVariant = CANONICAL,
                    compute: frozenset[str] = frozenset({"w", "W", "delta"})
                    ) -> HammingProfile:
    """Bundle the requested statistics for one prime.

    For p = 2 only W is defined (W_2 = 1); the other fields stay None.
    """
    p = ctx.p
    w = W = delta = None
    wits: tuple[int, ...] = ()
    if "w" in compute and p > 2:
        w = min_nonresidue_weight(ctx)[0]
    if "W" in compute:
        W = min_primroot_weight(ctx)[0]
    if "delta" in compute and p > 2:
        delta, wits = covering_radius(ctx, variant)
    return HammingProfile(p=p, r=ctx.r, w=w, W=W, delta=delta,
                          witnesses=wits, variant=variant.name)
