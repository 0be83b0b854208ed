"""Fixed-width binary expansions: weights, flip sets and covering radii.

Every integer attached to a prime context is viewed as a bit_len = r+1 bit
string (2^r < p <= 2^(r+1)), leading zeros included. The headline statistic
is the covering radius of the primitive-root set: the least s such that every
n in the scan domain is within s bit flips of a valid target. covering_radius
computes it by bitmap dilation; a multi-source BFS over the same bitmap and
a per-n ball search on `is_primitive_root`, which reads none, are its oracles
and must agree. The ball search also certifies each dilation at a few points.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations, repeat
from typing import Iterable, Iterator, NamedTuple

from .errors import CapabilityError, InvariantViolation
from .numtheory import (PrimeContext, _jacobi, bit_exponent, is_primitive_root, set_bits,
                        unfactored_part)


class RadiusVariant(NamedTuple):
    """Convention knobs for the covering radius.

    n_domain_zero: measure n over [0, p-1] instead of [1, p]. The two domains
    differ only in the points 0 and p, so this is a view of one dilation (see
    `view`), not a parameter of it.
    targets: the target set, the one choice a dilation depends on: "literal"
    takes only the integers in [1, p-1] that are primitive roots, "reduced"
    any bit pattern t < 2^bit_len whose residue mod p is one.
    """

    name: str
    n_domain_zero: bool = False
    targets: str = "literal"


CANONICAL = RadiusVariant("canonical")
DOMAIN0 = RadiusVariant("domain0", n_domain_zero=True)
REDUCED = RadiusVariant("reduced", targets="reduced")

VARIANTS = {v.name: v for v in (CANONICAL, DOMAIN0, REDUCED)}
# The view over [1, p] of each target set: what a scan and its file give.
BASE_VIEWS = {v.targets: v for v in (CANONICAL, REDUCED)}


class Radii(NamedTuple):
    """What one dilation of the targets says about the class 0 and the rest.

    core is the covering radius of [1, p-1] and count the number of its
    witness classes, the points of [1, p-1] at distance core; dist_0 and
    dist_p are the distances from the points 0 and p to the targets. Both
    points are the class 0, so every domain convention is a view of these
    (see `view`). The classes themselves are not kept: `covering_radius`
    lists them.
    """

    core: int
    dist_0: int
    dist_p: int
    count: int


class HammingProfile:
    """Per-prime record of the three statistics (None = not computed / undefined).

    A profile stores p, w, W, its variant and radii, and derives the rest
    when read: r is `bit_exponent(p)`, and a profile built with radii is
    their `variant` view, so delta and witness_count come from `view` and
    `witnesses` from `covering_radius` (see there). radii is None where delta
    is (p = 2, or not computed) and in profiles built from their statistics,
    which keep the delta and witnesses they are given, in one slot that is
    None for every other profile, and count them. Profiles compare by value,
    and neither that nor `repr` derives a list. They are not frozen: a frozen
    `__init__` sets each slot by `object.__setattr__`, which made building one
    three to five times slower on CPython 3.11; nothing assigns to them or
    hashes them, and the derived statistics are read-only.
    """

    __slots__ = ("p", "w", "W", "variant", "radii", "_given")
    # What repr shows, derived statistics included, in the constructor's order.
    _SHOWN = ("p", "r", "w", "W", "delta", "witness_count", "variant", "radii")

    def __init__(self, p: int, r: int, w: int | None = None, W: int | None = None,
                 delta: int | None = None, witnesses: tuple[int, ...] = (),
                 variant: str = CANONICAL.name, radii: Radii | None = None):
        if r != bit_exponent(p):
            raise ValueError(f"r={r} is not the bit exponent of p={p}, which is {bit_exponent(p)}")
        if radii is not None and (delta is not None or witnesses):
            raise ValueError("a profile with radii takes delta and its witnesses from their view")
        self.p = p
        self.w = w
        self.W = W
        self.variant = variant
        self.radii = radii
        self._given = (delta, witnesses) if delta is not None or witnesses else None

    @property
    def r(self) -> int:
        return bit_exponent(self.p)

    @property
    def delta(self) -> int | None:
        if self.radii is not None:
            return view(self.radii, VARIANTS[self.variant])[0]
        return None if self._given is None else self._given[0]

    @property
    def witness_count(self) -> int:
        if self.radii is not None:
            return view(self.radii, VARIANTS[self.variant])[1]
        return 0 if self._given is None else len(self._given[1])

    @property
    def witnesses(self) -> tuple[int, ...]:
        """The witness classes, ascending. A profile with radii derives them:
        the list of `covering_radius`, which must have this delta and
        witness_count."""
        if self.radii is None:
            return () if self._given is None else self._given[1]
        delta, wits = covering_radius(PrimeContext.for_prime(self.p), VARIANTS[self.variant])
        self._check(delta, len(wits))
        return wits

    def _check(self, delta: int, count: int) -> None:
        """Raise InvariantViolation unless a list of count witnesses at delta,
        listed for this profile's prime and variant, has its view."""
        if (delta, count) != view(self.radii, VARIANTS[self.variant]):
            raise InvariantViolation(
                f"p={self.p} variant={self.variant}: the row gives delta={self.delta} with "
                f"{self.witness_count} witness classes, but the dilation for delta "
                f"(covering_radius) lists {count} at delta={delta}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None

    def __repr__(self):
        # The witnesses a profile was built with are shown, derived ones are not.
        shown = [f"{name}={getattr(self, name)!r}" for name in self._SHOWN]
        if self.radii is None:
            shown.append(f"witnesses={self.witnesses!r}")
        return "HammingProfile(%s)" % ", ".join(shown)


def witness_lists(*profiles: HammingProfile) -> list[Iterator[int]]:
    """The `witnesses` of each profile, for profiles with radii of one
    prime, from one dilation per target set. Each list is checked as there
    before any is returned, and returned as an iterator, which makes each
    class as it is read."""
    ctx = PrimeContext.for_prime(profiles[0].p)
    dilations, lists = {}, []
    for prof in profiles:
        variant = VARIANTS[prof.variant]
        if variant.targets not in dilations:
            dilations[variant.targets] = _dilation(ctx, variant.targets)
        delta, count, wits = _listed(*dilations[variant.targets], variant)
        prof._check(delta, count)
        lists.append(wits)
    return lists


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


def _target_top(ctx: PrimeContext, targets: str) -> int:
    """The targets are the t in [1, top) whose residue mod p is a primitive
    root: top is p for literal targets and 2^bit_len for reduced ones. The
    bitmap and the ball search both start here, so it alone refuses p = 2."""
    if ctx.p == 2:
        raise CapabilityError("p = 2 is excluded from covering-radius scans")
    return 1 << ctx.bit_len if targets == "reduced" else ctx.p


def _target_bitmap(ctx: PrimeContext, targets: str) -> int:
    """The targets' bitmap: the dilation and the BFS read it, nothing else."""
    top = _target_top(ctx, targets)
    bm = ctx.pr_bitmap()
    return bm | (bm << ctx.p) & ((1 << top) - 1) if targets == "reduced" else bm


@lru_cache(maxsize=1)
def _flip_shuffles(length: int) -> tuple[tuple[int, int], ...]:
    """(shift, mask-of-positions-with-bit-i-clear) pairs for bitmap dilation.

    The mask for s = 2^i starts as s ones, one period of s ones and s zeros,
    and ORs in itself shifted up by its period until it spans 2^length bits:
    int shifts whose sizes double, so linear in 2^length per mask.
    Only the last length's masks are kept, length * 2^length / 8 bytes: a
    scan's primes ascend, so no length is built twice."""
    out = []
    for i in range(length):
        mask = (1 << (1 << i)) - 1
        for j in range(i + 1, length):
            mask |= mask << (1 << j)
        out.append((1 << i, mask))
    return tuple(out)


def dilate(bitmap: int, length: int) -> int:
    """Union of a set in {0,1}^length with all single-bit-flip images."""
    out = bitmap
    for s, low in _flip_shuffles(length):
        out |= ((bitmap & low) << s) | ((bitmap >> s) & low)
    return out


def _covers(ball: int, points: int, length: int) -> bool:
    """Whether every point of `points` lies in `dilate(ball, length)`.

    Clears the points in the ball, then those each single-bit flip of the
    ball reaches, in `dilate`'s order, and answers True at the first flip
    that leaves none. Clearing by `points ^= points & flip` keeps each step
    the size of the points; no complement of a flip is built."""
    points ^= points & ball
    for s, low in _flip_shuffles(length):
        if not points:
            return True
        points ^= points & (((ball & low) << s) | ((ball >> s) & low))
    return not points


def _nearest_target(ctx: PrimeContext, targets: str, n: int) -> tuple[int, int] | None:
    """(s, t): the least s with a target t s flips from n and the first such
    t in `_flips` order, or None. Each candidate in [1, top) is tested by
    `is_primitive_root`, which reduces it mod p; no bitmap is read."""
    top = _target_top(ctx, targets)
    for s in range(ctx.bit_len + 1):
        for t in _flips(n, ctx.bit_len, s):
            if 0 < t < top and is_primitive_root(t, ctx):
                return s, t
    return None


# Maps each byte to 0 if it is zero and to 1 if not, for `bytes.translate`,
# so that a find of 1 in the result finds the next nonzero byte.
_NONZERO = b"\0" + b"\1" * 255


def _certify_distance(ctx: PrimeContext, targets: str, n: int, distance: int) -> None:
    """Raise InvariantViolation unless the ball search puts the point n at
    exactly distance flips from the targets; none found counts as farther."""
    s, t = _nearest_target(ctx, targets, n) or (distance + 1, None)
    if s != distance:
        found = f"the target {t} {s}" if s < distance else f"no target {distance}"
        raise InvariantViolation(
            f"p={ctx.p} targets={targets}: the dilation for delta puts n={n} at "
            f"distance {distance}, but is_primitive_root finds {found} flips away")


def _certify_core(ctx: PrimeContext, targets: str, core: int, uncovered: int) -> None:
    """`_certify_distance` at the core radius for up to nine points of the
    uncovered set: the lowest, the highest, and the lowest at or above
    k*p/8 for k = 1..7."""
    p = ctx.p
    points = {uncovered.bit_length() - 1}  # the point 1 is never a target, so never empty
    # One little-endian copy of the set, at most p/8 bytes, serves every
    # start; a shift of the int per start would copy up to p bits each time.
    octets = uncovered.to_bytes((uncovered.bit_length() + 7) // 8, "little")
    flags = octets.translate(_NONZERO)
    for start in (k * p // 8 for k in range(8)):
        i = start >> 3  # the byte of start, with its bits below start cleared
        byte = octets[i] >> (start & 7) << (start & 7) if i < len(octets) else 0
        if not byte:
            i = flags.find(1, i + 1)
            if i < 0:
                break  # no point lies above this start, nor above the next
            byte = octets[i]
        points.add(8 * i + (byte & -byte).bit_length() - 1)
    for n in sorted(points):
        _certify_distance(ctx, targets, n, core)


def _dilation(ctx: PrimeContext, targets: str) -> tuple[Radii, int]:
    """Radii by iterated bitmap dilation, and the uncovered core set.

    Grows the target set by Hamming-ball radius one per round until [1, p-1]
    and the points 0 and p are all covered. The first round is a full
    `dilate`. Every later round first tests the outstanding points, those of
    [0, p] still outside the ball, flip by flip (`_covers`): if the round
    covers them all, the loop records this radius for each and returns,
    carrying no ball on; if not, the round runs a full `dilate`. So `dilate`
    alone makes the balls that later rounds grow. The core witnesses are
    the points of [1, p-1] still uncovered going into the round that covers
    it, returned as a bitmap; `_certify_core` checks some of them, and
    `_certify_distance` the points 0 and p, against `pow`.
    """
    p, length = ctx.p, ctx.bit_len
    ball = previous = _target_bitmap(ctx, targets)
    core = (1 << p) - 2  # n in [1, p-1]; made after the bitmap, so not live while it is built
    radius = 0
    core_radius = dist_0 = dist_p = None
    while True:
        if core_radius is None and ball & core == core:
            core_radius, uncovered = radius, core ^ (previous & core)
        if dist_0 is None and ball & 1:
            dist_0 = radius
        if dist_p is None and ball >> p & 1:
            dist_p = radius
        if None not in (core_radius, dist_0, dist_p):
            _certify_core(ctx, targets, core_radius, uncovered)
            _certify_distance(ctx, targets, 0, dist_0)
            _certify_distance(ctx, targets, p, dist_p)
            return Radii(core_radius, dist_0, dist_p, uncovered.bit_count()), uncovered
        if radius == length:
            raise InvariantViolation(
                f"p={p} targets={targets}: the dilation for delta leaves the domain "
                f"uncovered after {radius} rounds")
        previous = ball
        if radius and _covers(ball, (2 << p) - 1, length):
            ball = (2 << p) - 1  # the domain [0, p], all of it covered; no ball goes further
        else:
            ball = dilate(ball, length)
        radius += 1


def dilation_radii(ctx: PrimeContext, targets: str) -> Radii:
    """The radii of one dilation of the targets, which every domain
    convention views; a scan row holds them."""
    return _dilation(ctx, targets)[0]


def view(radii: Radii, variant: RadiusVariant) -> tuple[int, int]:
    """(delta, witness count) over the variant's domain, [0, p-1] or [1, p]:
    its endpoint 0 or p adds the class 0 to the witnesses of [1, p-1]."""
    end = radii.dist_0 if variant.n_domain_zero else radii.dist_p
    delta = max(radii.core, end)
    return delta, (end == delta) + (radii.count if radii.core == delta else 0)


def covering_radius(ctx: PrimeContext, variant: RadiusVariant = CANONICAL
                    ) -> tuple[int, tuple[int, ...]]:
    """Covering radius and its witness classes (n mod p, ascending) over the
    variant's domain, by bitmap dilation. It and `witness_lists` make every
    witness list, both through `_listed`: a scan keeps only its count."""
    delta, _, wits = _listed(*_dilation(ctx, variant.targets), variant)
    return delta, tuple(wits)


def _listed(radii: Radii, uncovered: int, variant: RadiusVariant
            ) -> tuple[int, int, Iterator[int]]:
    """(delta, witness count, the witness classes as an iterator) of a
    variant's view of one dilation's radii and uncovered core set."""
    delta, count = view(radii, variant)
    core = uncovered if radii.core == delta else 0
    # The class 0 comes first where the endpoint reaches delta.
    return delta, count, chain(repeat(0, count - core.bit_count()), set_bits(core))


def covering_radius_bfs(ctx: PrimeContext, variant: RadiusVariant = CANONICAL
                        ) -> tuple[int, tuple[int, ...]]:
    """Covering radius by multi-source BFS over the bit_len-cube."""
    dist = [-1] * (1 << ctx.bit_len)
    frontier = list(set_bits(_target_bitmap(ctx, variant.targets)))
    for x in frontier:
        dist[x] = 0
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
    domain = range(0, ctx.p) if variant.n_domain_zero else range(1, ctx.p + 1)
    radius = max(dist[n] for n in domain)
    return radius, tuple(sorted(n % ctx.p for n in domain if dist[n] == radius))


def min_flips_to_primroot(n: int, ctx: PrimeContext, variant: RadiusVariant = CANONICAL
                          ) -> tuple[int, int]:
    """Least s with a valid target s flips from n, plus the first such target.

    The ball search that certifies the dilation (`_nearest_target`), which
    reads no bitmap: radius by radius, flipped-position subsets in
    lexicographic order (positions ascending), so the witness is fixed. A
    context that lacks a prime of p - 1 is refused, as the bitmap check does."""
    domain = range(0, ctx.p) if variant.n_domain_zero else range(1, ctx.p + 1)
    if n not in domain:
        raise ValueError(f"n must be in [{domain[0]}, {domain[-1]}] for {variant.name}")
    if (rest := unfactored_part(ctx)) != 1:
        raise InvariantViolation(f"p={ctx.p}: the context of is_primitive_root was built from "
                                 f"the factors {ctx.factors_pm1} of p-1, leaving {rest}")
    if (hit := _nearest_target(ctx, variant.targets, n)) is None:
        raise InvariantViolation(f"p={ctx.p} variant={variant.name}: the ball search for delta "
                                 f"reaches no target from n={n}")
    return hit


# --- minimal-weight statistics --------------------------------------------


@lru_cache(maxsize=None)
def _weight_class(bit_len: int, weight: int) -> tuple[int, ...]:
    """The bit_len-bit integers of the given weight, ascending (the flips of
    0, sorted): one tuple per bit length, which every prime of that length
    cuts at p."""
    return tuple(sorted(_flips(0, bit_len, weight)))


def sparsest(p: int, factors: Iterable[int], roots: bool
             ) -> tuple[tuple[int, int] | None, tuple[int, int] | None]:
    """(weight, witness) of the sparsest quadratic non-residue of [1, p-1]
    and, if `roots`, of the sparsest primitive root (else None), in one sweep.

    factors are the distinct primes q of p-1, in any order, as
    `factorize_pm1` yields them and `PrimeContext.factors_pm1` holds them.
    The candidates are tried once each, in increasing weight and ascending
    within a weight, with one Legendre symbol each, computed by quadratic
    reciprocity (`numtheory._jacobi`). Every primitive root is a non-residue,
    since a square has order dividing (p-1)/2, so a root is a non-residue
    that also passes v^((p-1)/q) != 1 for each odd q, and only non-residues
    get those tests. The first non-residue is w's witness, and the first
    that passes them all is W's. Class 1 is {2}: the powers of two lie in
    <2>, so 2^a is a non-residue (or a root) only if 2 is. For p = 2 there
    are no non-residues and 1 is the root.
    """
    if p == 2:
        return None, (1, 1) if roots else None
    odd_exponents = [(p - 1) // q for q in factors if q != 2]
    bit_len = p.bit_length()
    nonresidue = None
    for weight in range(1, bit_len + 1):
        for v in (2,) if weight == 1 else _weight_class(bit_len, weight):
            if v >= p:
                break
            if _jacobi(v, p) != -1:
                continue
            if nonresidue is None:
                nonresidue = weight, v
                if not roots:
                    return nonresidue, None
            for e in odd_exponents:
                if pow(v, e, p) == 1:
                    break
            else:
                return nonresidue, (weight, v)
    raise InvariantViolation(f"p={p}: the candidate sweep for {'W' if nonresidue else 'w'} finds "
                             f"no {'primitive root' if nonresidue else 'non-residue'}")


def min_nonresidue_weight(ctx: PrimeContext) -> tuple[int, int]:
    """(weight, witness): sparsest quadratic non-residue in [1, p-1]."""
    if ctx.p == 2:
        raise CapabilityError("non-residues are undefined mod 2")
    return sparsest(ctx.p, ctx.factors_pm1, roots=False)[0]


def min_primroot_weight(ctx: PrimeContext) -> tuple[int, int]:
    """(weight, witness): sparsest primitive root in [1, p-1]; (1, 1) for p = 2."""
    return sparsest(ctx.p, ctx.factors_pm1, roots=True)[1]
