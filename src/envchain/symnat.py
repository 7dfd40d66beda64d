"""Symbolic model of a block-permutation subgroup of Sym(N).

Points pair into blocks {2x, 2x+1}.  Every element handled here is a product

    B(b) * P(sigma) * f^m          (right factor acts first)

where B(b) swaps within block x exactly when the bit function b(x) is 1,
P(sigma) rigidly permutes finitely many blocks, and f is the rigid block
permutation along the index map `f_map` (even indices step forward, odd ones
step backward, 1 wraps to 0), whose powers shift along the single bi-infinite
orbit ..., 5, 3, 1, 0, 2, 4, ...

Bit functions are eventually periodic and always kept in canonical form
(minimal prefix, then minimal period), so equality of elements is decidable
and exact.  The ascending chain of finite bit-function groups computed by
`iterated_centralizer_model` consists of the centralizer-chain levels of the
subgroup generated by the finite block swaps together with f.  Level i+1 is
the set of 2^(i+1)-periodic g with delta(g) in level i.  delta is linear with
kernel the constant functions, so level i+1 is spanned by the constant 1 and
one preimage of each basis vector of level i, and a two-term recurrence over
one period block gives each preimage directly.

Because forms are canonical, the product skips work on identity factors by
identity laws alone and returns an object equal to what the general path
builds: XOR with the zero function gives the other operand; `_pull_bits`
gives b back when b is zero, or when it pulls through the identity with
f^0; and `BlockPerm.inverse`, `*` and `conj_by_fpow` return the operand
when a factor is the identity or the power is 0.  The descent witnesses
are block swaps and pure-bits elements, so most factors of their
commutators are identities.

`counterexample_checks` builds the model and makes the `counterexample`
report's checks and witnesses, each pass/fail record through the package's
`envchain._verdict`, which builds a witness text only on failure.  Its periodicity, support and
XOR-closure checks read the basis masks and build a BitFn only for a
failure's witness text, and it compares each descent witness's commutator
with the paired block swap, the one place that comparison is made.  Every
witness gets that full symbolic `sym_commutator` check; a verified
commutator's text is then written straight from its bits as the swaps
(2x 2x+1) (`swaps_text`), so the model makes no finite permutation;
`bits_to_permutation` makes one, as its image tuple, only when called.
`swaps_text` and `BlockPerm.cycles_text` hand their moved points to the
package's one writer of cycle notation, `envchain.format_moves`, so the
model loads no `perm`.  Past `MODEL_BUDGET` the model raises
`ModelBudgetError`, an `envchain.LimitError`.
"""

from __future__ import annotations

import math
from operator import xor
from typing import Callable, Iterable, NamedTuple

from . import SKIPPED, CheckRecord, LimitError, _Memo, _verdict, format_moves

# --- the block index map ----------------------------------------------------


def f_map(x: int) -> int:
    """Even x -> x+2; odd x -> x-2, except 1 -> 0."""
    if x % 2 == 0:
        return x + 2
    return 0 if x == 1 else x - 2


def f_pow(x: int, m: int) -> int:
    """m-fold iterate of f_map (negative m iterates the inverse).

    The orbit ..., 5, 3, 1, 0, 2, 4, ... is a line: even x sits at place
    x/2 and odd x at -(x+1)/2, and f_map moves every point one place on."""
    p = (x // 2 if x % 2 == 0 else -(x + 1) // 2) + m
    return 2 * p if p >= 0 else -2 * p - 1


# --- eventually periodic bit functions ---------------------------------------


class BitFn:
    """An eventually periodic function N -> {0, 1} in canonical form.

    Stored as a finite prefix plus one repeating block; the constructor
    minimizes the period and then the prefix, so two instances are equal
    exactly when they agree pointwise.
    """

    __slots__ = ("prefix", "block")

    def __init__(self, prefix: Iterable[int] = (), block: Iterable[int] = (0,)):
        pre = tuple(map(int, prefix))
        blk = tuple(map(int, block))
        if not blk:
            raise ValueError("period block must be nonempty")
        if not {*pre, *blk} <= {0, 1}:
            raise ValueError("bits must be 0 or 1")
        p = len(blk)
        for d in range(1, p + 1):
            if p % d == 0 and blk[:d] * (p // d) == blk:
                blk = blk[:d]
                break
        while pre and pre[-1] == blk[-1]:
            blk = blk[-1:] + blk[:-1]
            pre = pre[:-1]
        object.__setattr__(self, "prefix", pre)
        object.__setattr__(self, "block", blk)

    def __setattr__(self, name, value):
        raise AttributeError("BitFn is immutable")

    @property
    def period(self) -> int:
        return len(self.block)

    @property
    def is_zero(self) -> bool:
        return not self.prefix and self.block == (0,)

    def __call__(self, x: int) -> int:
        if x < len(self.prefix):
            return self.prefix[x]
        return self.block[(x - len(self.prefix)) % len(self.block)]

    def values(self, n: int) -> tuple[int, ...]:
        """The values at x = 0..n-1."""
        reps = -((len(self.prefix) - n) // len(self.block))
        return (self.prefix + self.block * max(reps, 0))[:n]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitFn)
            and self.prefix == other.prefix
            and self.block == other.block
        )

    def __hash__(self) -> int:
        return hash((self.prefix, self.block))

    def sort_key(self) -> tuple:
        return (len(self.prefix), self.prefix, len(self.block), self.block)

    def __lt__(self, other: "BitFn") -> bool:
        return self.sort_key() < other.sort_key()

    def __xor__(self, other: "BitFn") -> "BitFn":
        if other.is_zero:
            return self
        if self.is_zero:
            return other
        pre = max(len(self.prefix), len(other.prefix))
        n = pre + math.lcm(self.period, other.period)
        a, b = self.values(n), other.values(n)
        return BitFn(map(xor, a[:pre], b[:pre]), map(xor, a[pre:], b[pre:]))

    def to_text(self) -> str:
        return "".join(map(str, self.prefix)) + "|" + "".join(map(str, self.block))

    def __repr__(self) -> str:
        return f"BitFn({self.to_text()!r})"

    @classmethod
    def zero(cls) -> "BitFn":
        return cls((), (0,))

    @classmethod
    def ones(cls) -> "BitFn":
        return cls((), (1,))

    @classmethod
    def from_pattern(cls, bits: Iterable[int]) -> "BitFn":
        """Purely periodic function repeating `bits`."""
        return cls((), tuple(bits))

    @classmethod
    def from_fn(cls, fn: Callable[[int], int], prefix_len: int, period: int) -> "BitFn":
        """Sample an eventually periodic function exactly.

        The caller asserts `fn` is periodic with period `period` from
        `prefix_len` on.  The claim is re-verified on a window past the
        sampled one and a violation aborts loudly: a non-eventually-periodic
        value can only come from an internal bug.  Each point of the prefix
        and of two periods is sampled once.
        """
        head = prefix_len + period
        vals = list(map(fn, range(head + period)))
        out = cls(vals[:prefix_len], vals[prefix_len:head])
        if vals[head:] != vals[prefix_len:head]:
            x = next(x for x in range(head, head + period) if vals[x] != vals[x - period])
            raise RuntimeError(
                f"function is not ({prefix_len}, {period}) eventually periodic at x={x}"
            )
        return out


def delta(j: BitFn) -> BitFn:
    """x -> j(x) XOR j(f_map(x)); the bit-level form of commutation with f."""
    pre = len(j.prefix) + 2
    per = math.lcm(j.period, 2)
    return BitFn.from_fn(lambda x: j(x) ^ j(f_map(x)), pre, per)


# --- finite-support block permutations ----------------------------------------


class BlockPerm:
    """A permutation of the block indices N moving only finitely many."""

    __slots__ = ("_map",)

    def __init__(self, mapping: dict[int, int] | None = None):
        m = {int(x): int(y) for x, y in (mapping or {}).items() if x != y}
        if any(x < 0 or y < 0 for x, y in m.items()):
            raise ValueError("block indices must be naturals")
        if set(m) != set(m.values()):
            raise ValueError(f"mapping {m!r} is not a bijection of its support")
        object.__setattr__(self, "_map", m)

    def __setattr__(self, name, value):
        raise AttributeError("BlockPerm is immutable")

    @classmethod
    def identity(cls) -> "BlockPerm":
        return cls()

    @classmethod
    def swap(cls, a: int, b: int) -> "BlockPerm":
        return cls({a: b, b: a})

    def __call__(self, x: int) -> int:
        return self._map.get(x, x)

    @property
    def support(self) -> frozenset[int]:
        return frozenset(self._map)

    @property
    def is_identity(self) -> bool:
        return not self._map

    def inverse(self) -> "BlockPerm":
        if not self._map:
            return self
        return BlockPerm({y: x for x, y in self._map.items()})

    def __mul__(self, other: "BlockPerm") -> "BlockPerm":
        """self after other:  (self * other)(x) == self(other(x))."""
        if not other._map:
            return self
        if not self._map:
            return other
        keys = set(self._map) | set(other._map)
        return BlockPerm({x: self(other(x)) for x in keys})

    def conj_by_fpow(self, m: int) -> "BlockPerm":
        """The map x -> f^m(self(f^-m(x))), i.e. this permutation shifted along f."""
        if m == 0 or not self._map:
            return self
        return BlockPerm({f_pow(x, m): f_pow(y, m) for x, y in self._map.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, BlockPerm) and self._map == other._map

    def __hash__(self) -> int:
        return hash(frozenset(self._map.items()))

    def cycles_text(self) -> str:
        return format_moves(self._map)

    def __repr__(self) -> str:
        return f"BlockPerm({self.cycles_text()!r})"


# --- model elements in normal form --------------------------------------------


class SymElem(NamedTuple):
    """B(bits) * P(sigma) * f^power, in unique normal form."""

    bits: BitFn
    sigma: BlockPerm
    power: int

    @classmethod
    def identity(cls) -> "SymElem":
        return cls(BitFn.zero(), BlockPerm.identity(), 0)

    @classmethod
    def from_bits(cls, b: BitFn) -> "SymElem":
        return cls(b, BlockPerm.identity(), 0)

    @classmethod
    def from_blocks(cls, sigma: BlockPerm) -> "SymElem":
        return cls(BitFn.zero(), sigma, 0)

    @classmethod
    def f_power(cls, m: int) -> "SymElem":
        return cls(BitFn.zero(), BlockPerm.identity(), m)

    @property
    def is_identity(self) -> bool:
        return self.bits.is_zero and self.sigma.is_identity and self.power == 0

    def __mul__(self, other: "SymElem") -> "SymElem":
        return sym_mul(self, other)

    def to_text(self) -> str:
        return f"B({self.bits.to_text()}) P({self.sigma.cycles_text()}) F^{self.power}"

    def __repr__(self) -> str:
        return f"SymElem({self.to_text()!r})"


def _pull_bits(b: BitFn, first: BlockPerm, m: int) -> BitFn:
    """The bit function x -> b(f_pow(first(x), m)).

    This is how a B-factor looks after being pulled through P(first^-1) f^-m;
    it stays eventually periodic because `first` moves finitely many blocks
    and the f-orbit is eventually two arithmetic progressions.
    """
    if b.is_zero or (m == 0 and first.is_identity):
        return b
    shift = 2 * abs(m)
    prefix_len = max(
        len(b.prefix) + shift,
        shift + 2,
        max(first.support, default=-1) + 1,
        1,
    )
    period = math.lcm(b.period, 2)
    if m == 0:  # f^0 is the identity
        return BitFn.from_fn(lambda x: b(first(x)), prefix_len, period)
    return BitFn.from_fn(lambda x: b(f_pow(first(x), m)), prefix_len, period)


def sym_mul(a: SymElem, b: SymElem) -> SymElem:
    """Product in normal form; the right factor acts first."""
    pulled = _pull_bits(b.bits, a.sigma.inverse(), -a.power)
    return SymElem(
        a.bits ^ pulled,
        a.sigma * b.sigma.conj_by_fpow(a.power),
        a.power + b.power,
    )


def sym_inv(a: SymElem) -> SymElem:
    """Inverse in normal form."""
    return sym_mul(
        sym_mul(SymElem.f_power(-a.power), SymElem.from_blocks(a.sigma.inverse())),
        SymElem.from_bits(a.bits),
    )


def sym_commutator(a: SymElem, b: SymElem) -> SymElem:
    """[a, b] = a^-1 b^-1 a b."""
    return sym_mul(sym_mul(sym_mul(sym_inv(a), sym_inv(b)), a), b)


def sym_apply(a: SymElem, x: int) -> int:
    """Left action of a on the point x."""
    x = 2 * f_pow(x // 2, a.power) + (x & 1)
    x = 2 * a.sigma(x // 2) + (x & 1)
    return x ^ a.bits(x // 2)


def bits_to_permutation(b: BitFn, degree: int | None = None) -> tuple[int, ...]:
    """The image tuple of the finite permutation B(b) of a finite-support
    bit function."""
    if b.block != (0,):
        raise ValueError("bit function does not have finite support")
    if degree is None:
        degree = max(2 * len(b.prefix), 2)
    if degree < 2 * len(b.prefix):
        raise ValueError(f"degree {degree} too small for support")
    images = list(range(degree))
    for x, bit in enumerate(b.prefix):
        if bit:
            images[2 * x], images[2 * x + 1] = images[2 * x + 1], images[2 * x]
    return tuple(images)


def swaps_text(b: BitFn) -> str:
    """`format_cycles(bits_to_permutation(b))` read off the bits: B(b) is
    the swap (2x 2x+1) for each x with b(x) = 1."""
    if b.block != (0,):
        raise ValueError("bit function does not have finite support")
    return format_moves({y: y ^ 1 for x, bit in enumerate(b.prefix) if bit for y in (2 * x, 2 * x + 1)})


# --- the centralizer-chain model ----------------------------------------------

# Most bits the model's levels may span (level i spans 2^i members of 2^i
# bits); `iterated_centralizer_model` raises `ModelBudgetError` past it.
MODEL_BUDGET = 1 << 26

# Deepest level the enumeration oracle tries: level i enumerates all
# 2^(2^i) patterns of one block, 65,536 at level 4.
ORACLE_MAX_LEVEL = 4


class ModelBudgetError(LimitError):
    """The chain model grew past its memory budget, `MODEL_BUDGET`; a
    resource limit like every `envchain.LimitError`.

    The budget counts the bits of the members a level spans: level i has 2^i
    members of 2^i bits each.  `partial` holds the model up to the last level
    that fit."""

    def __init__(self, level_reached: int, cells: int, budget: int, partial: "IterChainModel"):
        super().__init__(
            f"budget exceeded after level {level_reached}"
            f" ({cells} > {budget} stored bits)"
        )
        self.level_reached = level_reached
        self.partial = partial


class DescentScanError(RuntimeError):
    """No strict-descent witness found in the scanned range.

    `exhausted` is True when the scan genuinely reached scan_max, False when
    the model was too shallow to keep scanning (not evidence either way)."""

    def __init__(self, message: str, exhausted: bool):
        super().__init__(message)
        self.exhausted = exhausted


def _from_mask(mask: int, period: int) -> BitFn:
    """The purely periodic BitFn repeating the bits of `mask` from x = 0,
    padded with zeros to `period` places; a mask wider than `period` repeats
    all its bits."""
    return BitFn.from_pattern(map(int, reversed(format(mask, f"0{period}b"))))


def _period(mask: int, width: int) -> int:
    """Least period of `_from_mask(mask, width)`; `width` is a power of two,
    so every period divides it and halving finds the least."""
    while width > 1 and not (mask ^ mask >> (width >> 1)) & ((1 << (width >> 1)) - 1):
        width >>= 1
    return width


def _scan_key(mask: int, width: int) -> tuple[int, str]:
    """`_from_mask(mask, width).sort_key()` order: period, then block from x = 0."""
    p = _period(mask, width)
    return p, format(mask & ((1 << p) - 1), f"0{p}b")[::-1]


def _rank(vectors: list[int]) -> int:
    """GF(2) rank by elimination; the vectors kept have distinct leading bits."""
    reduced: list[int] = []
    for v in vectors:
        for r in reduced:
            v = min(v, v ^ r)
        if v:
            reduced.append(v)
    return len(reduced)


class IterChainModel:
    """Ascending chain of finite bit-function groups C^1 < C^2 < ...

    Level i is kept only as a GF(2) basis of int masks over one 2^i block
    (bit x is the value at x); level 0 is the trivial group.  `span(i)` lists
    C^i as masks, the form `brute_force_level(i)` gives too; a member is a
    BitFn only where a witness is written (`_from_mask`).  Every member of
    level i is purely periodic with period dividing 2^i, and each level is a
    group under pointwise XOR.
    """

    def __init__(self, bases: list[list[int]]):
        self._bases = bases

    @property
    def depth(self) -> int:
        return len(self._bases) - 1

    def basis(self, i: int) -> list[int]:
        if not 0 <= i <= self.depth:
            raise IndexError(f"level {i} not computed (depth {self.depth})")
        return self._bases[i]

    def span(self, i: int) -> list[int]:
        span = [0]
        for b in self.basis(i):
            span += [s ^ b for s in span]
        return span

    def sizes(self) -> list[int]:
        return [1 << len(b) for b in self._bases[1:]]


def _delta_mask(g: int, period: int) -> int:
    """`delta(_from_mask(g, period))` at x = 0..period+1, as a mask.

    `period` is even.  From x = 2 on delta repeats with `period`, so these
    places fix it: even x reads g(x+2) and odd x reads g(x-2), both mod
    `period`, except at x = 1, where f_map(1) = 0 reads g(0) instead of
    g(period-1).  x = period+1 is the block's value at odd place 1.
    """
    P = period
    full = (1 << P) - 1
    even = full // 3  # bits 0, 2, 4, ...
    ahead = g >> 2 | g << (P - 2) & full  # x -> g(x+2 mod P)
    behind = (g << 2 | g >> (P - 2)) & full  # x -> g(x-2 mod P)
    d = (g ^ ahead) & even | (g ^ behind) & even << 1
    return d & ~2 | ((g ^ g >> 1) & 1) << 1 | (d & 3) << P


def _preimage(h: int, period: int) -> int:
    """The `period`-periodic g with delta(g) = h and g(0) = 0, as a mask.

    `h` is the mask of a function whose period divides `period`.  On even
    places delta(g) = h reads g(2a+2) = g(2a) ^ h(2a), on odd places
    g(2a+3) = g(2a+1) ^ h(2a+3), and x = 1 couples the two: g(0) = g(1) ^ h(1).
    Seeding g(0) = 0 runs the two-term recurrence once around the block;
    it closes up when h has even weight on each parity class, as every member
    of a level below `period` does.

    Solved, g(2a) is the XOR of h(0), h(2), ..., h(2a-2) and g(2a+1) that of
    h(1), h(3), ..., h(2a+1): prefix XORs along each parity class, which the
    shifts by 2, 4, 8, ... below form for both classes at once.
    """
    P = period
    full = (1 << P) - 1
    even = full // 3  # bits 0, 2, 4, ...
    y = h & full
    shift = 2
    while shift < P:
        y ^= y << shift
        shift <<= 1
    g = ((y & even) << 2 | y & ~even) & full
    # the recurrence closes up: g(P-2) ^ h(P-2) is g(0), g(P-1) ^ h(1) is g(1)
    if ((g ^ h) >> (P - 2)) & 1 != g & 1 or ((g >> (P - 1)) ^ (h >> 1)) & 1 != (g >> 1) & 1:
        raise RuntimeError("seeded recursion is not periodic: internal bug")
    # delta(g) = h pointwise: the block of h, then h(1) again at x = P + 1
    if _delta_mask(g, P) != h | (h & 3) << P:
        raise RuntimeError("seeded recursion does not solve its system: internal bug")
    return g


def iterated_centralizer_model(imax: int) -> IterChainModel:
    """Compute levels C^1..C^imax of the chain model, as bases.

    The basis of level i+1 is the constant 1 and the `_preimage` of each basis
    vector of level i, widened to one 2^(i+1) block.  Each new basis is
    checked to be independent and to span the widened basis of level i.
    Raises `ModelBudgetError` naming the last completed level if the bits of
    the members would exceed `MODEL_BUDGET`, read on each call.
    """
    if imax < 1:
        raise ValueError("imax must be >= 1")
    bases: list[list[int]] = [[]]
    cells = 1
    for i in range(imax):
        P = 2 ** (i + 1)
        widened = [b | b << (P // 2) for b in bases[-1]]
        basis = [(1 << P) - 1] + [_preimage(w, P) for w in widened]
        cells += (1 << len(basis)) * P
        if cells > MODEL_BUDGET:
            raise ModelBudgetError(i, cells, MODEL_BUDGET, IterChainModel(bases))
        if _rank(basis) < len(basis):
            raise RuntimeError(f"level {i + 1} basis is not independent: internal bug")
        if _rank(basis + widened) > len(basis):
            raise RuntimeError(f"level {i + 1} does not contain level {i}: internal bug")
        bases.append(basis)
    return IterChainModel(bases)


def brute_force_level(i: int) -> frozenset[int]:
    """Independent oracle: enumerate all period-2^i patterns and keep those
    whose delta lies in the enumerated previous level.

    Reads neither `_preimage` nor `_delta_mask`.  The hits are int masks over
    one 2^i block (bit x is the value at x), as `IterChainModel.span` lists
    level i."""
    if i < 1:
        raise ValueError("i must be >= 1")
    if i > ORACLE_MAX_LEVEL:
        raise ValueError(f"enumeration of 2^{2 ** i} candidates is infeasible (i={i} > {ORACLE_MAX_LEVEL})")
    return _LEVELS[i]


def _enumerated_level(i: int) -> frozenset[int]:
    """Level i of `brute_force_level`, enumerated over one P = 2^i block.

    Every candidate's delta is sampled point by point from `f_map` on
    x = 0..P+1.  That window decides membership: a P-periodic g's delta
    repeats with period P from x = 2 on, and level i-1's members are purely
    periodic with period dividing P/2, so two such functions are equal
    exactly when they agree on x = 0..P+1.  Read through `_LEVELS`, so each
    level is enumerated once per process and serves every deeper one.
    """
    if i == 0:
        return frozenset({0})
    P = 2 ** i
    targets = set()
    for m in _LEVELS[i - 1]:
        w = m | m << (P // 2)
        targets.add(w | (w & 3) << P)
    # x -> (x mod P, f_map(x) mod P): the places of g that delta(g)(x) reads
    places = [(x % P, f_map(x) % P) for x in range(P + 2)]
    hits = []
    for g in range(1 << P):
        d = 0
        for x, (a, b) in enumerate(places):
            d |= ((g >> a ^ g >> b) & 1) << x
        if d in targets:
            hits.append(g)
    return frozenset(hits)


_LEVELS = _Memo(_enumerated_level)


class DescentWitness(NamedTuple):
    """Evidence that the envelope chain drops strictly again after step k+1.

    `g` is a block swap lying in every normalizer-relevant set at step k+1
    (it commutes with all of level k+1) whose commutator with B(h), for an h
    in level kprime+1, should be the swap of blocks x0 and x0 + 2^l: a
    nonidentity finite-support permutation and hence outside every chain
    level.  `commutator` is [g, B(h)] as computed; `counterexample_checks`
    compares it with that swap."""

    kprime: int
    l: int
    x0: int
    g: SymElem
    h: BitFn
    commutator: SymElem


def descent_witness(k: int, scan_max: int, model: IterChainModel) -> DescentWitness:
    """Scan k' = k+1..scan_max for the first strict-descent witness after k.

    l is minimal with every member of level k+1 being 2^l-periodic; the
    witness is the block swap g of blocks x0 and x0 + 2^l for the first
    (k', h, x0) in lexicographic scan order (h in level k'+1 by sort_key) with
    h(x0) != h(x0 + 2^l).  That g centralizes level k+1 is verified on the
    symbolic algebra before returning; the commutator [g, B(h)] is returned
    as computed, for the caller to compare.
    """
    if k < 0 or k + 1 > model.depth:
        raise ValueError(f"need 0 <= k <= depth-1 = {model.depth - 1}")
    if k + 1 > scan_max:
        raise DescentScanError(
            f"no k' to scan for k={k}: the range {k + 1}..{scan_max} is empty",
            exhausted=False,
        )
    # periods are powers of two and an XOR's divides their lcm: a basis has the largest
    basis = model.basis(k + 1)
    step = max(_period(b, 2 ** (k + 1)) for b in basis)
    low = (1 << step) - 1
    limit = min(scan_max, model.depth - 1)
    for kp in range(k + 1, limit + 1):
        # bit x0 of m ^ m >> step is h(x0) ^ h(x0 + step); x0 + step < 2^(kp+1)
        hits = [m for m in model.span(kp + 1) if (m ^ m >> step) & low]
        if not hits:
            continue
        m = min(hits, key=lambda m: _scan_key(m, 2 ** (kp + 1)))
        diff = (m ^ m >> step) & low
        x0 = (diff & -diff).bit_length() - 1
        g = SymElem.from_blocks(BlockPerm.swap(x0, x0 + step))
        # B(a) B(b) = B(a ^ b): commuting with a basis of level k+1 is commuting with its span
        if not all(sym_commutator(g, SymElem.from_bits(_from_mask(b, 2 ** (k + 1)))).is_identity
                   for b in basis):
            raise RuntimeError(f"witness swap fails to centralize level {k + 1}: internal bug")
        h = _from_mask(m, 2 ** (kp + 1))
        return DescentWitness(
            kprime=kp,
            l=step.bit_length() - 1,
            x0=x0,
            g=g,
            h=h,
            commutator=sym_commutator(g, SymElem.from_bits(h)),
        )
    if limit < scan_max:
        raise DescentScanError(
            f"no witness for k={k} with k' <= {limit}; model depth {model.depth} "
            f"is too shallow to scan to {scan_max}",
            exhausted=False,
        )
    raise DescentScanError(
        f"no witness for k={k} with k' in {k + 1}..{scan_max}", exhausted=True
    )


# --- the `counterexample` report ----------------------------------------------


def counterexample_checks(levels: int, scan_max: int, oracle_depth: int) -> tuple[list[CheckRecord], list[dict], bool]:
    """The chain model to depth `levels` and the `counterexample` report's
    checks on it: (records, witnesses, partial).

    Each record is a `CheckRecord`, and each pass/fail record comes from
    `envchain._verdict`; the witnesses are the report's dicts, the level
    sizes first.  When the
    model grows past its budget, `partial` is True, the model holds the
    levels that fit and the first record is the failed budget check.
    `iterated_centralizer_model` and `descent_witness` are looked up on
    each call, so a test may replace them.
    """
    checks: list[CheckRecord] = []
    partial = False
    try:
        model = iterated_centralizer_model(levels)
    except ModelBudgetError as exc:
        model, partial = exc.partial, True
        checks.append(_verdict("model-budget", "chain model fits the memory budget", False, exc.__str__))
    if model.depth >= 1:
        checks.append(_verdict(
            "model-level1", "level 1 is exactly the constant functions", sorted(model.span(1)) == [0, 0b11],
            lambda: "level 1 = {" + ", ".join(sorted(
                b.to_text() for b in {_from_mask(m, 2) for m in model.span(1)})) + "}"))
    sizes = model.sizes()
    checks.append(_verdict("model-sizes-strict", "level sizes strictly increase",
                           all(a < b for a, b in zip(sizes, sizes[1:])), lambda: f"sizes={sizes}"))
    for i in range(1, model.depth + 1):
        # The checks run on the basis masks and carry to the span.  A mask
        # within one 2^i block is a function purely periodic with period
        # dividing 2^i, and so is an XOR of such; a nonzero one with a 1 in
        # its block has a 1 in every 2^i-window.  A span has 2^b distinct
        # members, 0 among them, exactly when its b vectors are independent.
        window = 2 ** i
        basis = model.basis(i)
        for name, claim, bad in (
            ("periodicity", "members are purely periodic with period dividing 2^i",
             [m for m in basis if m >> window]),
            ("support", "nontrivial members hit every period window (infinite support)",
             [m for m in basis if m and not m & ((1 << window) - 1)]),
        ):
            checks.append(_verdict(f"model-{name}-i{i}", claim, not bad,
                                   lambda: f"e.g. {min(_from_mask(m, window) for m in bad).to_text()}"))
        checks.append(_verdict(f"model-xor-closed-i{i}", "level is a group under pointwise XOR",
                               _rank(basis) == len(basis)))
    for i in range(1, min(oracle_depth, model.depth, ORACLE_MAX_LEVEL) + 1):
        checks.append(_verdict(f"model-oracle-i{i}", "solver level equals brute-force enumeration",
                               brute_force_level(i) == frozenset(model.span(i))))
    witnesses: list[dict] = [{"type": "levels", "sizes": sizes}]
    for k in range(0, max(model.depth - 1, 0)):
        try:
            w = descent_witness(k, scan_max, model)
        except DescentScanError as exc:
            # A shallow model leaves the scan undecided; only a scan that
            # genuinely reached scan_max counts as a failure.
            check_id, claim = f"witness-k{k}", "a strict-descent witness exists in the scanned range"
            checks.append(_verdict(check_id, claim, False, exc.__str__) if exc.exhausted
                          else CheckRecord(check_id, claim, SKIPPED, str(exc)))
            continue
        # the one comparison of the commutator: B(swap) P(identity) f^0
        far = w.x0 + 2 ** w.l
        ok = w.commutator == SymElem.from_bits(BitFn([int(t in (w.x0, far)) for t in range(far + 1)]))
        text = swaps_text(w.commutator.bits) if ok else w.commutator.to_text()
        checks.append(_verdict(f"witness-k{k}", "descent witness verified; commutator is the paired block swap",
                               ok, lambda: f"commutator={text}"))
        witnesses.append({
            "type": "descent",
            "k": k,
            "kprime": w.kprime,
            "l": w.l,
            "x0": w.x0,
            "g": w.g.to_text(),
            "h": w.h.to_text(),
            "commutator": text,
        })
    return checks, witnesses, partial
