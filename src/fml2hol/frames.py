"""Rooted Kripke frames: the frame conditions and the frames a search walks.

A frame over n worlds is a sequence of successor masks, one per world:
bit j of successors[i] says that worlds[i] sees worlds[j].  The frame
conditions have one definition here, _frame_faults, which both filters
the search's frames and lists the violations of a model (through
kripke.frame_violations).

_rooted gives the search its frames at n worlds: those rooted at the
first world (every world reachable from it) that meet a logic's frame
conditions, in the order of their masks over all pairs of worlds (bits
n*i .. n*i+n-1 of a mask are the successors of worlds[i]), and of those
only the least mask of each class under renamings of the other worlds:
the first world stays fixed, as the root and as the witness.  This is
isomorph rejection (McKay, "Isomorph-free exhaustive generation",
J. Algorithms 1998; the least-number heuristic of SEM, Zhang & Zhang,
IJCAI 1995), and it changes no search result:

- a renaming that fixes the first world maps a rooted frame meeting the
  conditions to another one, and each candidate on it to a candidate
  with the same domain conditions and the same truth values at the
  first world, so the frames on which a size has a hit are closed under
  these renamings;
- so the first frame in mask order with a hit is the least of its class:
  a renaming with a smaller mask would have a hit too;
- so the search meets the same first hit frame, and on it the same
  candidate, whether or not the other members of each class are walked.
  The verdict, the smallest size and the printed countermodel stay the
  same; a timeout can only come later.

_lanes gives the search, on top of a frame, its candidates for the
individuals: their behaviours (existence and unary predicate masks)
packed into lanes of labelling chunks (see its docstring).  The chunks
depend on the frame only through the existence vectors it admits, so the
frames and the packed behaviours are the two layers of search structure
kept here, both per process:

- frames depend on the world count and the logic only, so each list is
  built once per process and kept as a tuple of tuples, which no caller
  can change;
- packed behaviours depend on the worlds, the individuals, the unary
  predicate names and the mask of the existence vectors an individual may
  not take, and are kept per such key, each chunk packed by the first
  walk that reaches it.  They are bounded: an entry is charged up front
  with its full walk and its pool, in lanes and behaviours; one heavier
  than _BOUND is walked and never kept, and otherwise whole entries are
  evicted oldest first until the total fits.

Either enters its cache only once its listing completes: a deadline that
fires mid-listing (tick raises) leaves nothing behind.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

from . import embedding
from .embedding import FrameProperty, frame_properties


@functools.lru_cache(maxsize=256)  # asked per mask, and per frame by the cumulative clause
def _name_order(worlds: tuple[str, ...]) -> tuple[int, ...]:
    """World indices in world-name order, the order pairs are reported in."""
    return tuple(sorted(range(len(worlds)), key=worlds.__getitem__))


def _pairs(worlds, successors) -> list[tuple[int, int]]:
    """The relation's pairs of world indices, in world-name order."""
    order = _name_order(worlds)
    return [(u, v) for u in order for v in order if successors[u] >> v & 1]


def _frame_faults(worlds, successors, logic: embedding.Logic):
    """Lazily yield frame_violations' messages from each world's successor mask."""
    for prop in frame_properties(logic):
        if prop is FrameProperty.SERIAL:
            for i, w in enumerate(worlds):
                if not successors[i]:
                    yield f"not serial: {w} has no successor"
        elif prop is FrameProperty.REFLEXIVE:
            for i, w in enumerate(worlds):
                if not successors[i] >> i & 1:
                    yield f"not reflexive: missing {w}>{w}"
        elif prop is FrameProperty.TRANSITIVE:
            pairs = _pairs(worlds, successors)
            for u, v in pairs:
                for v2, w in pairs:
                    if v2 == v and not successors[u] >> w & 1:
                        u_, v_, w_ = worlds[u], worlds[v], worlds[w]
                        yield f"not transitive: {u_}>{v_} and {v_}>{w_} but not {u_}>{w_}"
        elif prop is FrameProperty.SYMMETRIC:
            for u, v in _pairs(worlds, successors):
                if not successors[v] >> u & 1:
                    yield f"not symmetric: {worlds[u]}>{worlds[v]} but not {worlds[v]}>{worlds[u]}"


_CACHE: dict[tuple[int, embedding.Logic], tuple[tuple[int, ...], ...]] = {}


def _rooted(n: int, logic: embedding.Logic, tick) -> tuple[tuple[int, ...], ...]:
    """The frames over n worlds rooted at the first that meet the logic's
    frame conditions, least of each class under renamings of the other
    worlds, in mask order, as successor tuples (see the module docstring).
    tick is called once per mask and may raise to stop the walk; the list
    is cached per (n, logic) once a walk completes."""
    key = (n, logic)
    if key not in _CACHE:
        _CACHE[key] = tuple(_least_frames(n, logic, tick))
    return _CACHE[key]


def _least_frames(n: int, logic: embedding.Logic, tick):
    worlds = tuple(f"w{i}" for i in range(1, n + 1))
    full = (1 << n) - 1
    # the renamings of worlds[1:], worlds[0] fixed; the first is the identity
    renamings = [(0, *p) for p in itertools.permutations(range(1, n))][1:]
    # masks of frames already met through a smaller member of their class
    copies = set()
    for mask in range(2 ** (n * n)):
        # most masks are filtered out, so the budget is checked per mask
        tick()
        if mask in copies:
            copies.remove(mask)
            continue
        successors = tuple(mask >> n * i & full for i in range(n))
        # the worlds reachable from worlds[0]: passes until nothing is added
        seen, last = 1, 0
        while seen != last:
            last = seen
            for i, succ in enumerate(successors):
                if seen >> i & 1:
                    seen |= succ
        if seen == full and not any(_frame_faults(worlds, successors, logic)):
            yield successors
            # a renaming keeps rooting and the frame conditions, so every
            # copy passes too; copies with smaller masks were met already
            for to in renamings:
                copy = 0
                for i, succ in enumerate(successors):
                    row = sum(1 << to[j] for j in range(n) if succ >> j & 1)
                    copy |= row << n * to[i]
                if copy > mask:
                    copies.add(copy)


_WIDTH = 512  # lanes per labelling pass

# the store's bound, in lanes plus behaviours.  The benchmark's two search
# workloads charge 2,994 together (largest key 832); the four-predicate
# tautology at 3x1 under k:cumul charges 199,232 over 10 keys (largest
# 40,960), which a bound of 2^16 would make evict each other within one
# search (17 listings instead of 10).  A kept entry holds about 40 bytes
# per unit while its walk is unfinished, its lanes alone once it is done.
_BOUND = 1 << 18
_LANES: dict[tuple, tuple[int, object]] = {}


def _lanes(worlds, universe, unary, dead, tick):
    """Behaviours packed into lanes.  A behaviour is the worlds where an
    individual exists and, per unary predicate, the worlds where it has
    the predicate, for every existence vector v whose bit v*n is clear in
    dead, the mask of the vectors an individual may not take; there are
    up to 2^n x 2^(n*u) (n worlds, u unary predicates), so the budget is
    checked (tick raises) while they are listed.
    Their combinations_with_replacement take the individuals in one
    canonical order, and the search enumerates everything else in full,
    so every model has an isomorphic copy among the candidates.  Returns
    a function that walks the combinations from the first, packed into
    chunks of at most _WIDTH lanes (lane c the c-th): each chunk's ones
    (bit c*n per lane c), existence masks and unary atom masks, which no
    caller may change.

    The function is kept per process for its key, within _BOUND (see the
    module docstring).  Each chunk is packed by the first walk that
    reaches it, in this search or an earlier one, and later walks replay
    it; once a walk is exhausted, the function drops the iterator and its
    copy of the pool."""
    key = (worlds, universe, tuple(unary), dead)
    if key in _LANES:
        return _LANES[key][1]
    pool = ((1 << len(worlds)) - dead.bit_count()) << len(worlds) * len(unary)
    charge = math.comb(pool + len(universe) - 1, len(universe)) + pool
    chunks = _walk(worlds, universe, unary, dead, tick)
    if charge <= _BOUND:
        while sum(c for c, _ in _LANES.values()) + charge > _BOUND:
            del _LANES[next(iter(_LANES))]
        _LANES[key] = charge, chunks
    return chunks


def _walk(worlds, universe, unary, dead, tick):
    """_lanes without the store: lists the behaviours and returns the walk."""
    n = len(worlds)
    # per world i, its rows of unary truth values as masks at bit i; a
    # pattern takes one row per world, worlds[0]'s varying slowest
    truths = list(itertools.product((0, 1), repeat=len(unary)))
    rows = [[tuple(b << i for b in row) for row in truths] for i in range(n)]
    patterns = []
    for picked in itertools.product(*rows):
        tick()
        patterns.append(tuple(map(sum, zip(*picked))))
    behaviors = []
    for vector in itertools.product((0, 1), repeat=n):
        tick()
        there = sum(e << i for i, e in enumerate(vector))
        if not dead >> there * n & 1:
            behaviors.extend(map((there,).__add__, patterns))
    combos = itertools.combinations_with_replacement(behaviors, len(universe))
    kept = []

    def chunks():
        nonlocal combos
        for i in itertools.count():
            if i == len(kept):
                combinations = list(itertools.islice(combos, _WIDTH))
                if not combinations:
                    combos = ()  # exhausted: drop the pool with the iterator
                    return
                kept.append(_pack(n, universe, unary, combinations))
            yield kept[i]

    return chunks


def _pack(n, universe, unary, combinations):
    """One chunk: combination c in lane c, as (ones, exists, atoms)."""
    shifts = range(0, n * len(combinations), n)
    exists, atoms = {}, {}
    for x, column in zip(universe, zip(*combinations)):
        lanes = (sum(map(operator.lshift, field, shifts)) for field in zip(*column))
        exists[x], *masks = lanes
        atoms.update(((p, x), m) for p, m in zip(unary, masks))
    return sum(map((1).__lshift__, shifts)), exists, atoms
