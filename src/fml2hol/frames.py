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

Frames depend on the world count and the logic only, so each list is
built once per process and kept as a tuple of tuples, which no caller can
change.  A list enters the cache only once its walk completes: a deadline
that fires mid-walk (tick raises) leaves nothing behind.
"""

from __future__ import annotations

import functools
import itertools

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
