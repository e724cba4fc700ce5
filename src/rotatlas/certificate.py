"""The certificate: an exact proof that an atlas is its pair's partition, with no orbit run.

It imports only `constraints`, `intervals` and `tail`, so it reaches no
orbit code, and a fault in the march kernel cannot certify itself.
`partition.verify_atlas` runs `certify`, then the opt-in probes, which
check the same tail windows (`checked_windows`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional

from .constraints import Bounds, Word, _pair_index, cycle_bounds
from .intervals import Interval
from .tail import TailDescription

if TYPE_CHECKING:
    from .partition import PartitionAtlas

# Tail windows `certify` checks explicitly, from the first one on.
TAIL_PIECES = 4


def checked_windows(tail: TailDescription) -> Iterator[tuple[str, Interval, Word]]:
    """``(name, window, cycle)`` of each tail window `certify` checks, in order.

    That is the first `TAIL_PIECES` windows, or the one window of a
    constant tail (``k`` is 0 there, and ``k_start`` on a ramp tail).
    """
    k_start = tail.k_start or 0
    for k, (window, cycle) in enumerate(tail.pieces_through(k_start + TAIL_PIECES - 1), k_start):
        yield (f"tail cycle k={k}" if k else "constant tail cycle"), window, cycle


def _edge(body: Interval) -> tuple[int, int, bool]:
    """The lower edge of ``body`` as `_solves_to` takes it: numerator, denominator, closure."""
    return body.lo.numerator, body.lo.denominator, body.lo_closed


def _solves_to(
    bounds: Optional[Bounds], edge_n: int, edge_d: int, edge_closed: bool, ival: Interval
) -> bool:
    """Whether a word's solved set, cut to a body, is exactly ``ival``, in integers.

    ``bounds`` are the word's `cycle_bounds`, and the body runs from the
    lower edge ``edge_n/edge_d`` (closed or not, see `_edge`) to the open
    edge 2: the test is ``interval_for_cycle(word) ∩ body == ival``.  The
    solved lower bound is raised to the body's lower edge, and both ends
    are compared with ``ival``'s by cross-multiplication.  The solved upper
    bound never passes the body's open upper edge 2, so it needs no clip.
    A match with the non-empty ``ival`` also shows the intersection
    non-empty.  The edge is read once per atlas, not once per entry.
    """
    if bounds is None:
        return False
    lo_n, lo_d, lo_closed, hi_n, hi_d, hi_closed = bounds
    cmp = lo_n * edge_d - edge_n * lo_d
    if cmp < 0 or (cmp == 0 and not edge_closed):
        lo_n, lo_d, lo_closed = edge_n, edge_d, edge_closed
    lo, hi = ival.lo, ival.hi
    return (
        lo_closed == ival.lo_closed
        and hi_closed == ival.hi_closed
        and lo_n * lo.denominator == lo.numerator * lo_d
        and hi_n * hi.denominator == hi.numerator * hi_d
    )


@dataclass(frozen=True)
class VerificationReport:
    """Pass/fail of an atlas re-check, with the first counterexample if any."""

    ok: bool
    failure: Optional[str] = None


def _fail(message: str) -> VerificationReport:
    return VerificationReport(False, message)


def certify(atlas: PartitionAtlas, twin: Optional[PartitionAtlas] = None) -> VerificationReport:
    """Prove that ``atlas`` is its pair's partition, or name the first fault.

    The certificate is a proof, not a sample, and it runs no orbit.  For
    every entry ``(ival, word)`` of the body, it establishes two facts:

    1. ``interval_for_cycle(word) ∩ body == ival``, decided on the integer
       bounds of `cycle_bounds`: every cyclic step inequality
       ``0 <= w[i+2] + lam*w[i+1] + w[i] < 1`` of ``word`` holds at every
       ``lam`` in ``ival`` (and nowhere else in the body).  For a word
       equal to its own reflection, `cycle_bounds` folds only the first
       triple of each mirrored pair, in the word's order.  That is sound:
       the reflection is verified letter by letter on the word itself, and
       a triple and its mirror share the middle letter and the outer sum,
       so they are one inequality, and folding the first folds both;
    2. ``word`` starts with ``(a0, a1)`` and holds that pair at no other
       cyclic index.

    The map is deterministic, so by (1) the orbit of ``(a0, a1)`` at any
    ``lam`` in ``ival`` spells ``word`` cyclically, and by (2) it first
    returns to the pair after ``len(word)`` steps: the orbit is ``word``,
    with that minimal period, on the whole interval.  The tiling check shows
    the entries cover the body exactly, so every orbit in the body is
    periodic.  A cycle up to rotation has one rotation starting at the pair,
    so distinct cycles are distinct tuples.

    No entry needs a test against the earlier words.  Two entries with the
    same word have the same solved set, so by (1) their intervals are equal;
    but the tiling check, which runs first, admits no two equal intervals
    (each entry's lower edge, with its closure, lies strictly above the
    previous one's), so a repeated word already fails (1) at one of them.

    The tail is the pair's own, `tail_of(a0, a1)`, which the atlas derives
    and does not store.  Its first `TAIL_PIECES` windows (the one window of
    a constant tail) pass the same checks, each against ``(-2, 2)`` and with
    the pair held once anywhere in the cycle, so the orbit there is the
    cycle rotated to start at the pair; the rest is the `tail` module's
    closed form.

    ``twin``, an atlas of the swapped pair ``(a1, a0)`` that this function
    has passed, replaces the solves: ``atlas`` is then certified as its
    exact swap image.  Its tail is its twin's, since `tail_of` is
    swap-symmetric; the body has the twin's entry count and intervals, and
    each word ``v`` satisfies ``v[::-1] == w[2:] + w[:2]`` for the twin's
    word ``w``: it is ``w`` reversed and rotated to start at ``(a0, a1)``.  By the swap
    theorem (see `partition._mirrored`) and the twin's certificate, ``v`` is
    then the orbit of ``(a0, a1)`` on the whole interval, with the same
    minimal period, since ``w`` holds ``(a1, a0)`` once.  The twin's tiling
    covers this body and its tail windows were solved there, so each
    window's cycle is only checked to hold ``(a0, a1)`` once.  The word test
    is not `partition._mirror_word`, so a faulty mirror cannot pass.
    """
    a0, a1 = atlas.a0, atlas.a1
    if twin is not None and (twin.a0, twin.a1, len(twin.body)) != (a1, a0, len(atlas.body)):
        return _fail(f"twin {twin.a0, twin.a1} with {len(twin.body)} entries is not its swap")
    if twin is None:
        # Tiling: the entries cover the body range exactly, in order, with
        # complementary closures at shared endpoints (one shared Fraction in
        # a marched atlas, so the identity test settles most of them).
        body_range = atlas.body_range
        if not atlas.body:
            return _fail("empty body")
        first, last = atlas.body[0][0], atlas.body[-1][0]
        if (first.lo, first.lo_closed) != (body_range.lo, body_range.lo_closed):
            return _fail(f"body starts at {first}, expected lower edge {body_range}")
        if (last.hi, last.hi_closed) != (body_range.hi, body_range.hi_closed):
            return _fail(f"body ends at {last}, expected upper edge {body_range}")
        for (cur, _), (nxt, _) in zip(atlas.body, atlas.body[1:]):
            if (cur.hi is not nxt.lo and cur.hi != nxt.lo) or cur.hi_closed == nxt.lo_closed:
                return _fail(f"coverage breaks between {cur} and {nxt}")
        edge_n, edge_d, edge_closed = _edge(body_range)

    # Tail: the pair's first windows pass the certificate.
    for name, window, cycle in checked_windows(atlas.tail):
        # solved within the ambient (-2, 2): lower edge -2/1, open
        if twin is None and not _solves_to(cycle_bounds(cycle), -2, 1, False, window):
            return _fail(f"{name} does not hold on the tail")
        i = _pair_index(cycle, a0, a1, 0)
        if i < 0 or _pair_index(cycle, a0, a1, i + 1) >= 0:
            return _fail(f"initial pair not once in {name}")

    # Body entries: the certificate above, or the twin's swap image, in integers.
    for k, (ival, word) in enumerate(atlas.body):
        if twin is None:
            if not word:
                return _fail(f"empty cycle on {ival}")
            if not _solves_to(cycle_bounds(word), edge_n, edge_d, edge_closed, ival):
                return _fail(f"stored interval {ival} is not the cycle's parameter set")
            if _pair_index(word, a0, a1, 0) != 0 or _pair_index(word, a0, a1, 1) >= 0:
                return _fail(f"cycle on {ival} does not hold {a0, a1} at its start only")
        else:
            twin_ival, twin_word = twin.body[k]
            if ival is not twin_ival and ival != twin_ival:
                return _fail(f"stored interval {ival} is not its twin's {twin_ival}")
            if word[::-1] != twin_word[2:] + twin_word[:2]:
                return _fail(f"cycle on {ival} is not its twin's cycle reversed")

    return VerificationReport(True)
