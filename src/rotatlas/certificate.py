"""The certificate: an exact proof that an atlas is its pair's partition, with no orbit run.

It imports only `constraints`, `intervals` and `tail`, so it reaches no
orbit code, and a fault in the march kernel cannot certify itself.  It
reads only an atlas's pair and body, so no code of `partition` runs in it.
`partition.verify_atlas` runs `certify`, then the opt-in probes, which
check the same tail windows (`checked_windows`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import TYPE_CHECKING, Iterator, Optional

from .constraints import Bounds, Word, _pair_index, cycle_bounds
from .intervals import Interval
from .tail import TailDescription, tail_of

if TYPE_CHECKING:
    from .partition import PartitionAtlas

# Tail windows `certify` checks explicitly, from the first one on.
TAIL_PIECES = 4


def checked_windows(tail: TailDescription) -> Iterator[tuple[str, Interval, Word]]:
    """``(name, window, cycle)`` of each tail window `certify` checks, in order.

    That is the first `TAIL_PIECES` windows, or the one window of a
    constant tail (``k`` is 0 there, and ``k_start`` on a ramp tail).
    """
    for k, (window, cycle) in enumerate(islice(tail.windows(), TAIL_PIECES), tail.k_start or 0):
        yield (f"tail cycle k={k}" if k else "constant tail cycle"), window, cycle


def _solves_to(bounds: Optional[Bounds], ival: Interval) -> bool:
    """Whether a word's solved set is exactly ``ival``, in integers.

    ``bounds`` are the word's `cycle_bounds`, and the test is
    ``interval_for_cycle(word) == ival``: the closures must agree, and
    both ends are compared with ``ival``'s by cross-multiplication.  A
    match with the non-empty ``ival`` also shows the solved set non-empty.
    """
    if bounds is None:
        return False
    lo_n, lo_d, lo_closed, hi_n, hi_d, hi_closed = bounds
    lo, hi = ival.lo, ival.hi
    return (
        lo_closed == ival.lo_closed
        and hi_closed == ival.hi_closed
        and lo_n * lo.denominator == lo.numerator * lo_d
        and hi_n * hi.denominator == hi.numerator * hi_d
    )


@dataclass(frozen=True)
class VerificationReport:
    """An atlas re-check's verdict: its first counterexample, or None when ``ok``."""

    failure: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.failure is None


def certify(atlas: PartitionAtlas, twin: Optional[PartitionAtlas] = None) -> VerificationReport:
    """Prove that ``atlas`` is its pair's partition, or name the first fault.

    It reads only ``a0``, ``a1`` and ``body`` of ``atlas`` and ``twin``.
    The certificate is a proof, not a sample, and it runs no orbit.  For
    every entry ``(ival, word)`` of the body, it establishes two facts:

    1. ``interval_for_cycle(word) == ival``, decided on the integer
       bounds of `cycle_bounds`: every cyclic step inequality
       ``0 <= w[i+2] + lam*w[i+1] + w[i] < 1`` of ``word`` holds at every
       ``lam`` in ``ival``, and nowhere else in (-2, 2).  For a word
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
    periodic: each entry's lower edge meets the previous entry's upper edge
    with the complementary closure (the first entry's meets the body's
    lower edge), and the last entry's upper edge is the body's.  A cycle up
    to rotation has one rotation starting at the pair, so distinct cycles
    are distinct words.  Fact (1) asks for the word's whole set, not its
    cut to the body: no cycle reaches into the tail (the proof is
    `partition.march`'s), so the first entry of a marched atlas
    passes it too.

    No entry needs a test against the earlier words.  Two entries with the
    same word have the same solved set, so by (1) their intervals are equal.
    But the body is read once, in order, and each entry's lower edge is
    checked before its facts, so when the later of the two is reached, every
    lower edge up to it lies, with its closure, strictly above the previous
    one's (each entry is non-empty).  Its interval is then not the earlier
    one's, and the repeated word fails (1) there.

    The tail is the pair's own, `tail_of(a0, a1)`, derived here from the
    pair, and the body's edges are its ``body_range``.  Its first
    `TAIL_PIECES` windows (the one window of a constant tail) pass the same
    checks, each window its cycle's whole parameter set and the pair held
    once anywhere in the cycle, so the orbit there is the cycle rotated to
    start at the pair; the rest is the `tail` module's closed form.

    ``twin``, an atlas of the swapped pair ``(a1, a0)`` that this function
    has passed, replaces the solves: ``atlas`` is then certified as its
    exact swap image.  Its tail is its twin's, since `tail_of` is
    swap-symmetric by construction; the body has the twin's entry count
    and intervals, and each word ``v`` satisfies ``v[::-1] == w[2:] + w[:2]`` for the twin's
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
        return VerificationReport(
            f"twin {twin.a0, twin.a1} with {len(twin.body)} entries is not its swap"
        )

    # Tail: the pair's first windows pass the certificate.
    tail = tail_of(a0, a1)
    for name, window, cycle in checked_windows(tail):
        if twin is None and not _solves_to(cycle_bounds(cycle), window):
            return VerificationReport(f"{name} does not hold on the tail")
        i = _pair_index(cycle, a0, a1, 0)
        if i < 0 or _pair_index(cycle, a0, a1, i + 1) >= 0:
            return VerificationReport(f"initial pair not once in {name}")

    if twin is not None:
        # Body: the twin's swap image, entry by entry.
        for (ival, word), (twin_ival, twin_word) in zip(atlas.body, twin.body):
            if ival is not twin_ival and ival != twin_ival:
                return VerificationReport(f"stored interval {ival} is not its twin's {twin_ival}")
            if word[::-1] != twin_word[2:] + twin_word[:2]:
                return VerificationReport(f"cycle on {ival} is not its twin's cycle reversed")
        return VerificationReport()

    # Body: each entry starts where the previous one ends (the first at the
    # body's lower edge), with the complementary closure (one shared Fraction
    # in a marched atlas, so the identity test settles most), and then passes
    # the certificate above, in integers.
    body_range, prev = tail.body_range, None
    for ival, word in atlas.body:
        if prev is None:
            if (ival.lo, ival.lo_closed) != (body_range.lo, body_range.lo_closed):
                return VerificationReport(
                    f"body starts at {ival}, expected lower edge {body_range}"
                )
        elif (prev.hi is not ival.lo and prev.hi != ival.lo) or prev.hi_closed == ival.lo_closed:
            return VerificationReport(f"coverage breaks between {prev} and {ival}")
        if not word:
            return VerificationReport(f"empty cycle on {ival}")
        if not _solves_to(cycle_bounds(word), ival):
            return VerificationReport(f"stored interval {ival} is not the cycle's parameter set")
        if _pair_index(word, a0, a1, 0) != 0 or _pair_index(word, a0, a1, 1) >= 0:
            return VerificationReport(f"cycle on {ival} does not hold {a0, a1} at its start only")
        prev = ival
    if prev is None:
        return VerificationReport("empty body")
    if (prev.hi, prev.hi_closed) != (body_range.hi, body_range.hi_closed):
        return VerificationReport(f"body ends at {prev}, expected upper edge {body_range}")
    return VerificationReport()
