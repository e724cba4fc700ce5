"""The finite part of the parameter interval, marched left to right, plus verification.

Given an integer initial pair, the tail module covers a left neighbourhood of
-2 with explicit cycles; the rest of the parameter interval (the "body") is
marched from its closed lower edge to the open edge 2.  At each point ``r``
one orbit pass (`dynamics.orbit_bounds`) finds the cycle at ``r``, or just
right of ``r`` when ``r`` already belongs to the previous interval, with
the integer bounds of the exact interval on which that cycle occurs; the
march builds that interval and continues from its right end.  The cycles
partition the body, so the march emits the partition in order.  It is
expected to stop after finitely many intervals; explicit budgets guard
against the alternative, which would mean either a bug or a counterexample.

`verify_atlas` re-checks a computed atlas from scratch with an exact
certificate and runs no orbit for it: the entries tile the body, each stored
interval is exactly its word's parameter set within the body, and each word
starts at the initial pair and holds it nowhere else, so the word is the
orbit on the whole interval; the first tail windows pass the same checks.
Every command verifies this way.  Probe orbits (``probes_per_interval``) are
a library-only cross-check of the solve against the dynamics.
`sweep` runs compute + verify over a square grid of initial pairs and
aggregates the statistics reported by `report`; it marches each unordered
pair once, mirrors the atlas to the swapped pair, and verifies both,
solving each word's constraints once for the two.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .constraints import Bounds, cycle_bounds
from .dynamics import DEFAULT_ORBIT_CAP, ParamSpec, Word, detect_cycle, orbit_bounds
from .intervals import Interval
from .tail import TailDescription, tail_of

FULL_RANGE = Interval.open(Fraction(-2), Fraction(2))
# Tail windows `verify_atlas` checks explicitly, from the first one on.
TAIL_PIECES = 4


@dataclass(frozen=True)
class Caps:
    """Budgets guarding the march (``max_rounds`` caps the body intervals)."""

    orbit_cap: int = DEFAULT_ORBIT_CAP
    max_rounds: int = 10**4
    max_total_steps: int = 10**9


class OrbitCapExceeded(Exception):
    """An orbit at a marched parameter failed to close within the step cap."""

    def __init__(self, lam: Fraction, start: tuple[int, int], cap: int):
        self.lam = lam
        self.start = start
        self.cap = cap
        super().__init__(f"orbit of {start} at parameter {lam} open after {cap} steps")


class BudgetExceeded(Exception):
    """The march ran out of intervals or total orbit steps; ``residual`` is unmarched."""

    def __init__(self, reason: str, start: tuple[int, int], residual: Interval):
        self.reason = reason
        self.start = start
        self.residual = residual
        super().__init__(f"march for {start} exceeded {reason}; residual {residual}")


class MarchError(Exception):
    """A solved interval is empty or does not start at the marched point as it must.

    It must start closed there on ``side`` "exact", open on "plus_zero";
    ``solved`` holds the kernel's `constraints.Bounds`.
    """

    def __init__(self, start: tuple[int, int], lam: Fraction, side: str, solved: Bounds):
        self.start = start
        self.lam = lam
        self.side = side
        self.solved = solved
        super().__init__(
            f"march for {start} at {lam} ({side}) solved bounds {solved}, "
            f"which do not start {'closed' if side == 'exact' else 'open'} there"
        )


@dataclass(frozen=True)
class PartitionAtlas:
    """The complete partition of the parameter interval for one initial pair."""

    a0: int
    a1: int
    tail: TailDescription
    body: tuple[tuple[Interval, Word], ...]

    @property
    def body_range(self) -> Interval:
        label = self.tail.label
        if label.d == 0 and label.s == 0:
            return FULL_RANGE
        return Interval(self.tail.interval.hi, Fraction(2), True, False)

    @property
    def table_range(self) -> Interval:
        """The range the summary tables count: right of the K-window edge.

        The verified body can extend further left than this when the pair's
        occurrence index exceeds K; the overhang windows are excluded from
        the tabulated statistics, which are defined over this range.
        """
        label = self.tail.label
        if label.d == 0:
            return self.body_range
        lo = -2 + Fraction(1, label.s + label.K * label.d)
        return Interval(lo, Fraction(2), True, False)

    def table_body(self) -> tuple[tuple[Interval, Word], ...]:
        """Body entries clipped to `table_range`; identical to body for most pairs."""
        rng = self.table_range
        if rng == self.body_range:
            return self.body
        out = []
        for ival, word in self.body:
            clipped = ival.intersect(rng)
            if clipped is not None:
                out.append((clipped, word))
        return tuple(out)

    @property
    def interval_count(self) -> int:
        return len(self.body)

    @property
    def singleton_count(self) -> int:
        return sum(1 for ival, _ in self.body if ival.is_singleton)

    @property
    def total_cycle_length(self) -> int:
        return sum(len(word) for _, word in self.body)


def compute_atlas(a0: int, a1: int, caps: Caps = Caps()) -> PartitionAtlas:
    """March the body of one initial pair from left to right.

    The pair (0, 0) short-circuits: its single cycle (0) covers everything.
    Otherwise the body starts closed at the right edge of the tail and ends
    open at 2.  From a point ``r`` that the previous interval left open, the
    orbit runs at ``r`` itself; from one it closed, it runs just right of
    ``r`` (the plus-side map).  Either way the kernel's solved bounds must
    start at ``r`` with the opposite closure and be non-empty, or
    `MarchError` is raised; the first interval, which reaches into the
    tail, is clipped to the body first.  Edges are compared in integers,
    and the interval is built here with ``r`` itself as its lower edge, so
    each inner boundary is one Fraction shared by the two intervals that
    meet there.
    """
    tail = tail_of(a0, a1)
    if (a0, a1) == (0, 0):
        return PartitionAtlas(a0, a1, tail, ((FULL_RANGE, (0,)),))

    start = (a0, a1)
    body: list[tuple[Interval, Word]] = []
    total_steps = 0
    r, closed = tail.interval.hi, True
    while r.numerator < 2 * r.denominator:  # r < 2, in integers
        if len(body) == caps.max_rounds:
            residual = Interval(r, 2, closed, False)
            raise BudgetExceeded(f"interval budget {caps.max_rounds}", start, residual)
        found = orbit_bounds(r, not closed, start, caps.orbit_cap)
        if found is None:
            raise OrbitCapExceeded(r, start, caps.orbit_cap)
        word, bounds, steps = found
        total_steps += steps
        if total_steps > caps.max_total_steps:
            residual = Interval(r, 2, closed, False)
            raise BudgetExceeded(f"total step budget {caps.max_total_steps}", start, residual)
        lo_n, lo_d, lo_closed, hi_n, hi_d, hi_closed = bounds
        num, den = r.numerator, r.denominator
        below = num * lo_d - lo_n * den  # r minus the solved lower edge
        if below > 0 and not body:
            below, lo_closed = 0, True  # clipped to the body's closed lower edge
        above = hi_n * den - num * hi_d  # the solved upper edge minus r
        empty = above < 0 or (above == 0 and not (closed and hi_closed))
        if below or lo_closed != closed or empty:
            raise MarchError(start, r, "exact" if closed else "plus_zero", bounds)
        ival = Interval(r, Fraction(hi_n, hi_d), closed, hi_closed)
        body.append((ival, word))
        r, closed = ival.hi, not hi_closed
    return PartitionAtlas(a0, a1, tail, tuple(body))


def _solves_to(bounds: Optional[Bounds], body: Interval, ival: Interval) -> bool:
    """Whether a word's solved set, cut to ``body``, is exactly ``ival``, in integers.

    ``bounds`` are the word's `cycle_bounds`: the test is
    ``interval_for_cycle(word) ∩ body == ival``.  The solved lower bound is
    raised to the body's lower edge, and both ends are compared with
    ``ival``'s by cross-multiplication.  The solved upper bound never passes
    the body's open upper edge 2, so it needs no clip.  A match with the
    non-empty ``ival`` also shows the intersection non-empty.
    """
    if bounds is None:
        return False
    lo_n, lo_d, lo_closed, hi_n, hi_d, hi_closed = bounds
    edge = body.lo
    cmp = lo_n * edge.denominator - edge.numerator * lo_d
    if cmp < 0 or (cmp == 0 and not body.lo_closed):
        lo_n, lo_d, lo_closed = edge.numerator, edge.denominator, body.lo_closed
    lo, hi = ival.lo, ival.hi
    return (
        lo_closed == ival.lo_closed
        and hi_closed == ival.hi_closed
        and lo_n * lo.denominator == lo.numerator * lo_d
        and hi_n * hi.denominator == hi.numerator * hi_d
    )


def _pair_offsets(word: Word, a0: int, a1: int) -> list[int]:
    """The cyclic indices ``i`` with ``(word[i], word[(i+1) % n]) == (a0, a1)``.

    ``tuple.index`` jumps from one ``a0`` to the next, so only the letters
    equal to ``a0`` cost a step in Python.
    """
    n = len(word)
    offsets = []
    i = -1
    while True:
        try:
            i = word.index(a0, i + 1)
        except ValueError:
            return offsets
        if word[(i + 1) % n] == a1:
            offsets.append(i)


@dataclass(frozen=True)
class VerificationReport:
    """Pass/fail of an atlas re-check, with the first counterexample if any."""

    ok: bool
    failure: Optional[str] = None


def _fail(message: str) -> VerificationReport:
    return VerificationReport(False, message)


def _probe(lam: Fraction, start: tuple[int, int], word: Word) -> bool:
    """Whether the orbit of ``start`` at ``lam`` is exactly ``word``.

    `detect_cycle` runs at most ``len(word)`` steps: an orbit that spells
    ``word`` closes in exactly that many, so the cap changes no verdict, and
    a faulty solve cannot make one probe run long.
    """
    return detect_cycle(ParamSpec("exact", lam), start, len(word)).cycle == word


def _probe_points(ival: Interval, per_interval: int) -> list[Fraction]:
    """The closed endpoints of ``ival``, then ``per_interval`` evenly spaced interior points."""
    if not per_interval:
        return []
    lo, hi = ival.lo, ival.hi
    lams = []
    if ival.lo_closed:
        lams.append(lo)
    if lo != hi:
        if ival.hi_closed:
            lams.append(hi)
        # lo + (hi - lo) * j/(P+1), one Fraction each
        ln, ld, hn, hd = lo.numerator, lo.denominator, hi.numerator, hi.denominator
        parts = per_interval + 1
        den = ld * hd * parts
        lams.extend(Fraction(ln * hd * (parts - j) + hn * ld * j, den) for j in range(1, parts))
    return lams


def verify_atlas(
    atlas: PartitionAtlas,
    probes_per_interval: int = 0,
    solved: Optional[dict[Word, Optional[Bounds]]] = None,
) -> VerificationReport:
    """Re-check a computed atlas against the dynamics from scratch.

    The certificate is a proof, not a sample, and it runs no orbit.  For
    every entry ``(ival, word)`` of the body, it establishes two facts:

    1. ``interval_for_cycle(word) ∩ body == ival``, decided on the integer
       bounds of `cycle_bounds`: every cyclic step inequality
       ``0 <= w[i+2] + lam*w[i+1] + w[i] < 1`` of ``word`` holds at every
       ``lam`` in ``ival`` (and nowhere else in the body);
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

    The tail's first `TAIL_PIECES` windows (the one window of a constant
    tail) pass the same checks, each against ``(-2, 2)`` and with the pair
    held once anywhere in the cycle, so the orbit there is the cycle rotated
    to start at the pair; the rest is the `tail` module's closed form.

    ``probes_per_interval`` is 0 by default, and no command sets it.  With
    1 or more, `detect_cycle` also runs, capped at the word's length, at
    each tail window's midpoint and at the closed endpoints and that many
    interior points of every entry, and must return the expected word: a
    cross-check of the solve against the dynamics that the certificate does
    not need.

    ``solved`` maps words to their `cycle_bounds`; a caller that passes one
    dict to two calls lets a pair and its swap share the solve, and without
    it the call uses a fresh dict of its own.  Every body word's bounds are stored
    under that word, and a word whose exact mirror `_mirror_word` is already
    a key reuses the mirror's bounds instead of solving again.  That is sound
    because ``cycle_bounds(_mirror_word(w))`` equals ``cycle_bounds(w)`` as
    values (None iff None): the mirror's cyclic triples are ``w``'s triples
    ``(b0, b1, b2)`` read as ``(b2, b1, b0)``, every constraint depends only on
    ``(b1, b0 + b2)``, and the fold keeps the extreme bound with the strict
    closure on ties whatever the order.  The cache is content-addressed: its
    only entries are `cycle_bounds` values of words this function read, each
    keyed by the exact tuple of its word, never by an index or a stored
    interval.  So a swapped, rotated, doubled or foreign word gets a miss or
    its own bounds, never another word's, and the certificate is the same
    with or without a shared cache.  Pass an empty dict, or one filled only
    by earlier calls.
    """
    if probes_per_interval < 0:
        raise ValueError("probes_per_interval must be >= 0")
    if solved is None:
        solved = {}
    a0, a1 = atlas.a0, atlas.a1
    start = (a0, a1)
    body_range = atlas.body_range

    # Tiling: the body entries cover the body range exactly, in order, with
    # complementary closures at shared endpoints (one shared Fraction in a
    # marched atlas, so the identity test settles most of them).
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

    # Tail: the stored tail is the pair's, and its first windows pass the
    # certificate.  k_start >= 1 on a ramp tail, so k == 0 is the constant one.
    if atlas.tail != tail_of(a0, a1):
        return _fail(f"stored tail {atlas.tail.interval} is not the pair's tail")
    k_start = atlas.tail.k_start or 0
    pieces = atlas.tail.pieces_through(k_start + TAIL_PIECES - 1)
    for k, (window, cycle) in enumerate(pieces, k_start):
        name = f"tail cycle k={k}" if k else "constant tail cycle"
        if not _solves_to(cycle_bounds(cycle), FULL_RANGE, window):
            return _fail(f"{name} does not hold on the tail")
        offsets = _pair_offsets(cycle, a0, a1)
        if len(offsets) != 1:
            return _fail(f"initial pair not once in {name}")
        if probes_per_interval:
            i = offsets[0]
            if not _probe(window.midpoint(), start, cycle[i:] + cycle[:i]):
                return _fail(f"{name} not re-detected")

    # Body entries: the certificate above, entry by entry, in integers.
    for ival, word in atlas.body:
        if not word:
            return _fail(f"empty cycle on {ival}")
        mirror = _mirror_word(word)
        bounds = solved[mirror] if mirror in solved else cycle_bounds(word)
        solved[word] = bounds
        if not _solves_to(bounds, body_range, ival):
            return _fail(f"stored interval {ival} is not the cycle's parameter set")
        if _pair_offsets(word, a0, a1) != [0]:
            return _fail(f"cycle on {ival} does not hold {start} at its start only")
        for lam in _probe_points(ival, probes_per_interval):
            if not _probe(lam, start, word):
                return _fail(f"cycle on {ival} not re-detected at {lam}")

    return VerificationReport(True)


@dataclass(frozen=True)
class PointSummary:
    """Per-initial-pair statistics retained by a sweep."""

    a0: int
    a1: int
    shell: int
    intervals: int
    singletons: int
    max_len: int
    max_len_interval: str
    total_len: int
    verified: bool
    failure: Optional[str] = None

    @property
    def avg_len(self) -> Fraction:
        return Fraction(self.total_len, self.intervals)


@dataclass(frozen=True)
class ShellStats:
    """Aggregates over all pairs with max(|a0|, |a1|) equal to one value."""

    m: int
    card_point: tuple[int, int]
    cardinality: int
    singletons: int
    len_point: tuple[int, int]
    max_len: int
    max_len_interval: str
    avg_len_pooled: Fraction
    avg_len_at_max_point: Fraction


@dataclass(frozen=True)
class SweepReport:
    """Everything a sweep over max(|a0|, |a1|) <= max_m retains."""

    max_m: int
    points: tuple[PointSummary, ...]

    @property
    def all_verified(self) -> bool:
        return all(p.verified for p in self.points)

    def failures(self) -> list[PointSummary]:
        return [p for p in self.points if not p.verified]

    def shell_stats(self, m: int) -> ShellStats:
        """Recompute one shell's aggregates from the per-point summaries.

        Argmax scans lexicographically ascending and keeps the last point
        attaining the maximum, so among tied symmetric pairs the
        lexicographically largest is reported.
        """
        shell = sorted(
            (p for p in self.points if p.shell == m), key=lambda p: (p.a0, p.a1)
        )
        if not shell:
            raise ValueError(f"no points at shell {m}")
        card_best = shell[0]
        len_best = shell[0]
        for p in shell[1:]:
            if p.intervals >= card_best.intervals:
                card_best = p
            if p.max_len >= len_best.max_len:
                len_best = p
        total = sum(p.total_len for p in shell)
        count = sum(p.intervals for p in shell)
        return ShellStats(
            m=m,
            card_point=(card_best.a0, card_best.a1),
            cardinality=card_best.intervals,
            singletons=card_best.singletons,
            len_point=(len_best.a0, len_best.a1),
            max_len=len_best.max_len,
            max_len_interval=len_best.max_len_interval,
            avg_len_pooled=Fraction(total, count),
            avg_len_at_max_point=len_best.avg_len,
        )

    def shells(self) -> list[ShellStats]:
        return [self.shell_stats(m) for m in range(1, self.max_m + 1)]


def summarize_atlas(atlas: PartitionAtlas, verdict: VerificationReport) -> PointSummary:
    """Statistics over the table body (the range the reference tables count)."""
    entries = atlas.table_body()
    longest_interval, longest_word = max(entries, key=lambda entry: len(entry[1]))
    return PointSummary(
        a0=atlas.a0,
        a1=atlas.a1,
        shell=max(abs(atlas.a0), abs(atlas.a1)),
        intervals=len(entries),
        singletons=sum(1 for ival, _ in entries if ival.is_singleton),
        max_len=len(longest_word),
        max_len_interval=str(longest_interval),
        total_len=sum(len(word) for _, word in entries),
        verified=verdict.ok,
        failure=verdict.failure,
    )


def _mirror_word(word: Word) -> Word:
    """``(w0, w1, ..., w_{n-1})`` reversed and rotated to start ``(w1, w0)``.

    That is ``(w1, w0, w_{n-1}, ..., w2)``: the cycle of the swapped initial
    pair (see `_mirrored`).  The map is an involution.
    """
    return word[1::-1] + word[:1:-1]


def _mirrored(atlas: PartitionAtlas) -> PartitionAtlas:
    """The atlas of the swapped pair ``(a1, a0)``, read off ``atlas`` with no orbit run.

    The step inequality ``0 <= z + lam*y + x < 1`` is symmetric in ``x`` and
    ``z``: ``(x, y) -> (y, z)`` exactly when ``(z, y) -> (y, x)``.  So at every
    parameter the orbit of ``(a1, a0)`` is the orbit of ``(a0, a1)`` run
    backwards, with the same minimal period, and the body keeps its
    intervals.  Each word ``(w0, w1, ..., w_{n-1})`` becomes its reversal
    rotated to start at the swapped pair, ``(w1, w0, w_{n-1}, ..., w2)``.
    The label, and so the tail, is swap-symmetric.  `sweep` verifies the
    result all the same, with the full certificate; only the word solves are
    shared with the twin (see ``solved`` in `verify_atlas`).
    """
    body = tuple((ival, _mirror_word(word)) for ival, word in atlas.body)
    return PartitionAtlas(atlas.a1, atlas.a0, atlas.tail, body)


def _sweep_pair(args: tuple) -> list[PointSummary]:
    """March ``(a0, a1)``; verify, write and summarize it and its mirror ``(a1, a0)``.

    The two verifications share one ``solved`` cache, so each word's
    constraints are solved once for the pair.
    """
    a0, a1, out_dir = args
    atlas = compute_atlas(a0, a1)
    atlases = [atlas] if a0 == a1 else [atlas, _mirrored(atlas)]
    solved: dict[Word, Optional[Bounds]] = {}
    summaries = []
    for at in atlases:
        verdict = verify_atlas(at, solved=solved)
        if out_dir is not None:
            from . import report

            report.write_atlas_json(at, out_dir)
        summaries.append(summarize_atlas(at, verdict))
    return summaries


def sweep(max_m: int, jobs: int = 1, out_dir: Optional[str] = None) -> SweepReport:
    """Compute and verify atlases for every pair with max(|a0|, |a1|) <= max_m.

    Each unordered pair is marched once, as ``(a0, a1)`` with ``a0 <= a1``,
    under the default `Caps`; the atlas of ``(a1, a0)`` is its mirror (see
    `_mirrored`).  Every atlas, marched or mirrored, gets the full
    certificate and no probe orbit; the mirror reuses its twin's word
    solves, looked up by the exact mirrored word.  Budget failures propagate
    as exceptions naming the marched pair of the two.  The result is
    deterministic and independent of ``jobs``; with ``out_dir`` set, one
    JSON atlas per pair is written as a side effect.
    """
    if max_m < 1:
        raise ValueError("max_m must be >= 1")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    grid = [
        (a0, a1, out_dir)
        for a0 in range(-max_m, max_m + 1)
        for a1 in range(a0, max_m + 1)
    ]
    if jobs > 1:
        # chunksize 1: pairs differ wildly in cost, let idle workers pull
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            batches = list(pool.map(_sweep_pair, grid, chunksize=1))
    else:
        batches = [_sweep_pair(args) for args in grid]
    summaries = [summary for batch in batches for summary in batch]
    summaries.sort(key=lambda p: (p.a0, p.a1))
    return SweepReport(max_m, tuple(summaries))
