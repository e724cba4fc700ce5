"""The finite part of the parameter interval, marched left to right, plus verification.

Given an integer initial pair, the tail module covers a left neighbourhood of
-2 with explicit cycles; the rest of the parameter interval (the "body") is
marched from its lower edge (closed, but open at -2 for (0, 0)) to the open
edge 2.  An atlas stores the pair and its body only: its tail, and with it
the body range and the range the tables count, are derived from the pair.
At each point ``r`` one orbit pass (`dynamics.orbit_bounds`) finds the
cycle at ``r``, or just right of ``r`` when ``r`` already belongs to the
previous interval, with the integer bounds of the exact interval on which
that cycle occurs; the march builds that interval and continues from its
right end.  The cycles partition the body, so the march emits the
partition in order.  It is expected to stop after finitely many intervals;
fixed budgets guard against the alternative, which would mean either a bug
or a counterexample.  Each raises `BudgetExceeded`, naming the pair, the
budget and the unmarched residual; it and `MarchError` pickle, so they
cross `sweep`'s process pool.

`verify_atlas` re-checks a computed atlas from scratch by the exact
certificate of the `certificate` module, as every command does; probe
orbits (``probes_per_interval``), a library-only cross-check against the
dynamics, run on a certified atlas only.
`sweep` runs compute + verify over a square grid of initial pairs and
aggregates the statistics reported by `report`; it marches and certifies
each unordered pair once, mirrors the atlas to the swapped pair, and checks
the mirror as the exact swap image of its verified twin.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .certificate import VerificationReport, certify, checked_windows
from .constraints import Bounds, Word, _pair_index
from .dynamics import DEFAULT_ORBIT_CAP, ParamSpec, detect_cycle, orbit_bounds
from .intervals import Interval
from .tail import TailDescription, tail_of


def _body_range(tail: TailDescription) -> Interval:
    """The marched range: from the tail's right edge, closed, to the open edge 2.

    Only the full tail of (0, 0), all of (-2, 2), reaches 2: it is its own
    body range, open at -2.
    """
    ival = tail.interval
    if ival.hi == 2:
        return ival
    return Interval(ival.hi, Fraction(2), True, False)


# The march's budgets, read once per `compute_atlas` call: `DEFAULT_ORBIT_CAP`
# steps per orbit, this many steps in all, and `_interval_budget` intervals.
TOTAL_STEP_BUDGET = 10**9


def _interval_budget(a0: int, a1: int) -> int:
    """At most ``max(10**4, 50*m*m)`` body intervals, with ``m = max(|a0|,|a1|)``.

    Interval counts grow with the shell: (-24,-25) has 9,504 and
    (-29,-30) 13,568, which a fixed 10**4 would reject, while 50*m*m
    (45,000 there) still stops a runaway march loudly.
    """
    m = max(abs(a0), abs(a1))
    return max(10**4, 50 * m * m)


class BudgetExceeded(Exception):
    """The march hit a budget (``reason``) at the lower edge of ``residual``, left unmarched."""

    def __init__(self, reason: str, start: tuple[int, int], residual: Interval):
        self.reason = reason
        self.start = start
        self.residual = residual
        super().__init__(f"march for {start} exceeded {reason}; residual {residual}")

    def __reduce__(self):
        # rebuilt from its own arguments, so it crosses the process pool
        return type(self), (self.reason, self.start, self.residual)


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

    def __reduce__(self):
        return type(self), (self.start, self.lam, self.side, self.solved)


@dataclass(frozen=True)
class PartitionAtlas:
    """The complete partition of the parameter interval for one initial pair.

    The pair alone fixes the tail, `tail_of(a0, a1)`, computed on first
    read and kept; the body is what the march found.
    """

    a0: int
    a1: int
    body: tuple[tuple[Interval, Word], ...]

    @cached_property
    def tail(self) -> TailDescription:
        return tail_of(self.a0, self.a1)

    @property
    def body_range(self) -> Interval:
        return _body_range(self.tail)

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

    @property
    def interval_count(self) -> int:
        return len(self.body)

    @property
    def singleton_count(self) -> int:
        return sum(1 for ival, _ in self.body if ival.is_singleton)

    @property
    def total_cycle_length(self) -> int:
        return sum(len(word) for _, word in self.body)


def compute_atlas(a0: int, a1: int) -> PartitionAtlas:
    """March the body of one initial pair from left to right.

    The body is `_body_range`: it starts closed at the right edge of the
    tail, or open at -2 for the pair (0, 0), and ends open at 2.  From a
    point ``r`` that the previous interval left open, the orbit runs at
    ``r`` itself; from one it closed, it runs just right of ``r`` (the
    plus-side map).  So (0, 0) runs one orbit, just right of -2, whose
    word (0) holds on the whole body.  Either way the kernel's solved
    bounds must start at ``r`` with the opposite closure and be non-empty,
    or `MarchError` is raised; the first interval, which reaches into the
    tail, is clipped to the body first.  Edges are compared in integers,
    and the interval is built here with ``r`` itself as its lower edge, so
    each inner boundary is one Fraction shared by the two intervals that
    meet there.  Exhausting a budget (see `TOTAL_STEP_BUDGET`) raises
    `BudgetExceeded` with the unmarched residual ``[r, 2)`` or ``(r, 2)``.
    """
    start = (a0, a1)
    cap, max_steps, max_rounds = DEFAULT_ORBIT_CAP, TOTAL_STEP_BUDGET, _interval_budget(a0, a1)
    body: list[tuple[Interval, Word]] = []
    total_steps = 0
    body_range = _body_range(tail_of(a0, a1))
    r, closed = body_range.lo, body_range.lo_closed
    while r.numerator < 2 * r.denominator:  # r < 2, in integers
        if len(body) == max_rounds:
            reason = f"interval budget {max_rounds}"
            raise BudgetExceeded(reason, start, Interval(r, 2, closed, False))
        found = orbit_bounds(r, not closed, start, cap)
        if found is None:
            reason = f"orbit step cap {cap} at {r}"
            raise BudgetExceeded(reason, start, Interval(r, 2, closed, False))
        word, bounds = found
        total_steps += len(word)
        if total_steps > max_steps:
            reason = f"total step budget {max_steps}"
            raise BudgetExceeded(reason, start, Interval(r, 2, closed, False))
        lo_n, lo_d, lo_closed, hi_n, hi_d, hi_closed = bounds
        num, den = r.numerator, r.denominator
        below = num * lo_d - lo_n * den  # r minus the solved lower edge
        if below > 0 and not body:
            below, lo_closed = 0, closed  # clipped to the body's lower edge
        above = hi_n * den - num * hi_d  # the solved upper edge minus r
        empty = above < 0 or (above == 0 and not (closed and hi_closed))
        if below or lo_closed != closed or empty:
            raise MarchError(start, r, "exact" if closed else "plus_zero", bounds)
        ival = Interval(r, Fraction(hi_n, hi_d), closed, hi_closed)
        body.append((ival, word))
        r, closed = ival.hi, not hi_closed
    return PartitionAtlas(a0, a1, tuple(body))


def _probe(lam: Fraction, start: tuple[int, int], word: Word) -> bool:
    """Whether the orbit of ``start`` at ``lam`` is exactly ``word``.

    `detect_cycle` runs at most ``len(word)`` steps: an orbit that spells
    ``word`` closes in exactly that many, so the cap changes no verdict, and
    a faulty solve cannot make one probe run long.
    """
    return detect_cycle(ParamSpec("exact", lam), start, len(word)).cycle == word


def _probe_points(ival: Interval, per_interval: int) -> list[Fraction]:
    """The closed endpoints of ``ival``, then ``per_interval`` evenly spaced interior points."""
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
    twin: Optional[PartitionAtlas] = None,
) -> VerificationReport:
    """`certificate.certify(atlas, twin)`, then, if it passed, the probes.

    ``probes_per_interval`` is 0 by default, and no command sets it.  With
    1 or more, `detect_cycle` runs, capped at the word's length, at each
    checked tail window's midpoint and at the closed endpoints and that many
    interior points of every entry, and must return the expected word.  A
    probe can fail on a certified atlas only if the certificate is unsound,
    so the probes change no verdict, and a rejected atlas runs none.
    """
    if probes_per_interval < 0:
        raise ValueError("probes_per_interval must be >= 0")
    verdict = certify(atlas, twin)
    if not verdict.ok or not probes_per_interval:
        return verdict
    a0, a1 = atlas.a0, atlas.a1
    start = (a0, a1)
    # the certified tail's checked windows, each cycle rotated to start at the pair
    for name, window, cycle in checked_windows(atlas.tail):
        i = _pair_index(cycle, a0, a1, 0)
        if not _probe(window.midpoint(), start, cycle[i:] + cycle[:i]):
            return VerificationReport(False, f"{name} not re-detected")
    for ival, word in atlas.body:
        for lam in _probe_points(ival, probes_per_interval):
            if not _probe(lam, start, word):
                return VerificationReport(False, f"cycle on {ival} not re-detected at {lam}")
    return verdict


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
    """Statistics over the table body (the range the reference tables count).

    That is the body cut at `table_range`'s closed lower edge ``c``, which
    lies right of the body's when the occurrence index exceeds K.  The
    body tiles its range in order, so one pass cuts it: entries that end
    below ``c``, or open at it, are dropped; the first kept entry, if it
    starts below ``c``, is clipped to start there, closed (one that ends
    closed at ``c`` becomes the singleton ``[c]``); the rest count as
    they are, an entry starting open at ``c`` included.
    """
    entries = atlas.body
    cut = atlas.table_range.lo
    if cut > entries[0][0].lo:
        for i, (first, word) in enumerate(entries):
            if first.hi > cut or (first.hi_closed and first.hi == cut):
                break
        if first.lo < cut:
            first = Interval(cut, first.hi, True, first.hi_closed)
        entries = ((first, word),) + entries[i + 1 :]
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
    backwards, with the same minimal period: the body keeps its intervals,
    and each word becomes its `_mirror_word`.  The label, and so the tail
    each atlas derives from its pair, is swap-symmetric.  `sweep` verifies
    the result all the same, as the swap image of its verified twin
    (``twin`` in `certificate.certify`).
    """
    body = tuple((ival, _mirror_word(word)) for ival, word in atlas.body)
    return PartitionAtlas(atlas.a1, atlas.a0, body)


def _sweep_pair(args: tuple) -> list[PointSummary]:
    """March ``(a0, a1)``; verify, write and summarize it and its mirror ``(a1, a0)``.

    The mirror is checked as its twin's swap image if the twin verified, else
    from scratch; its summary is the twin's with the pair swapped.
    """
    a0, a1, out_dir = args
    atlas = compute_atlas(a0, a1)
    verdict = verify_atlas(atlas)
    atlases, summaries = [atlas], [summarize_atlas(atlas, verdict)]
    if a0 != a1:
        atlases.append(_mirrored(atlas))
        mirrored = verify_atlas(atlases[1], twin=atlas if verdict.ok else None)
        swapped = dict(a0=a1, a1=a0, verified=mirrored.ok, failure=mirrored.failure)
        summaries.append(replace(summaries[0], **swapped))
    if out_dir is not None:
        from . import report

        for at in atlases:
            report.write_atlas_json(at, out_dir)
    return summaries


def _outcome(call, *args):
    """``call(*args)``, or the `BudgetExceeded` or `MarchError` it raised."""
    try:
        return call(*args)
    except (BudgetExceeded, MarchError) as exc:
        return exc


def sweep(max_m: int, jobs: int = 1, out_dir: Optional[str] = None) -> SweepReport:
    """Compute and verify atlases for every pair with max(|a0|, |a1|) <= max_m.

    Each unordered pair is marched once, as ``(a0, a1)`` with ``a0 <= a1``;
    the atlas of ``(a1, a0)`` is its mirror (see `_mirrored`).  Every atlas
    is verified with no probe orbit, the mirror as the exact swap image of
    its twin (``twin`` in `verify_atlas`), so each word is solved once.
    With ``jobs`` above 1, ``jobs`` processes march pairs, this one
    included: ``jobs - 1`` pool workers (never more than the unordered pairs
    minus one) take the pairs from the front of the grid, and this process
    takes them from the back, each one it can still cancel in the pool,
    until it meets one a worker holds.  The first `BudgetExceeded` or
    `MarchError` in grid order propagates (with ``jobs`` above 1, once
    every pair has run), naming the marched pair of the two, with the same
    text at any ``jobs``.  The result is deterministic and independent of
    ``jobs``; with ``out_dir`` set, one JSON atlas per pair is written.
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
        # imported here, so commands that start no pool do not pay for it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs - 1, len(grid) - 1)) as pool:
            futures = [pool.submit(_sweep_pair, args) for args in grid]
            batches = [None] * len(grid)
            for i in reversed(range(len(grid))):
                if not futures[i].cancel():
                    break  # a worker holds this pair, and the pool runs every earlier one
                batches[i] = _outcome(_sweep_pair, grid[i])
            for i, future in enumerate(futures):
                if not future.cancelled():
                    batches[i] = _outcome(future.result)
        failure = next((b for b in batches if isinstance(b, Exception)), None)
        if failure is not None:
            raise failure
    else:
        batches = [_sweep_pair(args) for args in grid]
    summaries = [summary for batch in batches for summary in batch]
    summaries.sort(key=lambda p: (p.a0, p.a1))
    return SweepReport(max_m, tuple(summaries))
