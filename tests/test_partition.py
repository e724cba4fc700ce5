import concurrent.futures
import dataclasses
import hashlib
import itertools
import json
import multiprocessing
import os
import pickle
import re
import subprocess
import sys
import types
from array import array
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

import rotatlas
from rotatlas import (
    BudgetExceeded,
    Interval,
    MarchError,
    ParamSpec,
    compute_atlas,
    detect_cycle,
    interval_for_cycle,
    summarize_atlas,
    sweep,
    verify_atlas,
)
from rotatlas import certificate, dynamics, partition, tail
from rotatlas.certificate import PartitionAtlas, VerificationReport, _solves_to, certify
from rotatlas.constraints import cycle_bounds, pack_word
from rotatlas.partition import _mirrored
from rotatlas.report import (
    PointSummary,
    ShellStats,
    atlas_from_json,
    atlas_to_json,
    write_atlas_json,
)
from reference import contains, intersect, make_interval, parse_interval, word_is_cycle_at
from words import rotation_equal

GOLDENS = os.path.join(os.path.dirname(__file__), "goldens")


def entry_map(atlas):
    return {str(ival): tuple(word) for ival, word in atlas.body}


@pytest.fixture
def probe_orbits(monkeypatch):
    """``(parameter, word length)`` of every `is_orbit` call `partition` makes from now on."""
    calls = []
    check = partition.is_orbit

    def recorded(lam, start, word):
        calls.append((lam, len(word)))
        return check(lam, start, word)

    monkeypatch.setattr(partition, "is_orbit", recorded)
    return calls


def test_origin_is_trivial(atlas):
    at = atlas(0, 0)
    assert [(str(i), tuple(w)) for i, w in at.body] == [("(-2,2)", (0,))]
    assert at.tail.body_range == at.tail.table_range == parse_interval("(-2,2)")
    assert verify_atlas(at, probes_per_interval=2).ok


def test_minus_one_minus_one(atlas):
    at = atlas(-1, -1)
    assert at.interval_count == 22
    assert at.singleton_count == 11
    lows = sorted({i.lo for i, _ in at.body} | {i.hi for i, _ in at.body})
    assert lows == [
        F(-1), F(-1, 2), F(0), F(1, 2), F(1), F(4, 3), F(3, 2),
        F(8, 5), F(5, 3), F(7, 4), F(9, 5), F(2),
    ]
    assert verify_atlas(at, probes_per_interval=3).ok


def test_named_cycles_for_minus_one_one(atlas):
    entries = entry_map(atlas(-1, 1))
    assert entries["(-3/2,-4/3)"] == (-1, 1, 3, 4, 3, 1, -1, -2)
    assert entries["[-4/3,-1)"] == (-1, 1, 3, 3, 1, -1, -2)
    assert entries["[-1]"] == (-1, 1, 2, 1, -1, -2)
    assert entries["(-1,-1/2)"] == (-1, 1, 2, 1, -1)


def test_minus_two_minus_two(atlas):
    at = atlas(-2, -2)
    assert at.interval_count == 59
    assert at.singleton_count == 20
    assert entry_map(at)["[-2/3,-1/2]"] == (-2, -2, 1, 3, 1)


def test_recomputation_is_deterministic(atlas):
    assert compute_atlas(-2, 1) == atlas(-2, 1)


def test_swap_symmetry_small_grid(atlas):
    for a0 in range(-3, 4):
        for a1 in range(-3, 4):
            fwd, rev = atlas(a0, a1), atlas(a1, a0)
            assert [i for i, _ in fwd.body] == [i for i, _ in rev.body]
            for (_, w1), (_, w2) in zip(fwd.body, rev.body):
                assert rotation_equal(w1, w2[::-1])


def test_last_entry_reaches_the_right_edge(atlas):
    for a0 in range(-3, 4):
        for a1 in range(-3, 4):
            last, _ = atlas(a0, a1).body[-1]
            assert last.hi == 2 and not last.hi_closed and not last.is_singleton


def test_every_stored_word_replays_at_its_sample(atlas):
    for pair in ((-2, -2), (2, 3), (0, 0), (-1, 2)):
        for ival, word in atlas(*pair).body:
            assert word_is_cycle_at(word, ival.midpoint())


def test_deferred_occurrence_pair_has_wider_body(atlas):
    at = atlas(2, 3)
    assert at.tail.body_range == parse_interval("[-3/2,2)")
    assert at.tail.table_range == parse_interval("[-1,2)")
    assert summarize_atlas(at, verify_atlas(at)).intervals < at.interval_count
    assert entry_map(at)["[-4/3,-1)"] == (2, 3, 2, 0, -2, -2, 0)
    assert verify_atlas(at, probes_per_interval=2).ok


def test_verify_rejects_perturbed_endpoint(atlas):
    at = atlas(-1, -1)
    (left, w1), (right, w2) = at.body[1], at.body[2]
    # A moved upper edge breaks the entry's own set before the next entry's
    # lower edge is read; a moved lower edge breaks the tiling first.
    cut = dataclasses.replace(left, hi=left.hi - F(1, 10**6))
    report = verify_atlas(_edit(at, {1: (cut, w1)}), probes_per_interval=2)
    assert report.failure == f"stored interval {cut} is not the cycle's parameter set"
    lowered = dataclasses.replace(right, lo=right.lo - F(1, 10**6))
    report = verify_atlas(_edit(at, {2: (lowered, w2)}), probes_per_interval=2)
    assert report.failure == f"coverage breaks between {left} and {lowered}"


def test_verify_rejects_swapped_cycles(atlas):
    at = atlas(-1, -1)
    body = list(at.body)
    (i1, w1), (i2, w2) = body[1], body[3]
    body[1], body[3] = (i1, w2), (i2, w1)
    bad = dataclasses.replace(at, body=tuple(body))
    report = verify_atlas(bad, probes_per_interval=2)
    assert not report.ok and "not the cycle's parameter set" in report.failure


def test_verify_rejects_duplicate_cycle(atlas):
    at = atlas(-1, -1)
    body = list(at.body)
    body[1] = (body[1][0], body[3][1])
    bad = dataclasses.replace(at, body=tuple(body))
    report = verify_atlas(bad, probes_per_interval=2)
    assert not report.ok
    assert report.failure == f"stored interval {body[1][0]} is not the cycle's parameter set"


def _edit(at, entries):
    """The atlas with the body entries at the given indices replaced."""
    body = list(at.body)
    for k, entry in entries.items():
        body[k] = entry
    return dataclasses.replace(at, body=tuple(body))


def _proper_boundary(body):
    """Index k of the first boundary between two proper (non-singleton) entries."""
    return next(
        k
        for k in range(len(body) - 1)
        if not body[k][0].is_singleton and not body[k + 1][0].is_singleton
    )


def _shift_endpoint(at):
    k = _proper_boundary(at.body)
    (left, w1), (right, w2) = at.body[k], at.body[k + 1]
    moved = right.midpoint()
    return _edit(
        at,
        {
            k: (dataclasses.replace(left, hi=moved), w1),
            k + 1: (dataclasses.replace(right, lo=moved), w2),
        },
    )


def _flip_closure(at):
    k = _proper_boundary(at.body)
    (left, w1), (right, w2) = at.body[k], at.body[k + 1]
    return _edit(
        at,
        {
            k: (dataclasses.replace(left, hi_closed=not left.hi_closed), w1),
            k + 1: (dataclasses.replace(right, lo_closed=not right.lo_closed), w2),
        },
    )


def _swap_words(at):
    (i1, w1), (i2, w2) = at.body[0], at.body[-1]
    return _edit(at, {0: (i1, w2), -1: (i2, w1)})


def _rewrite_word(rewrite, wanted=lambda word: True):
    """Apply ``rewrite`` to the word of the longest entry that ``wanted`` admits."""

    def mutate(at):
        ival, word = max(
            (entry for entry in at.body if wanted(entry[1])), key=lambda entry: len(entry[1])
        )
        return _edit(at, {at.body.index((ival, word)): (ival, rewrite(word))})

    return mutate


def _empty_word(at):
    return _edit(at, {0: (at.body[0][0], ())})


def _drop_entry(at):
    return dataclasses.replace(at, body=at.body[:1] + at.body[2:])


def _merge_entries(at):
    (left, word), (right, _) = at.body[0], at.body[1]
    merged = dataclasses.replace(left, hi=right.hi, hi_closed=right.hi_closed)
    return dataclasses.replace(at, body=((merged, word),) + at.body[2:])


def _duplicate_word(at):
    return _edit(at, {-1: (at.body[-1][0], at.body[0][1])})


def _foreign_tail(at):
    # The atlas derives its tail from its pair, so a foreign tail can show
    # only in the body: here the body starts at the edge of a tail one window
    # shorter (at -2, open, for a constant tail) and runs over the first one.
    t = at.tail
    if t.k_start is None:
        lo, closed = t.interval.lo, False
    else:
        lo, closed = tail.z_interval(t.label.s, t.label.d, t.k_start).lo, True
    ival, word = at.body[0]
    return _edit(at, {0: (dataclasses.replace(ival, lo=lo, lo_closed=closed), word)})


def test_verify_rejects_foreign_tail(atlas):
    at = atlas(-1, -1)
    bad = _foreign_tail(at)
    report = verify_atlas(bad, probes_per_interval=2)
    assert not report.ok
    edge = at.tail.body_range
    assert report.failure == f"body starts at {bad.body[0][0]}, expected lower edge {edge}"


def _copied(at):
    """The atlas with every endpoint a fresh Fraction, so no two intervals share one."""
    body = [
        (Interval(F(str(ival.lo)), F(str(ival.hi)), ival.lo_closed, ival.hi_closed), word)
        for ival, word in at.body
    ]
    return dataclasses.replace(at, body=tuple(body))


@pytest.mark.parametrize("pair", [(-2, -2), (2, 3)], ids=str)
def test_verify_tiles_a_body_whose_shared_edges_are_equal_copies(atlas, pair):
    at = _copied(atlas(*pair))
    assert all(cur.hi is not nxt.lo for (cur, _), (nxt, _) in zip(at.body, at.body[1:]))
    assert verify_atlas(at).ok
    for closed in (False, True):  # a gap at a shared edge, then an overlap
        # only the later entry is edited: its lower edge is read before its set
        k = next(
            k
            for k, (ival, _) in enumerate(at.body[1:], 1)
            if ival.lo_closed != closed and not ival.is_singleton
        )
        (cur, _), (right, word) = at.body[k - 1], at.body[k]
        nxt = dataclasses.replace(right, lo_closed=closed)
        report = verify_atlas(_edit(at, {k: (nxt, word)}))
        assert report.failure == f"coverage breaks between {cur} and {nxt}"


@pytest.mark.parametrize("pair", [(-2, 1), (2, 3)], ids=str)
def test_verify_checks_a_mirror_read_back_against_its_twin_read_back(atlas, tmp_path, pair):
    def read_back(at):
        with open(write_atlas_json(at, str(tmp_path))) as fh:
            return atlas_from_json(fh.read())

    twin = atlas(*pair)
    twin, mirror = read_back(twin), read_back(_mirrored(twin))
    assert all(m is not t for (m, _), (t, _) in zip(mirror.body, twin.body))
    assert verify_atlas(twin).ok and verify_atlas(mirror, twin=twin).ok
    ival, word = mirror.body[-1]
    bad = _edit(mirror, {-1: (dataclasses.replace(ival, lo_closed=not ival.lo_closed), word)})
    report = verify_atlas(bad, twin=twin)
    assert report.failure == f"stored interval {bad.body[-1][0]} is not its twin's {ival}"


def test_probe_failures_name_the_point_that_is_not_the_orbit(atlas, monkeypatch):
    at = atlas(-1, -1)
    assert verify_atlas(at, probes_per_interval=2).ok
    check = partition.is_orbit
    for rejected, failure in [
        (F(-5, 4), "tail cycle k=1 is not the orbit at -5/4"),
        (F(-2, 3), "cycle on (-1,-1/2) is not the orbit at -2/3"),
    ]:
        def rejecting(lam, start, word, rejected=rejected):
            return lam != rejected and check(lam, start, word)

        monkeypatch.setattr(partition, "is_orbit", rejecting)
        report = verify_atlas(at, probes_per_interval=2)
        assert (report.ok, report.failure) == (False, failure)


CORRUPTIONS = {
    "shifted endpoint": _shift_endpoint,
    "flipped closure": _flip_closure,
    "swapped words": _swap_words,
    "rotated word": _rewrite_word(lambda w: w[1:] + w[:1], lambda w: len(set(w)) > 1),
    "doubled word": _rewrite_word(lambda w: w + w),
    "reversed word": _rewrite_word(lambda w: w[::-1], lambda w: w != w[::-1]),
    "dropped entry": _drop_entry,
    "merged entries": _merge_entries,
    "duplicate word": _duplicate_word,
    "empty word": _empty_word,
    "foreign tail": _foreign_tail,
}
# Each pair has a boundary between two proper entries for the endpoint and
# closure mutants; (-1, -1) has none, its singletons alternate.
CORPUS_PAIRS = ((-2, -2), (2, 3), (1, 1), (-2, 1), (3, -1))


@pytest.mark.parametrize("pair", CORPUS_PAIRS, ids=str)
@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_verify_rejects_the_corruption_corpus(atlas, pair, name):
    at = atlas(*pair)
    bad = CORRUPTIONS[name](at)
    assert bad != at
    for probes in (0, 1, 2):
        assert verify_atlas(at, probes_per_interval=probes).ok
        report = verify_atlas(bad, probes_per_interval=probes)
        assert not report.ok and report.failure
        if name == "duplicate word":
            # the tiling leaves no two equal intervals, so the repeat fails its solve
            ival = bad.body[-1][0]
            assert report.failure == f"stored interval {ival} is not the cycle's parameter set"


@pytest.mark.parametrize("pair", CORPUS_PAIRS, ids=str)
@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_verify_runs_no_probe_on_a_rejected_atlas(atlas, probe_orbits, pair, name):
    # The probes run only once the certificate has passed, so the failure is
    # the certificate's own at any probe count, and no probe orbit runs.
    bad = CORRUPTIONS[name](atlas(*pair))
    failure = verify_atlas(bad).failure
    assert failure
    for probes in (1, 2):
        assert verify_atlas(bad, probes_per_interval=probes).failure == failure
        assert probe_orbits == []


@pytest.mark.parametrize("pair", CORPUS_PAIRS, ids=str)
@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_verify_rejects_the_corrupted_mirror_against_its_twin(atlas, pair, name):
    # The mirror is checked against its verified twin, which no corruption
    # of the mirror passes either, with or without probes.
    twin = atlas(*pair)
    mirror = _mirrored(twin)
    bad = CORRUPTIONS[name](mirror)
    assert bad != mirror
    for probes in (0, 1, 2):
        assert verify_atlas(twin, probes_per_interval=probes).ok
        assert verify_atlas(mirror, probes_per_interval=probes, twin=twin).ok
        report = verify_atlas(bad, probes_per_interval=probes, twin=twin)
        assert not report.ok and report.failure
        assert not verify_atlas(bad, probes_per_interval=probes).ok


def test_corruption_corpus_failures_are_the_golden_texts(atlas):
    # each failure names the same first fault as before the verdict was
    # reduced to its failure text
    with open(os.path.join(GOLDENS, "corruption_failures.txt")) as fh:
        golden = [line.rstrip("\n") for line in fh if not line.startswith("#")]
    texts = []
    for pair in CORPUS_PAIRS:
        at = atlas(*pair)
        for name in sorted(CORRUPTIONS):
            report = verify_atlas(CORRUPTIONS[name](at))
            assert not report.ok
            texts.append(f"{pair[0]} {pair[1]} {name}: {report.failure}")
        mirror = _mirrored(at)
        for name in sorted(CORRUPTIONS):
            report = verify_atlas(CORRUPTIONS[name](mirror), twin=at)
            assert not report.ok
            texts.append(f"{pair[1]} {pair[0]} {name} twin: {report.failure}")
    assert texts == golden


def _pair_and_body(at):
    """All that `certify` may read of an atlas: its pair and its body."""
    return types.SimpleNamespace(a0=at.a0, a1=at.a1, body=at.body)


def test_certify_reads_only_the_pair_and_the_body(atlas):
    # (candidate, verified twin or None): every pair with m <= 3 alone and
    # against its swap, then the corruption corpus as the golden texts run it
    cases = []
    for a0, a1 in itertools.product(range(-3, 4), repeat=2):
        cases += [(atlas(a0, a1), None), (atlas(a0, a1), atlas(a1, a0))]
    for pair in CORPUS_PAIRS:
        at = atlas(*pair)
        for name in sorted(CORRUPTIONS):
            cases += [(CORRUPTIONS[name](at), None), (CORRUPTIONS[name](_mirrored(at)), at)]
    verdicts = []
    for at, twin in cases:
        verdict = certify(at, twin)
        plain = None if twin is None else _pair_and_body(twin)
        assert certify(_pair_and_body(at), plain) == verdict, (at.a0, at.a1, verdict)
        verdicts.append(verdict.ok)
    assert verdicts.count(True) == 2 * 49 and verdicts.count(False) == 2 * 5 * len(CORRUPTIONS)


@pytest.mark.parametrize("pair", CORPUS_PAIRS, ids=str)
def test_verify_judges_the_end_edge_after_every_entry(atlas, pair):
    at = atlas(*pair)
    short = dataclasses.replace(at, body=at.body[:-1])
    last = short.body[-1][0]
    report = verify_atlas(short)
    assert report.failure == f"body ends at {last}, expected upper edge {at.tail.body_range}"
    # a fault in any entry is named first
    report = verify_atlas(_empty_word(short))
    assert report.failure == f"empty cycle on {short.body[0][0]}"


class _ReadOnce(tuple):
    """A body that counts its iterations and refuses to be indexed or sliced."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()

    def __getitem__(self, key):
        raise AssertionError(f"body read at {key!r}")


@pytest.mark.parametrize("pair", CORPUS_PAIRS + ((0, 0),), ids=str)
def test_certify_reads_each_body_once_in_order(atlas, pair):
    twin = atlas(*pair)
    mirror = _mirrored(twin)
    bodies = _ReadOnce(twin.body), _ReadOnce(mirror.body)
    twin = dataclasses.replace(twin, body=bodies[0])
    mirror = dataclasses.replace(mirror, body=bodies[1])
    assert certificate.certify(twin).ok
    assert [body.iterations for body in bodies] == [1, 0]
    assert certificate.certify(mirror, twin).ok
    assert [body.iterations for body in bodies] == [2, 1]
    empty = _ReadOnce()
    report = certificate.certify(dataclasses.replace(twin, body=empty))
    assert (report.failure, empty.iterations) == ("empty body", 1)


@pytest.mark.parametrize("pair", CORPUS_PAIRS, ids=str)
@pytest.mark.parametrize("key", ["lo", "hi"])
def test_reader_rejects_another_pairs_tail_edge(atlas, pair, key):
    # the atlas derives its tail from the pair, so a foreign tail can only
    # come from a file; every tail starts at -2, so a foreign lower edge is
    # another pair's upper one, under a label that stays the pair's
    other = CORPUS_PAIRS[(CORPUS_PAIRS.index(pair) + 1) % len(CORPUS_PAIRS)]
    foreign = str(tail.tail_of(*other).interval.hi)
    data = json.loads(atlas_to_json(atlas(*pair)))
    assert data["tail"][key] != foreign
    data["tail"][key] = foreign
    # the tail's lo and hi are the file's lines 8 and 9
    line = f'    "{key}": "{foreign}",'
    message = f"is not the writer's text: line {8 if key == 'lo' else 9} reads {line!r}"
    message = f"atlas of ({pair[0]},{pair[1]}) {message}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        atlas_from_json(json.dumps(data, indent=2) + "\n")


def _flip_one_closure(at):
    k = _proper_boundary(at.body)
    ival, word = at.body[k]
    return _edit(at, {k: (dataclasses.replace(ival, hi_closed=not ival.hi_closed), word)})


TWIN_MISMATCHES = {
    # (a twin, its mirror) -> (a twin, an atlas that is not its swap image)
    "twin of another pair": lambda twin, mirror: (compute_atlas(twin.a0, twin.a1 + 1), mirror),
    "mirror one entry short": lambda twin, mirror: (
        twin, dataclasses.replace(mirror, body=mirror.body[:-1])
    ),
    "flipped closure of one interval": lambda twin, mirror: (twin, _flip_one_closure(mirror)),
    "word rotated instead of reversed": lambda twin, mirror: (
        twin,
        _edit(mirror, {k: (ival, word[2:] + word[:2]) for k, (ival, word) in enumerate(twin.body)}),
    ),
    "mirror's tail not the twin's": lambda twin, mirror: (twin, _foreign_tail(mirror)),
    "twin's tail not the mirror's": lambda twin, mirror: (_foreign_tail(twin), mirror),
}


@pytest.mark.parametrize("pair", CORPUS_PAIRS, ids=str)
@pytest.mark.parametrize("name", sorted(TWIN_MISMATCHES))
def test_verify_rejects_a_mirror_that_is_not_its_twins_swap(atlas, pair, name):
    twin = atlas(*pair)
    mirror = _mirrored(twin)
    assert verify_atlas(mirror, twin=twin).ok
    bad_twin, bad = TWIN_MISMATCHES[name](twin, mirror)
    assert (bad_twin, bad) != (twin, mirror)
    for probes in (0, 2):
        report = verify_atlas(bad, probes_per_interval=probes, twin=bad_twin)
        assert not report.ok and report.failure


def test_verify_rejects_a_doubled_word_without_probes(atlas, probe_orbits):
    at = atlas(-2, -2)
    # The constraint solve alone accepts the doubled word, whose interval is
    # the word's own; the pair occurring twice in it gives it away.
    k = [str(ival) for ival, _ in at.body].index("(-3/2,-4/3)")
    ival, word = at.body[k]
    bad = _edit(at, {k: (ival, word * 2)})
    assert _solves_to(cycle_bounds(word * 2), ival)
    report = verify_atlas(bad, probes_per_interval=0)
    assert not report.ok and probe_orbits == []
    assert report.failure == "cycle on (-3/2,-4/3) does not hold (-2, -2) at its start only"
    with pytest.raises(ValueError):
        verify_atlas(at, probes_per_interval=-1)


def test_verify_rejects_an_empty_word_read_from_json(atlas):
    data = json.loads(atlas_to_json(compute_atlas(-1, -1)))
    data["body"][3]["cycle"] = []
    data["body"][3]["length"] = 0
    bad = atlas_from_json(json.dumps(data, indent=2) + "\n")
    report = verify_atlas(bad, probes_per_interval=2)
    assert not report.ok and report.failure == f"empty cycle on {bad.body[3][0]}"


# Probe counts recorded before verification moved to integer bounds: the
# same probes run at the same points.
PROBES_RUN = {(-3, -4): (264, 394), (2, 3): (104, 154), (-2, -2): (82, 121)}


@pytest.mark.parametrize("pair", sorted(PROBES_RUN), ids=str)
def test_verify_probe_counts_are_pinned(atlas, probe_orbits, pair):
    runs = []
    for k in (0, 1, 2):
        probe_orbits.clear()
        assert verify_atlas(atlas(*pair), probes_per_interval=k).ok
        runs.append(len(probe_orbits))
    assert tuple(runs) == (0,) + PROBES_RUN[pair]
    probe_orbits.clear()
    assert verify_atlas(atlas(*pair)).ok and probe_orbits == []


@pytest.mark.parametrize(
    "pair, module, name, broken, failure",
    [
        ((-1, -1), tail, "triangular_cycle", lambda good: lambda *args: good(*args) * 2,
         "initial pair not once in tail cycle k=1"),
        ((1, 1), certificate, "cycle_bounds", lambda good: lambda word: None,
         "constant tail cycle does not hold on the tail"),
    ],
    ids=["doubled ramp cycle", "unsolved constant cycle"],
)
def test_verify_checks_the_tail_words_without_probes(
    atlas, monkeypatch, probe_orbits, pair, module, name, broken, failure
):
    monkeypatch.setattr(module, name, broken(getattr(module, name)))
    for probes in (0, 2):
        report = verify_atlas(atlas(*pair), probes_per_interval=probes)
        assert (report.ok, report.failure, len(probe_orbits)) == (False, failure, 0)


@pytest.mark.parametrize("pair", [(-1, -1), (1, 1), (0, 0)], ids=str)
def test_probe_orbits_are_capped_by_their_word(atlas, probe_orbits, pair):
    at = atlas(*pair)
    t = at.tail
    # body entries and the checked tail windows, with the words they carry
    entries = list(at.body) + list(itertools.islice(t.windows(), certificate.TAIL_PIECES))
    for probes in (1, 2):
        probe_orbits.clear()
        assert verify_atlas(at, probes_per_interval=probes).ok and probe_orbits
        for lam, cap in probe_orbits:
            assert {len(word) for ival, word in entries if contains(ival, lam)} == {cap}


@pytest.mark.parametrize("pair", [(-3, -4), (2, 5), (1, 1)], ids=str)
def test_probes_check_the_tail_windows_that_certify_checks(atlas, monkeypatch, probe_orbits, pair):
    at = atlas(*pair)
    t = at.tail
    monkeypatch.setattr(certificate, "TAIL_PIECES", 2)
    solved = []
    solve = certificate.cycle_bounds
    monkeypatch.setattr(certificate, "cycle_bounds", lambda word: solved.append(word) or solve(word))
    windows = list(itertools.islice(t.windows(), 2))
    assert verify_atlas(at, probes_per_interval=1).ok
    # `certify` solves the tail's checked cycles, then the body's words
    assert solved == [cycle for _, cycle in windows] + [word for _, word in at.body]
    tail_probes = [lam for lam, _ in probe_orbits if lam < t.interval.hi]
    assert tail_probes == [window.midpoint() for window, _ in windows]
    assert len(windows) == (1 if t.k_start is None else 2)


def _mutations(word, other):
    """Single edits of a cycle word, packed; ``other`` is another entry's word."""
    word, other, n = tuple(word), tuple(other), len(word)
    out = [word + word, word[::-1], other, word + other]
    out += [word[r:] + word[:r] for r in range(1, n)]
    out += [word[:j] + word[j + 1 :] for j in range(n)]
    out += [word[:j] + (word[j] + delta,) + word[j + 1 :] for j in range(n) for delta in (-1, 1)]
    out += [word[:j] + (value,) + word[j:] for j in range(n + 1) for value in word[:2]]
    return [pack_word(w) for w in out]


@pytest.mark.parametrize("pair", [(0, 0), (1, 1), (-1, -1), (-2, -2), (2, 3), (-2, 3)], ids=str)
def test_is_orbit_is_the_detected_cycle_at_the_probe_points(atlas, pair):
    at = atlas(*pair)
    points = []
    for _, window, cycle in certificate.checked_windows(at.tail):
        # the cycle rotated to start at the pair, which it holds once
        i = next(i for i in range(len(cycle)) if tuple((cycle + cycle)[i : i + 2]) == pair)
        points.append((window.midpoint(), cycle[i:] + cycle[:i]))
    for ival, word in at.body:
        points += [(lam, word) for lam in partition._probe_points(ival, 2)]
    for (lam, word), (_, other) in zip(points, points[1:] + points[:1]):
        assert dynamics.is_orbit(lam, pair, word), (lam, word)
        # doubled, truncated, rotated, one letter changed, and more
        for w in filter(None, [word[:-1]] + _mutations(word, other)):
            detected = detect_cycle(ParamSpec.exact(lam), pair, len(w)).cycle == tuple(w)
            assert dynamics.is_orbit(lam, pair, w) == detected, (lam, w)
    assert dynamics.is_orbit(F(1, 3), (0, 0), (0,))
    assert not dynamics.is_orbit(F(1, 3), (0, 0), (0, 0))


@given(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
)
def test_verdict_without_probes_matches_the_probed_one(atlas, pair, entry, other, pick):
    at = atlas(*pair)
    k = entry % len(at.body)
    ival, word = at.body[k]
    candidates = _mutations(word, at.body[other % len(at.body)][1])
    bad = _edit(at, {k: (ival, candidates[pick % len(candidates)])})
    unprobed = verify_atlas(bad, probes_per_interval=0)
    probed = verify_atlas(bad, probes_per_interval=2)
    assert (unprobed.ok, unprobed.failure) == (probed.ok, probed.failure)


@given(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
)
def test_twin_verdict_matches_the_one_from_scratch(atlas, pair, entry, other, pick):
    twin = atlas(*pair)
    mirror = _mirrored(twin)
    k = entry % len(mirror.body)
    ival, word = mirror.body[k]
    candidates = _mutations(word, mirror.body[other % len(mirror.body)][1])
    bad = _edit(mirror, {k: (ival, candidates[pick % len(candidates)])})
    assert verify_atlas(bad, twin=twin).ok == verify_atlas(bad).ok


rationals = st.integers(1, 12).flatmap(
    lambda q: st.builds(F, st.integers(-2 * q, 2 * q), st.just(q))
)
inner_rationals = rationals.filter(lambda r: -2 < r < 2)


def _detected(lam, start):
    result = detect_cycle(ParamSpec.exact(lam), start, 10**4)
    return result.cycle if result.outcome == "cycle" else (0,)


words = st.one_of(
    st.lists(st.integers(-6, 6), min_size=1, max_size=6).map(tuple),
    st.builds(_detected, inner_rationals, st.tuples(st.integers(-4, 4), st.integers(-4, 4))),
)


def _near(data, ival):
    """``ival``, or ``ival`` with one closure flipped or one endpoint moved."""
    lo, hi, lo_closed, hi_closed = ival.lo, ival.hi, ival.lo_closed, ival.hi_closed
    how = data.draw(st.sampled_from(("same", "lo_closed", "hi_closed", "lo", "hi")))
    delta = data.draw(st.sampled_from((F(-1, 7), F(1, 7), F(1, 1000))))
    if how == "lo_closed":
        lo_closed = not lo_closed
    elif how == "hi_closed":
        hi_closed = not hi_closed
    elif how == "lo":
        lo += delta
    elif how == "hi":
        hi += delta
    return make_interval(lo, lo_closed, hi, hi_closed)


@given(words, st.data())
def test_integer_certificate_matches_the_interval_check(word, data):
    solved = interval_for_cycle(word)
    lo, hi = data.draw(rationals), data.draw(rationals)
    candidates = [make_interval(lo, data.draw(st.booleans()), hi, data.draw(st.booleans()))]
    if solved is not None:
        candidates += [solved, _near(data, solved)]
    for ival in candidates:
        if ival is not None:
            assert _solves_to(cycle_bounds(word), ival) == (solved == ival)


def test_no_first_cycle_reaches_into_the_tail():
    # `march`'s proof, run on every ordered pair with m <= 30: the
    # cycle at the body's lower edge solves to that edge, with its closure.
    for a0, a1 in itertools.product(range(-30, 31), repeat=2):
        edge = tail.tail_of(a0, a1).body_range
        found = dynamics.orbit_bounds(
            edge.lo, not edge.lo_closed, (a0, a1), dynamics.DEFAULT_ORBIT_CAP
        )
        lo_n, lo_d, lo_closed = found[1][:3]
        assert (F(lo_n, lo_d), lo_closed) == (edge.lo, edge.lo_closed), (a0, a1)


def test_round_budget_exhaustion(atlas, monkeypatch):
    full = atlas(-2, -2)  # marched before the budget shrinks
    monkeypatch.setattr(partition, "_interval_budget", lambda a0, a1: 2)
    with pytest.raises(BudgetExceeded) as exc:
        compute_atlas(-2, -2)
    assert exc.value.start == (-2, -2)
    residual = exc.value.residual
    assert residual.hi == 2 and not residual.hi_closed
    assert contains(full.tail.body_range, residual.lo)
    # two intervals were marched; the residual starts where the third does
    third, _ = full.body[2]
    assert (residual.lo, residual.lo_closed) == (third.lo, third.lo_closed)


def test_march_yields_the_atlas_body_entry_for_entry(atlas):
    for a0, a1 in itertools.product(range(-6, 7), repeat=2):
        assert list(partition.march(a0, a1)) == list(atlas(a0, a1).body), (a0, a1)


def test_march_runs_one_orbit_per_entry_read(monkeypatch):
    calls = []
    kernel = partition.orbit_bounds

    def counted(*args):
        calls.append(args[0])
        return kernel(*args)

    monkeypatch.setattr(partition, "orbit_bounds", counted)
    stream = partition.march(-29, -30)
    assert calls == []  # nothing runs before the first entry is read
    ival, _ = next(stream)
    assert calls == [ival.lo]
    next(stream)
    assert len(calls) == 2


def test_march_raises_the_interval_budget_where_the_stream_reaches_it(monkeypatch):
    monkeypatch.setattr(partition, "_interval_budget", lambda a0, a1: 3)
    stream = partition.march(-2, -2)
    entries = list(itertools.islice(stream, 3))
    with pytest.raises(BudgetExceeded) as streamed:
        next(stream)
    with pytest.raises(BudgetExceeded) as collected:
        compute_atlas(-2, -2)
    assert str(streamed.value) == str(collected.value)
    assert str(streamed.value).startswith("march for (-2, -2) exceeded interval budget 3;")
    third, _ = entries[2]
    residual = streamed.value.residual
    assert (residual.lo, residual.lo_closed) == (third.hi, not third.hi_closed)


def _flip_lower_closure(orbit_bounds):
    """A broken kernel: every solved interval starts with the wrong closure."""

    def broken(lam, plus, start, cap):
        word, bounds = orbit_bounds(lam, plus, start, cap)
        return word, bounds[:2] + (not bounds[2],) + bounds[3:]

    return broken


def test_march_rejects_a_misplaced_interval(monkeypatch):
    monkeypatch.setattr(
        rotatlas.partition, "orbit_bounds", _flip_lower_closure(rotatlas.partition.orbit_bounds)
    )
    with pytest.raises(MarchError) as exc:
        compute_atlas(1, 2)
    assert exc.value.start == (1, 2)
    assert exc.value.side in ("exact", "plus_zero")
    assert F(-2) < exc.value.lam < F(2)
    assert "(1, 2)" in str(exc.value) and str(exc.value.lam) in str(exc.value)


@pytest.mark.parametrize(
    "edit",
    [
        lambda b, r, plus: (r.numerator, r.denominator, b[2], r.numerator, r.denominator, False),
        lambda b, r, plus: b[:3] + (r.numerator - r.denominator, r.denominator, b[5]),
        lambda b, r, plus: (b[0] + b[1], b[1] * 2) + b[2:],
        lambda b, r, plus: b if plus else (b[0] - b[1],) + b[1:],
    ],
    ids=["half-open at r", "upper edge below r", "lower edge raised", "lower edge lowered"],
)
def test_march_rejects_an_empty_or_moved_interval(monkeypatch, edit):
    good = partition.orbit_bounds

    def broken(lam, plus, start, cap):
        word, bounds = good(lam, plus, start, cap)
        return word, edit(bounds, lam, plus)

    monkeypatch.setattr(partition, "orbit_bounds", broken)
    with pytest.raises(MarchError) as exc:
        compute_atlas(-2, -2)
    assert exc.value.start == (-2, -2) and exc.value.side == "exact"
    assert len(exc.value.solved) == 6


def test_march_checks_survive_optimized_python():
    script = (
        "import dataclasses\n"
        "from rotatlas import partition\n"
        "print(__debug__, len(partition.compute_atlas(-1, -1).body))\n"
        "good = partition.orbit_bounds\n"
        "def broken(lam, plus, start, cap):\n"
        "    word, (lo_n, lo_d, *rest) = good(lam, plus, start, cap)\n"
        "    return word, (lo_n - lo_d, lo_d, *rest)\n"
        "partition.orbit_bounds = broken\n"
        "try:\n"
        "    partition.compute_atlas(-1, -1)\n"
        "except partition.MarchError as exc:\n"
        "    print(exc.side)\n"
        "partition.orbit_bounds = good\n"
        "at = partition.compute_atlas(-2, -2)\n"
        "k = [str(ival) for ival, _ in at.body].index('(-3/2,-4/3)')\n"
        "body = list(at.body)\n"
        "body[k] = (body[k][0], body[k][1] * 2)\n"
        "bad = dataclasses.replace(at, body=tuple(body))\n"
        "print(partition.verify_atlas(at, probes_per_interval=0).ok)\n"
        "print(partition.verify_atlas(bad, probes_per_interval=0).ok)\n"
        "twin = partition.compute_atlas(-2, 1)\n"
        "mirror = partition._mirrored(twin)\n"
        "(i1, w1), (i2, w2) = mirror.body[0], mirror.body[-1]\n"
        "swapped = ((i1, w2),) + mirror.body[1:-1] + ((i2, w1),)\n"
        "bad = dataclasses.replace(mirror, body=swapped)\n"
        "print(partition.verify_atlas(twin, probes_per_interval=0).ok)\n"
        "print(partition.verify_atlas(bad, probes_per_interval=0, twin=twin).ok)\n"
    )
    src = os.path.dirname(os.path.dirname(rotatlas.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert done.stdout.split() == [
        "False", "22", "exact", "True", "False", "True", "False"
    ]


def _json_m4_golden():
    with open(os.path.join(GOLDENS, "atlas_json_m4.sha256")) as fh:
        return [line.strip() for line in fh if line.strip() and not line.startswith("#")]


def test_march_reproduces_the_midpoint_refinement_json(atlas):
    digest = hashlib.sha256()
    for a0 in range(-4, 5):
        for a1 in range(-4, 5):
            digest.update(atlas_to_json(atlas(a0, a1)).encode())
    assert [digest.hexdigest()] == _json_m4_golden()


def test_default_interval_budget_scales_with_the_shell(monkeypatch):
    budget = partition._interval_budget
    assert budget(0, 0) == budget(-14, 14) == 10**4
    assert budget(15, -3) == budget(-3, -15) == 50 * 15 * 15
    # (-29,-30) has 13,568 intervals, past the old fixed 10**4
    assert budget(-29, -30) == 45_000
    # the march reads the budget, and exhausting it names it and the residual
    monkeypatch.setattr(partition, "_interval_budget", lambda a0, a1: 3)
    with pytest.raises(BudgetExceeded) as exc:
        compute_atlas(-2, -2)
    assert exc.value.reason == "interval budget 3"
    assert exc.value.residual.hi == 2 and not exc.value.residual.hi_closed


def test_orbit_cap_exhaustion(monkeypatch):
    monkeypatch.setattr(partition, "DEFAULT_ORBIT_CAP", 10)
    with pytest.raises(BudgetExceeded) as exc:
        compute_atlas(-1, -1)
    residual = exc.value.residual
    assert exc.value.start == (-1, -1)
    assert exc.value.reason == f"orbit step cap 10 at {residual.lo}"
    assert F(-2) < residual.lo < F(2)
    assert residual.hi == 2 and not residual.hi_closed
    # the residual starts at the parameter whose orbit stayed open
    assert partition.orbit_bounds(residual.lo, not residual.lo_closed, (-1, -1), 10) is None


def test_total_step_budget_exhaustion(atlas, monkeypatch):
    full = atlas(-2, -2)  # marched before the budget shrinks
    monkeypatch.setattr(partition, "TOTAL_STEP_BUDGET", 50)
    with pytest.raises(BudgetExceeded) as exc:
        compute_atlas(-2, -2)
    assert exc.value.start == (-2, -2)
    assert exc.value.reason == "total step budget 50"
    residual = exc.value.residual
    assert residual.hi == 2 and not residual.hi_closed
    # each march orbit runs one word's length; the residual starts at the
    # interval whose orbit took the total past 50
    totals = itertools.accumulate(len(word) for _, word in full.body)
    k = next(i for i, total in enumerate(totals) if total > 50)
    ival, _ = full.body[k]
    assert (residual.lo, residual.lo_closed) == (ival.lo, ival.lo_closed)


@pytest.mark.parametrize("side", ["exact", "plus_zero"])
def test_march_reports_a_set_reaching_below_r_with_its_cycle_bounds(monkeypatch, side):
    # A kernel that leaves every set on one side unsolved, as it does one
    # that reaches below r: the error carries the word's own bounds.
    good, words = partition.orbit_bounds, []

    def unsolved(lam, plus, start, cap):
        word, bounds = good(lam, plus, start, cap)
        words.append(word)
        return word, None if plus == (side == "plus_zero") else bounds

    monkeypatch.setattr(partition, "orbit_bounds", unsolved)
    with pytest.raises(MarchError) as exc:
        compute_atlas(-2, -2)
    assert exc.value.side == side and exc.value.solved == cycle_bounds(words[-1])
    text = r"solved bounds \(.*\), which do not start (closed|open) there"
    assert re.search(text, str(exc.value))
    copy = pickle.loads(pickle.dumps(exc.value))
    assert str(copy) == str(exc.value) and vars(copy) == vars(exc.value)


def test_march_failures_survive_pickling():
    residual = Interval(F(-3, 2), F(2), False, False)
    march = MarchError((1, 2), F(-1, 3), "plus_zero", (-1, 3, False, 0, 1, True))
    for exc in (BudgetExceeded("interval budget 7", (-2, -2), residual), march):
        copy = pickle.loads(pickle.dumps(exc))
        assert type(copy) is type(exc) and str(copy) == str(exc)
        assert vars(copy) == vars(exc) and copy.args == exc.args


FORCED_BUDGETS = {
    "interval": ("_interval_budget", lambda a0, a1: 2),
    "orbit-cap": ("DEFAULT_ORBIT_CAP", 10),
    "total-steps": ("TOTAL_STEP_BUDGET", 50),
}


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pool workers must inherit the patched budget",
)
@pytest.mark.parametrize("budget", FORCED_BUDGETS)
def test_budget_failure_crosses_the_process_pool(monkeypatch, budget):
    monkeypatch.setattr(partition, *FORCED_BUDGETS[budget])
    with pytest.raises(BudgetExceeded) as serial:
        sweep(2, jobs=1)
    with pytest.raises(BudgetExceeded) as pooled:
        sweep(2, jobs=2)
    assert str(pooled.value) == str(serial.value)
    assert vars(pooled.value) == vars(serial.value)
    residual = pooled.value.residual
    assert residual.hi == 2 and not residual.hi_closed
    assert pooled.value.start == (-2, -2)


def _inline_pool(monkeypatch, started):
    """Stand in for `ProcessPoolExecutor` in-process; return its sizes, runs and exits.

    The runs are the pairs it ran, and each exit is recorded as the count
    of futures still pending then, which a real pool would run first.
    The first ``started`` futures submitted run at once, as if a worker
    had taken them, so they can no longer be cancelled; the rest stay
    pending.
    """
    sizes, ran, exits = [], [], []

    class InlineFuture(concurrent.futures.Future):
        def result(self, timeout=None):
            # nothing runs a pending future later, so waiting on one would hang
            return super().result(timeout=0)

    class InlineExecutor:
        def __init__(self, max_workers):
            sizes.append(max_workers)
            self.futures = []

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            exits.append(sum(not future.done() for future in self.futures))
            return False

        def submit(self, fn, args):
            future = InlineFuture()
            if len(self.futures) < started:
                future.set_running_or_notify_cancel()
                ran.append(args[:2])
                try:
                    future.set_result(fn(args))
                except Exception as exc:
                    future.set_exception(exc)
            self.futures.append(future)
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
    return sizes, ran, exits


@pytest.fixture
def marches(monkeypatch):
    """The pairs `partition.compute_atlas` is called with from now on, in call order."""
    calls = []
    compute = partition.compute_atlas

    def recorded(a0, a1):
        calls.append((a0, a1))
        return compute(a0, a1)

    monkeypatch.setattr(partition, "compute_atlas", recorded)
    return calls


def test_sweep_starts_no_more_workers_than_pairs(monkeypatch):
    sizes, _, exits = _inline_pool(monkeypatch, started=10**6)
    # max_m 1 has 6 unordered pairs, max_m 2 has 15; the caller marches too,
    # so a pool gets jobs - 1 workers, never more than the pairs minus one
    assert sweep(1, jobs=500) == sweep(1, jobs=1)
    sweep(2, jobs=2)
    sweep(2, jobs=15)
    sweep(2, jobs=16)
    assert sizes == [5, 1, 14, 14]
    assert exits == [0] * 4


def test_sweep_caller_marches_every_pair_when_no_worker_starts(monkeypatch, marches):
    _, ran, _ = _inline_pool(monkeypatch, started=0)
    pooled = sweep(2, jobs=2)
    assert ran == []
    pairs = [(a0, a1) for a0 in range(-2, 3) for a1 in range(a0, 3)]
    # from the back of the grid, one pair at a time
    assert marches == pairs[::-1]
    assert pooled == sweep(2, jobs=1)


def test_sweep_caller_marches_no_pair_a_worker_holds(monkeypatch, marches):
    _, ran, _ = _inline_pool(monkeypatch, started=10**6)
    assert sweep(2, jobs=2) == sweep(2, jobs=1)
    assert len(ran) == 15
    # the pool ran all 15 pairs, then the serial sweep marched them again
    assert marches == ran + ran


def test_sweep_raises_the_first_failure_in_grid_order(monkeypatch):
    residual = Interval(F(1), F(2), True, False)
    early = BudgetExceeded("interval budget 7", (-2, -1), residual)
    late = MarchError((2, 2), F(1), "exact", (1, 1, True, 0, 1, True))
    raised = []
    compute = partition.compute_atlas

    def failing(a0, a1):
        for exc in (early, late):
            if exc.start == (a0, a1):
                raised.append(exc.start)
                raise exc
        return compute(a0, a1)

    monkeypatch.setattr(partition, "compute_atlas", failing)
    with pytest.raises(BudgetExceeded) as serial:
        sweep(2, jobs=1)
    assert raised == [(-2, -1)]
    # a worker holds the first three pairs; the caller marches the rest
    # from (2, 2) down and meets its MarchError before the worker's failure
    _, ran, _ = _inline_pool(monkeypatch, started=3)
    with pytest.raises(BudgetExceeded) as pooled:
        sweep(2, jobs=2)
    assert ran == [(-2, -2), (-2, -1), (-2, 0)]
    assert raised == [(-2, -1), (-2, -1), (2, 2)]
    assert str(pooled.value) == str(serial.value)


@pytest.mark.parametrize("failing", [(2, 2), (-2, -1)], ids=["caller", "worker"])
def test_sweep_cancels_the_pool_on_an_uncollected_error(monkeypatch, failing):
    # A worker holds the first three pairs and the caller marches from the
    # back: an OSError in either propagates, and the pool's exit finds no
    # pair still queued.  A worker's error is read only once the caller has
    # met the worker, so no pair is queued then anyway.
    compute = partition.compute_atlas

    def broken(a0, a1):
        if (a0, a1) == failing:
            raise OSError(f"cannot write {failing}")
        return compute(a0, a1)

    monkeypatch.setattr(partition, "compute_atlas", broken)
    _, ran, exits = _inline_pool(monkeypatch, started=3)
    with pytest.raises(OSError, match=re.escape(str(failing))):
        sweep(2, jobs=2)
    assert ran == [(-2, -2), (-2, -1), (-2, 0)]
    assert exits == [0]


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pool workers must inherit the wrapped march",
)
def test_sweep_marches_in_the_caller_and_its_worker(monkeypatch, tmp_path):
    log = tmp_path / "marches"
    compute = partition.compute_atlas

    def logged(a0, a1):
        with open(log, "a") as fh:
            fh.write(f"{a0} {a1} {os.getpid()}\n")
        return compute(a0, a1)

    monkeypatch.setattr(partition, "compute_atlas", logged)
    assert sweep(3, jobs=2).all_verified
    rows = [line.split() for line in log.read_text().splitlines()]
    pairs = sorted((int(a0), int(a1)) for a0, a1, _ in rows)
    assert pairs == [(a0, a1) for a0 in range(-3, 4) for a1 in range(a0, 4)]
    pids = {int(pid) for _, _, pid in rows}
    assert len(pids) == 2 and os.getpid() in pids


def test_summary_statistics(atlas):
    at = atlas(-1, -1)
    summary = summarize_atlas(at, verify_atlas(at))
    assert (summary.intervals, summary.singletons) == (22, 11)
    assert summary.max_len == 38 and summary.max_len_interval == "[8/5]"
    assert summary.shell == 1 and summary.verified
    assert summary.avg_len == F(summary.total_len, 22)


def _oracle_table(at):
    """The table statistics of ``at`` from its body intersected with its `table_range`."""
    entries = [(intersect(ival, at.tail.table_range), word) for ival, word in at.body]
    entries = [(ival, word) for ival, word in entries if ival is not None]
    longest, _ = max(entries, key=lambda entry: len(entry[1]))
    singletons = sum(1 for ival, _ in entries if ival.is_singleton)
    return len(entries), singletons, str(longest), sum(len(word) for _, word in entries)


def _table(summary):
    return summary.intervals, summary.singletons, summary.max_len_interval, summary.total_len


def test_summary_cuts_every_deferred_pair_as_the_intersection_does(atlas):
    grid = [(a0, a1) for a0 in range(-8, 9) for a1 in range(-8, 9)]
    tails = {pair: tail.tail_of(*pair) for pair in grid}
    cut = [pair for pair, t in tails.items() if t.table_range != t.body_range]
    assert len(cut) == 16
    verdict = VerificationReport()
    for pair in cut:
        at = atlas(*pair)
        assert _table(summarize_atlas(at, verdict)) == _oracle_table(at)
    summary = summarize_atlas(atlas(5, 7), verdict)
    assert (summary.intervals, summary.singletons) == (524, 208)


# bodies over [-3/2,2), which the tail of (2, 3) cuts at -1; "*" marks the longest word
@pytest.mark.parametrize(
    "body, table",
    [
        # dropped whole, dropped open at the cut, kept from the cut
        (["[-3/2,-4/3)", "[-4/3,-1)", "[-1,2)*"], (1, 0, "[-1,2)")),
        # closed at the cut: clipped to the singleton
        (["[-3/2,-4/3)", "[-4/3,-1]*", "(-1,2)"], (2, 1, "[-1]")),
        # starting open at the cut: kept as it is
        (["[-3/2,-4/3)", "[-4/3,-1]", "(-1,2)*"], (2, 1, "(-1,2)")),
        # straddling the cut: clipped to start there, closed
        (["[-3/2,-4/3]", "(-4/3,0)*", "[0,2)"], (2, 0, "[-1,0)")),
        (["[-3/2,-4/3]", "(-4/3,2)*"], (1, 0, "[-1,2)")),
    ],
)
def test_summary_cuts_each_kind_of_entry_as_the_intersection_does(atlas, body, table):
    words = [(1,) * (3 if text.endswith("*") else 2) for text in body]
    entries = tuple((parse_interval(text.rstrip("*")), word) for text, word in zip(body, words))
    at = dataclasses.replace(atlas(2, 3), body=entries)
    summary = summarize_atlas(at, VerificationReport())
    assert _table(summary) == _oracle_table(at)
    assert _table(summary)[:3] == table


def test_sweep_shell_aggregates():
    rep = sweep(1)
    assert rep.all_verified
    assert len(rep.points) == 9
    row = rep.shell_stats(1)
    card, longest = row.card, row.longest
    assert (card.a0, card.a1, card.intervals, card.singletons) == (-1, -1, 22, 11)
    assert (longest.a0, longest.a1, longest.max_len, longest.max_len_interval) == (
        -1, -1, 38, "[8/5]"
    )
    assert abs(float(row.avg_len_pooled) - 9.8172) < 5e-5


def test_shell_rows_are_the_summaries_they_pick():
    fields = [f.name for f in dataclasses.fields(ShellStats)]
    assert fields == ["m", "card", "longest", "avg_len_pooled"]
    rep = sweep(2)
    for m in (1, 2):
        row = rep.shell_stats(m)
        shell = [p for p in rep.points if p.shell == m]
        assert any(row.card is p for p in shell) and any(row.longest is p for p in shell)


def test_sweep_parallel_matches_serial():
    assert sweep(1, jobs=2) == sweep(1)


def test_sweep_rejects_bad_m():
    with pytest.raises(ValueError):
        sweep(0)


@pytest.mark.parametrize("jobs", [0, -2])
def test_sweep_rejects_fewer_than_one_job(jobs):
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        sweep(1, jobs=jobs)


def test_mirror_is_the_marched_swapped_pair(atlas):
    for a0 in range(-4, 5):
        for a1 in range(-4, 5):
            assert _mirrored(atlas(a0, a1)) == atlas(a1, a0)


def test_an_atlas_stores_its_pair_and_body_only():
    assert [f.name for f in dataclasses.fields(PartitionAtlas)] == ["a0", "a1", "body"]


def test_every_atlas_derives_its_pairs_tail(atlas):
    for a0 in range(-4, 5):
        for a1 in range(-4, 5):
            marched = atlas(a0, a1)
            read = atlas_from_json(atlas_to_json(marched))
            for at in (marched, _mirrored(atlas(a1, a0)), read):
                assert (at.a0, at.a1, at.tail) == (a0, a1, tail.tail_of(a0, a1))


def test_an_atlas_derives_its_tail_once(atlas, monkeypatch):
    # (2, 3) has a table range narrower than its body range; the bodies are
    # taken before the spy, so no march of the session cache is counted
    bodies = {pair: atlas(*pair).body for pair in ((2, 3), (0, 0), (1, 1))}
    calls = []
    derive = tail.label_of
    monkeypatch.setattr(tail, "label_of", lambda *pair: calls.append(pair) or derive(*pair))
    for pair, body in bodies.items():
        at = PartitionAtlas(*pair, body)
        mirror = _mirrored(at)
        for _ in range(3):
            for each in (at, mirror):
                assert each.tail and each.tail.body_range and each.tail.table_range
        assert calls == [pair, pair[::-1]]
        calls.clear()
    # a sweep derives a marched pair's tail in the march, the certificate and
    # the summary's table range, and the mirror's in its certificate only
    sweep(2)
    expected = {(a0, a1): 3 if a0 <= a1 else 1 for a0 in range(-2, 3) for a1 in range(-2, 3)}
    assert {pair: calls.count(pair) for pair in set(calls)} == expected


def test_march_and_mirror_share_their_interval_objects(atlas):
    # the certificate's tiling and twin checks take their `is` path on these
    for a0 in range(-4, 5):
        for a1 in range(-4, 5):
            body = atlas(a0, a1).body
            assert all(cur.hi is nxt.lo for (cur, _), (nxt, _) in zip(body, body[1:]))
            mirror = _mirrored(atlas(a0, a1)).body
            assert all(ival is twin for (ival, _), (twin, _) in zip(mirror, body, strict=True))


def test_words_take_two_bytes_a_letter():
    marched = compute_atlas(-9, -10)
    empty = sys.getsizeof(array("h"))
    for at in (marched, _mirrored(marched), atlas_from_json(atlas_to_json(marched))):
        words = [word for _, word in at.body]
        assert {type(word) for word in words} == {array}
        assert {word.typecode for word in words} == {"h"}
        # each buffer is allocated to its letters, with no spare room
        letters = sum(map(len, words))
        assert sum(sys.getsizeof(word) - empty for word in words) == 2 * letters == 764_192


def test_a_wide_word_mirrors_and_passes_the_twin_check():
    # the twin check reads the word, and its tail cycles, as 8-byte letters
    word, _ = dynamics.orbit_bounds(F(0), False, (40000, 0))
    twin = PartitionAtlas(40000, 0, ((parse_interval("[0]"), word),))
    mirror = _mirrored(twin)
    (_, mirrored), = mirror.body
    assert mirrored.typecode == "q" and tuple(mirrored) == (0, 40000, 0, -40000)
    assert verify_atlas(mirror, twin=twin).ok
    rotated = _edit(mirror, {0: (parse_interval("[0]"), mirrored[2:] + mirrored[:2])})
    assert verify_atlas(rotated, twin=twin).failure == (
        "cycle on [0] is not its twin's cycle reversed"
    )


def test_sweep_verifies_the_mirrored_pairs(monkeypatch):
    broken_mirrors = {
        "_mirrored": lambda at: dataclasses.replace(at, a0=at.a1, a1=at.a0),  # words unreversed
        "_mirror_word": lambda word: word[::-1],  # reversed, but not rotated to the pair
    }
    # only the mirrored pairs (a0 > a1) can go wrong
    mirrored = {(a0, a1) for a0 in range(-2, 3) for a1 in range(-2, 3) if a0 > a1}
    for name, broken in broken_mirrors.items():
        with monkeypatch.context() as patched:
            patched.setattr(partition, name, broken)
            failed = {(p.a0, p.a1) for p in sweep(2).failures()}
        assert failed == mirrored, name


def test_verdicts_and_summaries_store_no_derived_field():
    assert [f.name for f in dataclasses.fields(VerificationReport)] == ["failure"]
    assert VerificationReport().ok and not VerificationReport("a fault").ok
    fields = [f.name for f in dataclasses.fields(PointSummary)]
    assert fields == [
        "a0", "a1", "intervals", "singletons", "max_len", "max_len_interval", "total_len",
        "failure",
    ]


# max(|a0|, |a1|) over the grid of sweep(2), a0 down the rows, a1 across
SHELLS_M2 = """
2 2 2 2 2
2 1 1 1 2
2 1 0 1 2
2 1 1 1 2
2 2 2 2 2
"""


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_summaries_derive_their_shell_and_verdict(jobs):
    points = sweep(2, jobs=jobs).points
    assert [p.shell for p in points] == [int(m) for m in SHELLS_M2.split()]
    assert all(p.verified and p.failure is None for p in points)


def test_sweep_checks_a_mirror_from_scratch_when_its_twin_fails(monkeypatch):
    compute = partition.compute_atlas
    bad = _swap_words(compute(-1, 2))
    mirror = _mirrored(bad)
    monkeypatch.setattr(
        partition, "compute_atlas", lambda a0, a1: bad if (a0, a1) == (-1, 2) else compute(a0, a1)
    )
    failures = {(p.a0, p.a1): p.failure for p in sweep(2).failures()}
    # the mirror is the failed twin's exact swap image, so only its own
    # certificate fails it, and the failure names the mirror's first fault
    assert verify_atlas(mirror, twin=bad).ok
    assert failures == {(-1, 2): verify_atlas(bad).failure, (2, -1): verify_atlas(mirror).failure}


def test_mirror_summary_is_the_twins_with_the_pair_swapped(atlas):
    verdict = VerificationReport()
    for a0 in range(-4, 5):
        for a1 in range(-4, 5):
            at = atlas(a0, a1)
            twin = summarize_atlas(at, verdict)
            swapped = dataclasses.replace(twin, a0=a1, a1=a0)
            assert summarize_atlas(_mirrored(at), verdict) == swapped


def test_sweep_files_reproduce_the_json_golden(tmp_path):
    sweep(4, jobs=2, out_dir=str(tmp_path))
    digest = hashlib.sha256()
    for a0 in range(-4, 5):
        for a1 in range(-4, 5):
            digest.update((tmp_path / f"atlas_{a0}_{a1}.json").read_bytes())
    assert [digest.hexdigest()] == _json_m4_golden()
    assert not [name for name in os.listdir(tmp_path) if not name.endswith(".json")]


def test_sweep_marches_each_unordered_pair_once(monkeypatch, probe_orbits):
    marched, calls = [], []
    compute, verify = partition.compute_atlas, partition.verify_atlas

    def counted_compute(a0, a1, *args, **kwargs):
        marched.append((a0, a1))
        return compute(a0, a1, *args, **kwargs)

    def counted_verify(*args, **kwargs):
        calls.append((args, kwargs))
        return verify(*args, **kwargs)

    monkeypatch.setattr(partition, "compute_atlas", counted_compute)
    monkeypatch.setattr(partition, "verify_atlas", counted_verify)
    assert sweep(3).all_verified
    assert len(marched) == 28 and all(a0 <= a1 for a0, a1 in marched)
    # one call per ordered pair, the atlas passed first and positionally
    assert all(len(args) == 1 and isinstance(args[0], PartitionAtlas) for args, _ in calls)
    verified = [(args[0].a0, args[0].a1) for args, _ in calls]
    grid = [(a0, a1) for a0 in range(-3, 4) for a1 in range(-3, 4)]
    assert len(verified) == 49 and sorted(verified) == grid
    # exactly the mirrored pairs are checked against their marched twin
    twins = {
        (args[0].a0, args[0].a1): (kwargs["twin"].a0, kwargs["twin"].a1)
        for args, kwargs in calls
        if kwargs.get("twin") is not None
    }
    assert twins == {(a0, a1): (a1, a0) for a0, a1 in grid if a0 > a1}
    assert probe_orbits == []


def test_sweep_solves_each_marched_word_once(monkeypatch):
    solved = []
    solve = certificate.cycle_bounds

    def counted_solve(word):
        solved.append(word)
        return solve(word)

    monkeypatch.setattr(certificate, "cycle_bounds", counted_solve)
    assert sweep(3).all_verified
    marched = [
        word
        for a0 in range(-3, 4)
        for a1 in range(a0, 4)
        for _, word in compute_atlas(a0, a1).body
    ]
    # the tail windows are solved too, once per marched pair: the mirror's
    # windows are its twin's
    tails = []
    for a0 in range(-3, 4):
        for a1 in range(a0, 4):
            t = tail.tail_of(a0, a1)
            tails += [word for _, word in itertools.islice(t.windows(), certificate.TAIL_PIECES)]
    assert sorted(solved) == sorted(marched + tails)
