import dataclasses
from fractions import Fraction as F

import pytest

from rotatlas import (
    Interval,
    Label,
    TailDescription,
    interval_for_cycle,
    label_of,
    tail_of,
    triangular,
    triangular_cycle,
    z_interval,
)
from rotatlas import tail
from rotatlas.partition import PartitionAtlas
from rotatlas.tail import _ramp_index_closed_form
from reference import occurrence_index


def ramp_index_scan(t, m):
    # min{l >= 0 : m + l*t + T_l >= 0}; ground truth by definition.
    r = 0
    while m + r * t + triangular(r) < 0:
        r += 1
    return r


def adjacent(word, a0, a1):
    n = len(word)
    return any(word[i] == a0 and word[(i + 1) % n] == a1 for i in range(n))


def test_triangular():
    assert [triangular(n) for n in (0, 1, 2, 3, 4)] == [0, 1, 3, 6, 10]
    with pytest.raises(ValueError):
        triangular(-1)


def test_label_examples():
    cases = {
        (0, 1): (0, 1, 1),
        (-1, -1): (0, 1, 1),
        (-2, -2): (1, 2, 1),
        (2, 0): (0, 2, 2),
        (3, 3): (3, 0, None),
        (-1, 1): (1, 2, 1),
        (1, -2): (1, 3, 2),
    }
    for pair, (s, d, K) in cases.items():
        label = label_of(*pair)
        assert (label, label.K) == (Label(s, d), K), pair


def test_label_is_its_class_alone():
    # K is derived from (s, d), so a label cannot disagree with it
    assert [f.name for f in dataclasses.fields(Label)] == ["s", "d"]


def test_tail_stores_its_label_and_first_window_alone():
    # the interval is derived from them, so a tail cannot disagree with it
    assert [f.name for f in dataclasses.fields(TailDescription)] == ["label", "k_start"]


def test_label_range_property():
    for a0 in range(-30, 31):
        for a1 in range(-30, 31):
            label = label_of(a0, a1)
            if label.d > 0:
                assert 0 <= label.s < label.d
                assert label.K >= 1
                assert label.s + label.K * label.d >= triangular(label.d)
                assert label.s + (label.K - 1) * label.d < triangular(label.d)
            else:
                assert a0 == a1 == label.s >= 0


def test_case_six_minimality():
    for a0 in range(-25, 0):
        for a1 in range(-25, 0):
            label = label_of(a0, a1)
            t, m = abs(a0 - a1), max(a0, a1)
            r = label.d - t
            assert m + r * t + triangular(r) == label.s >= 0
            assert m + (r - 1) * t + triangular(r - 1) < 0


def test_ramp_index_closed_form_matches_scan():
    for t in range(0, 30):
        for m in range(-60, 0):
            assert ramp_index_scan(t, m) == _ramp_index_closed_form(t, m)


def test_triangular_cycle_examples():
    assert triangular_cycle(0, 1, 1) == (0, 1, 2, 2, 1, 0, -1, -1)
    assert triangular_cycle(1, 2, 1) == (1, 3, 5, 6, 6, 5, 3, 1, -1, -2, -2, -1)
    assert triangular_cycle(0, 1, 2) == (0, 1, 2, 3, 3, 2, 1, 0, -1, -1)


def test_triangular_cycle_length_and_validation():
    for s, d, k in ((0, 1, 3), (2, 5, 2), (0, 4, 7)):
        assert len(triangular_cycle(s, d, k)) == 2 * (k + 1) + 4 * d
    with pytest.raises(ValueError):
        triangular_cycle(1, 1, 1)  # s >= d
    with pytest.raises(ValueError):
        triangular_cycle(0, 0, 1)
    with pytest.raises(ValueError):
        triangular_cycle(0, 1, 0)


def test_z_interval_examples():
    assert str(z_interval(0, 1, 1)) == "[-3/2,-1)"
    assert str(z_interval(1, 2, 1)) == "[-9/5,-5/3)"
    assert str(z_interval(0, 1, 2)) == "[-5/3,-3/2)"
    with pytest.raises(ValueError):
        z_interval(0, 3, 1)  # k below (T_d - s)/d
    # K is the least k with k*d >= T_d - s, and the windows start there
    for s, d in ((0, 1), (1, 2), (0, 3), (2, 5), (4, 5)):
        k = Label(s, d).K
        assert (k - 1) * d < triangular(d) - s <= k * d
        assert z_interval(s, d, k).hi == Label(s, d).edge(k)
        text = rf"^need d > 0 and k >= \(T_d - s\)/d, got s={s} d={d} k={k - 1}$"
        with pytest.raises(ValueError, match=text):
            z_interval(s, d, k - 1)


def test_window_is_exactly_the_cycles_parameter_interval():
    for d in range(1, 5):
        for s in range(d):
            k_least = -((s - triangular(d)) // d)
            for k in range(k_least, k_least + 4):
                assert interval_for_cycle(triangular_cycle(s, d, k)) == z_interval(s, d, k)


def test_windows_tile_without_gaps():
    for s, d in ((0, 1), (1, 2), (2, 5)):
        k_least = -((s - triangular(d)) // d)
        prev = z_interval(s, d, k_least)
        for k in range(k_least + 1, k_least + 12):
            cur = z_interval(s, d, k)
            assert cur.hi == prev.lo
            assert not cur.hi_closed and prev.lo_closed
            prev = cur


def test_occurrence_index():
    assert occurrence_index(0, 1) == 1
    assert occurrence_index(1, 2) == 1
    assert occurrence_index(2, 3) == 2
    assert occurrence_index(10, 9) == 9
    assert occurrence_index(-3, -4) == 1
    with pytest.raises(ValueError):
        occurrence_index(2, 2)


def test_tail_classifies_its_pair_once(monkeypatch):
    calls = []
    classify = tail.label_of

    def counted(a0, a1):
        calls.append((a0, a1))
        return classify(a0, a1)

    monkeypatch.setattr(tail, "label_of", counted)
    for a0 in range(-6, 7):
        for a1 in range(-6, 7):
            calls.clear()
            tail_of(a0, a1)
            assert calls == [(a0, a1)]


def _reached_tails(m):
    """Every pair with max(|a0|, |a1|) <= m, with its tail."""
    return {(a0, a1): tail_of(a0, a1) for a0 in range(-m, m + 1) for a1 in range(-m, m + 1)}


def test_window_edges_are_the_closed_form_over_fifty_windows():
    for t in set(_reached_tails(10).values()):
        label = t.label
        s, d = label.s, label.d
        if d == 0:
            continue
        for k in range(t.k_start, t.k_start + 51):
            assert label.edge(k) == F(-2) + F(1, s + k * d)
            expected = Interval(label.edge(k + 1), label.edge(k), True, False)
            assert z_interval(s, d, k) == expected, (label, k)


def test_every_tail_and_table_range_starts_at_its_edge():
    for pair, t in _reached_tails(10).items():
        label = t.label
        s, d = label.s, label.d
        if d > 0:
            assert t.interval == Interval.open(F(-2), label.edge(t.k_start)), pair
            assert PartitionAtlas(*pair, ()).table_range.lo == label.edge(label.K), pair
        elif s > 0:
            assert t.interval == Interval.open(F(-2), F(-2) + F(1, s)), pair
        else:
            assert t.interval == Interval.open(F(-2), F(2)), pair


def test_pair_occurs_from_its_start_index_on():
    for a0 in range(-12, 13):
        for a1 in range(-12, 13):
            label = label_of(a0, a1)
            if label.d == 0:
                continue
            k0 = tail_of(a0, a1).k_start
            for k in (k0, k0 + 1, k0 + 5):
                assert adjacent(triangular_cycle(label.s, label.d, k), a0, a1), (a0, a1, k)
            if k0 > max(label.K, 1):
                assert not adjacent(
                    triangular_cycle(label.s, label.d, k0 - 1), a0, a1
                ), (a0, a1)


def test_tail_of_constant_cases():
    t = tail_of(0, 0)
    assert str(t.interval) == "(-2,2)" and t.k_start is None
    assert t.pieces_through(99) == [(t.interval, (0,))]
    t = tail_of(1, 1)
    assert str(t.interval) == "(-2,-1)"
    assert t.pieces_through(0) == [(t.interval, (1,))]


def test_tail_of_window_cases():
    t = tail_of(-1, -1)
    assert str(t.interval) == "(-2,-1)" and t.k_start == 1
    pieces = t.pieces_through(2)
    assert pieces[0] == (z_interval(0, 1, 1), triangular_cycle(0, 1, 1))
    assert pieces[1][0] == Interval(F(-5, 3), F(-3, 2), True, False)
    # deferred-occurrence pair: tail starts later, windows below go to the body
    t = tail_of(2, 3)
    assert t.k_start == 2 and str(t.interval) == "(-2,-3/2)"


def test_label_validation():
    with pytest.raises(ValueError):
        Label(2, 2)
    with pytest.raises(ValueError):
        Label(-1, 0)


def test_label_text_and_its_error_text():
    texts = [str(Label(1, 2)), str(Label(0, 1)), str(Label(3, 0))]
    assert texts == ["s=1 d=2 K=1", "s=0 d=1 K=1", "s=3 d=0"]
    with pytest.raises(ValueError, match=r"s < d when d > 0: Label\(s=2, d=2\)$"):
        Label(2, 2)


def test_tail_is_swap_symmetric():
    for a0 in range(-20, 21):
        for a1 in range(-20, 21):
            assert tail_of(a0, a1) == tail_of(a1, a0)
