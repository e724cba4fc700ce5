"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All arithmetic is exact, so comparisons are equalities unless a tolerance is
stated.  The long checks (first-table rows for m = 6..10, the full
re-verification up to m = 10 and the per-pair atlas digests up to m = 10)
form the extended suite; enable them with ROTATLAS_EXTENDED=1.  Run with -s to see the per-criterion lines.
"""

import hashlib
import os
import random
from contextlib import contextmanager
from fractions import Fraction as F

import pytest

from rotatlas import (
    ParamSpec,
    compute_atlas,
    detect_cycle,
    interval_for_cycle,
    sweep,
    triangular,
    triangular_cycle,
    z_interval,
)
from rotatlas.report import atlas_to_json, render_endpoint_listing
from reference import contains, step, step_inverse
from words import is_cyclic_palindrome, rotation_equal

EXTENDED = os.environ.get("ROTATLAS_EXTENDED") == "1"
extended = pytest.mark.skipif(
    not EXTENDED, reason="extended suite; set ROTATLAS_EXTENDED=1"
)

CARDINALITY_TABLE = {
    1: ((-1, -1), 22, 11),
    2: ((-2, -2), 59, 20),
    3: ((-3, -3), 135, 52),
    4: ((-3, -4), 222, 92),
    5: ((-4, -5), 369, 147),
    6: ((-5, -6), 520, 209),
    7: ((-6, -7), 674, 260),
    8: ((-7, -8), 956, 388),
    9: ((-8, -9), 1143, 442),
    10: ((-9, -10), 1409, 554),
}

LENGTH_TABLE = {
    1: ((-1, -1), "[8/5]", 38, 9.8172),
    2: ((2, 2), "[25/13]", 123, 21.5067),
    3: ((3, 3), "[11/6]", 253, 33.9038),
}


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE FAIL: {name}")
        raise
    print(f"ACCEPTANCE PASS: {name}")


@pytest.fixture(scope="session")
def sweep5():
    return sweep(5)


@pytest.fixture(scope="session")
def sweep10():
    return sweep(10, jobs=2)


def _check_cardinality_rows(report, ms):
    for m in ms:
        point, cardinality, singletons = CARDINALITY_TABLE[m]
        row = report.shell_stats(m)
        assert row.card_point == point, (m, row.card_point)
        assert row.cardinality == cardinality, (m, row.cardinality)
        assert row.singletons == singletons, (m, row.singletons)


def test_criterion_1_reference_listings(atlas, paper_listings):
    with criterion("listing reproduction for max(|a0|,|a1|) <= 2"):
        for (a0, a1), expected in sorted(paper_listings.items()):
            assert render_endpoint_listing(atlas(a0, a1)) == expected, (a0, a1)
        named = {str(i): tuple(w) for i, w in atlas(-1, 1).body}
        assert named["(-3/2,-4/3)"] == (-1, 1, 3, 4, 3, 1, -1, -2)
        assert named["[-4/3,-1)"] == (-1, 1, 3, 3, 1, -1, -2)
        assert named["[-1]"] == (-1, 1, 2, 1, -1, -2)
        assert named["(-1,-1/2)"] == (-1, 1, 2, 1, -1)
        closed = {str(i): tuple(w) for i, w in atlas(-2, -2).body}
        assert closed["[-2/3,-1/2]"] == (-2, -2, 1, 3, 1)


def test_criterion_2_cardinality_table_m5(sweep5):
    with criterion("cardinality table rows m = 1..5"):
        _check_cardinality_rows(sweep5, range(1, 6))


@extended
def test_criterion_2_cardinality_table_m10(sweep10):
    with criterion("cardinality table rows m = 6..10 (extended)"):
        _check_cardinality_rows(sweep10, range(6, 11))


def test_criterion_3_length_table(sweep5):
    with criterion("cycle length table rows m = 1..3"):
        for m, (point, interval, max_len, avg) in LENGTH_TABLE.items():
            row = sweep5.shell_stats(m)
            assert row.len_point == point, (m, row.len_point)
            assert row.max_len_interval == interval, (m, row.max_len_interval)
            assert row.max_len == max_len, (m, row.max_len)
            pooled = float(row.avg_len_pooled)
            at_max = float(row.avg_len_at_max_point)
            assert min(abs(pooled - avg), abs(at_max - avg)) <= 0.01, (
                f"m={m}: neither declared average matches {avg}: "
                f"pooled over the shell {pooled:.6g}, over the max point's "
                f"atlas {at_max:.6g}"
            )


@extended
def test_criterion_4_small_theorem_reverification(sweep10):
    with criterion("full re-verification of periodicity up to m = 10 (extended)"):
        assert sweep10.max_m == 10
        for p in sweep10.points:
            assert p.verified, (p.a0, p.a1, p.failure)


@extended
def test_criterion_4_atlas_digests_m10():
    # Table rows cannot see an inner boundary that moves, so every atlas
    # with m <= 10 is pinned by the digest of its JSON form.
    path = os.path.join(os.path.dirname(__file__), "goldens", "atlas_digests_m10.txt")
    with open(path) as fh:
        golden = [line.split() for line in fh if line.strip() and not line.startswith("#")]
    with criterion("per-pair atlas JSON digests up to m = 10 (extended)"):
        assert len(golden) == 21 * 21
        for a0, a1, expected in golden:
            a0, a1 = int(a0), int(a1)
            found = hashlib.sha256(atlas_to_json(compute_atlas(a0, a1)).encode()).hexdigest()
            assert found == expected, f"first differing atlas: ({a0}, {a1})"


def test_criterion_5_window_oracle_equivalence():
    with criterion("window/constraint oracle equivalence for d <= 8, k = K..K+10"):
        for d in range(1, 9):
            for s in range(d):
                k_least = -((s - triangular(d)) // d)
                for k in range(k_least, k_least + 11):
                    expected = z_interval(s, d, k)
                    got = interval_for_cycle(triangular_cycle(s, d, k))
                    assert got == expected, (s, d, k)


def test_criterion_6_periodic_edge_palindromic_cycles():
    with criterion("periodicity and palindromes at the 2-0 edge, |x|,|y| <= 30"):
        spec = ParamSpec.minus_zero(2)
        for x in range(-30, 31):
            for y in range(-30, 31):
                result = detect_cycle(spec, (x, y), cap=10**6)
                assert result.outcome == "cycle", (x, y)
                assert is_cyclic_palindrome(result.cycle), (x, y)


def test_criterion_7_divergent_edge_leaves_every_ball():
    with criterion("divergence at the -2+0 edge, |x|,|y| <= 30"):
        spec = ParamSpec.plus_zero(-2)
        ball, cap = 10**6, 10**7
        for x in range(-30, 31):
            for y in range(-30, 31):
                if x == y >= 0:
                    continue
                cx, cy, steps = x, y, 0
                while max(abs(cx), abs(cy)) <= ball:
                    gap = cx - cy
                    if gap < 0 and cy >= 0:
                        # From here on every step appends cy + n*|gap|: an
                        # arithmetic ramp, so the ball exit time is exact.
                        steps += (ball - cy) // -gap + 1
                        break
                    nx, ny = step(spec, (cx, cy))
                    assert nx - ny <= gap, (x, y)
                    cx, cy = nx, ny
                    steps += 1
                    assert steps < 10**5, (x, y, "no ramp reached")
                assert steps <= cap, (x, y, steps)


def test_criterion_8_property_suites(atlas):
    rng = random.Random(20260810)

    def random_lambda(max_den=40):
        q = rng.randint(1, max_den)
        return F(rng.randint(-2 * q + 1, 2 * q - 1), q)

    def random_spec():
        lam = random_lambda()
        kind = rng.choice(["exact", "plus_zero", "minus_zero"])
        if (kind == "plus_zero" and lam == 2) or (kind == "minus_zero" and lam == -2):
            kind = "exact"
        return ParamSpec(kind, lam)

    with criterion("step soundness, 10^3 cases"):
        for _ in range(1000):
            lam = random_lambda()
            x, y = rng.randint(-100, 100), rng.randint(-100, 100)
            _, z = step(ParamSpec.exact(lam), (x, y))
            assert 0 <= z + lam * y + x < 1

    with criterion("bijectivity round trip, 10^3 cases"):
        for _ in range(1000):
            spec = random_spec()
            p = (rng.randint(-100, 100), rng.randint(-100, 100))
            assert step_inverse(spec, step(spec, p)) == p
            assert step(spec, step_inverse(spec, p)) == p

    with criterion("parameter-interval soundness and completeness, 10^3 cases"):
        eps = F(1, 10**6)
        for _ in range(1000):
            lam = random_lambda(max_den=20)
            start = (rng.randint(-5, 5), rng.randint(-5, 5))
            result = detect_cycle(ParamSpec.exact(lam), start, cap=10**6)
            assert result.outcome == "cycle"
            word = result.cycle
            ival = interval_for_cycle(word)
            assert ival is not None and contains(ival, lam)
            inner = ival.lo + (ival.hi - ival.lo) * F(rng.randint(1, 9), 10)
            redetected = detect_cycle(ParamSpec.exact(inner), start, cap=10**6)
            assert redetected.cycle == word
            for edge, closed, sign in (
                (ival.lo, ival.lo_closed, -1),
                (ival.hi, ival.hi_closed, 1),
            ):
                probe = edge + sign * eps
                if closed and F(-2) < probe < F(2):
                    beyond = detect_cycle(ParamSpec.exact(probe), start, cap=10**6)
                    assert beyond.cycle != word

    with criterion("atlas swap symmetry, 10^3 sampled pairs"):
        for _ in range(1000):
            a0, a1 = rng.randint(-5, 5), rng.randint(-5, 5)
            fwd, rev = atlas(a0, a1), atlas(a1, a0)
            assert [i for i, _ in fwd.body] == [i for i, _ in rev.body]
            k = rng.randrange(len(fwd.body))
            assert rotation_equal(fwd.body[k][1], rev.body[k][1][::-1])

    with criterion("last body interval is proper and ends open at 2, 10^3 samples"):
        for _ in range(1000):
            a0, a1 = rng.randint(-5, 5), rng.randint(-5, 5)
            last, _ = atlas(a0, a1).body[-1]
            assert last.hi == 2 and not last.hi_closed and not last.is_singleton

    with criterion("period divides 4 at parameter 0, 10^3 cases"):
        for _ in range(1000):
            p = (rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6))
            result = detect_cycle(ParamSpec.exact(0), p)
            assert result.outcome == "cycle" and 4 % len(result.cycle) == 0
