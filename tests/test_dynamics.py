import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotatlas import OrbitResult, ParamSpec, detect_cycle, make_interval
from rotatlas.constraints import cycle_bounds
from rotatlas.dynamics import orbit_bounds
from reference import step, step_inverse, word_is_cycle_at
from words import is_cyclic_palindrome, rotation_equal

# one-sided boundary specializations: always-periodic at 2-0, blow-up at -2+0
PERIODIC_EDGE = ParamSpec.minus_zero(2)
DIVERGENT_EDGE = ParamSpec.plus_zero(-2)


pairs = st.tuples(st.integers(-6, 6), st.integers(-6, 6))
inner_lambdas = st.integers(1, 40).flatmap(
    lambda q: st.builds(F, st.integers(-2 * q + 1, 2 * q - 1), st.just(q))
)
# Exact points with large denominators, as probe points have.
probe_lambdas = st.integers(10**6, 10**15).flatmap(
    lambda q: st.builds(F, st.integers(-2 * q + 1, 2 * q - 1), st.just(q))
)
# The parameters the march visits (a point itself, or just right of it),
# and probe points.
march_specs = st.one_of(
    st.builds(ParamSpec, st.sampled_from(("exact", "plus_zero")), inner_lambdas),
    st.builds(ParamSpec.exact, probe_lambdas),
)
# The march sides, with denominators <= 6 half the time, so plus-side ties
# (q | y) are common.
small_lambdas = st.integers(1, 6).flatmap(
    lambda q: st.builds(F, st.integers(-2 * q + 1, 2 * q - 1), st.just(q))
)
kernel_specs = st.builds(
    ParamSpec, st.sampled_from(("exact", "plus_zero")), st.one_of(inner_lambdas, small_lambdas)
)
# Every side, plus both boundary specializations.
all_specs = st.one_of(
    st.builds(ParamSpec, st.sampled_from(("exact", "plus_zero", "minus_zero")), inner_lambdas),
    st.builds(ParamSpec.exact, probe_lambdas),
    st.sampled_from((DIVERGENT_EDGE, PERIODIC_EDGE)),
)


def random_lambda(rng):
    q = rng.randint(1, 40)
    p = rng.randint(-2 * q + 1, 2 * q - 1)
    return F(p, q)


def test_step_examples():
    assert step(ParamSpec.exact(0), (5, 7)) == (7, -5)
    assert step(ParamSpec.exact(F(1, 2)), (3, 2)) == (2, -4)
    assert 0 <= F(-4) + F(1, 2) * 2 + 3 < 1
    assert step(PERIODIC_EDGE, (0, -1)) == (-1, 2)
    for m in range(6):
        assert step(DIVERGENT_EDGE, (m, m)) == (m, m)


def test_step_inverse_examples():
    assert step_inverse(ParamSpec.exact(0), (7, -5)) == (5, 7)
    assert step_inverse(PERIODIC_EDGE, (-1, 2)) == (0, -1)
    assert step_inverse(ParamSpec.exact(F(1, 2)), (2, -4)) == (3, 2)


def test_param_spec_validation():
    with pytest.raises(ValueError, match=r"^exact parameter must lie in \(-2,2\), got 2$"):
        ParamSpec.exact(2)
    with pytest.raises(ValueError, match=r"^exact parameter must lie in \(-2,2\), got -2$"):
        ParamSpec.exact(-2)
    with pytest.raises(ValueError, match=r"^plus-side parameter must lie in \[-2,2\), got 2$"):
        ParamSpec.plus_zero(2)
    with pytest.raises(ValueError, match=r"^minus-side parameter must lie in \(-2,2\], got -2$"):
        ParamSpec.minus_zero(-2)
    ParamSpec.plus_zero(-2)
    ParamSpec.minus_zero(2)
    with pytest.raises(ValueError, match="unknown kind 'sideways'"):
        ParamSpec("sideways", F(0))
    # just inside and just outside each edge, with a denominator above 1
    for kind in ("exact", "plus_zero", "minus_zero"):
        for value in (F(-7, 4), F(7, 4), F(-9, 4), F(9, 4)):
            if -2 < value < 2:
                assert ParamSpec(kind, value).value is value
            else:
                with pytest.raises(ValueError):
                    ParamSpec(kind, value)
    # ints and floats become Fractions
    assert type(ParamSpec.exact(1).value) is F and ParamSpec.exact(0.5).value == F(1, 2)


def test_step_soundness_random():
    rng = random.Random(1)
    for _ in range(500):
        lam = random_lambda(rng)
        x, y = rng.randint(-50, 50), rng.randint(-50, 50)
        _, z = step(ParamSpec.exact(lam), (x, y))
        assert 0 <= z + lam * y + x < 1


def test_bijectivity_round_trip():
    rng = random.Random(2)
    for _ in range(500):
        lam = random_lambda(rng)
        kind = rng.choice(["exact", "plus_zero", "minus_zero"])
        if kind == "plus_zero" and lam == 2 or kind == "minus_zero" and lam == -2:
            kind = "exact"
        spec = ParamSpec(kind, lam)
        p = (rng.randint(-50, 50), rng.randint(-50, 50))
        assert step_inverse(spec, step(spec, p)) == p
        assert step(spec, step_inverse(spec, p)) == p


def test_periodic_edge_matches_two_branch_formula():
    rng = random.Random(3)
    for _ in range(500):
        x, y = rng.randint(-40, 40), rng.randint(-40, 40)
        expected = (y, -x - 2 * y) if y <= 0 else (y, -x - 2 * y + 1)
        assert step(PERIODIC_EDGE, (x, y)) == expected


def test_divergent_edge_matches_two_branch_formula():
    rng = random.Random(4)
    for _ in range(500):
        x, y = rng.randint(-40, 40), rng.randint(-40, 40)
        expected = (y, -x + 2 * y) if y >= 0 else (y, -x + 2 * y + 1)
        assert step(DIVERGENT_EDGE, (x, y)) == expected


def test_divergent_edge_gap_never_increases():
    rng = random.Random(5)
    for _ in range(200):
        x, y = rng.randint(-20, 20), rng.randint(-20, 20)
        for _ in range(50):
            nx, ny = step(DIVERGENT_EDGE, (x, y))
            assert nx - ny <= x - y
            if y < 0:
                assert nx - ny == x - y - 1
            x, y = nx, ny


def test_detect_cycle_period_four_at_zero():
    r = detect_cycle(ParamSpec.exact(0), (5, 7))
    assert r == OrbitResult("cycle", (5, 7, -5, -7), 4, [5, 7, -5, -7]) and r.max_abs == 7
    rng = random.Random(6)
    for _ in range(200):
        p = (rng.randint(-30, 30), rng.randint(-30, 30))
        r = detect_cycle(ParamSpec.exact(0), p)
        assert r.outcome == "cycle" and 4 % len(r.cycle) == 0


def test_detect_cycle_longest_small_example():
    r = detect_cycle(ParamSpec.exact(F(8, 5)), (-1, -1))
    assert r.outcome == "cycle"
    assert len(r.cycle) == 38
    assert word_is_cycle_at(r.cycle, F(8, 5))


def test_detect_cycle_periodic_edge_word():
    r = detect_cycle(PERIODIC_EDGE, (1, 0))
    assert r.cycle == (1, 0, -1, 2, -2, 2, -1, 0, 1, -1)
    assert is_cyclic_palindrome(r.cycle)


def test_periodic_edge_small_grid_palindromic_cycles():
    for x in range(-8, 9):
        for y in range(-8, 9):
            r = detect_cycle(PERIODIC_EDGE, (x, y), cap=10**5)
            assert r.outcome == "cycle", (x, y)
            assert is_cyclic_palindrome(r.cycle), (x, y)


def test_divergent_edge_outcomes_small_grid():
    for x in range(-8, 9):
        for y in range(-8, 9):
            r = detect_cycle(DIVERGENT_EDGE, (x, y), cap=10**5)
            if x == y >= 0:
                assert r.cycle == (x,)
            else:
                assert r.outcome == "diverged", (x, y)


def test_divergent_edge_immediate_certificate():
    r = detect_cycle(DIVERGENT_EDGE, (0, 1))
    assert r.outcome == "diverged"
    assert r.steps_used == 0


def test_cap_is_a_result_not_an_error():
    r = detect_cycle(ParamSpec.exact(0), (5, 7), cap=3)
    assert r.outcome == "cap_exceeded" and r.steps_used == 3
    with pytest.raises(ValueError):
        detect_cycle(ParamSpec.exact(0), (5, 7), cap=0)


def test_time_reversal_symmetry():
    rng = random.Random(7)
    for _ in range(200):
        lam = random_lambda(rng)
        p = (rng.randint(-10, 10), rng.randint(-10, 10))
        r = detect_cycle(ParamSpec.exact(lam), p, cap=10**6)
        assert r.outcome == "cycle"
        assert word_is_cycle_at(r.cycle, lam)
        assert word_is_cycle_at(r.cycle[::-1], lam)


def test_one_sided_maps_agree_with_nearby_exact_parameters():
    # A one-sided map is the pointwise limit of the exact dynamics: once the
    # limit orbit closes with value bound V, every exact parameter within
    # 1/(2qV) on that side must reproduce the same word.
    rng = random.Random(9)
    checked = 0
    while checked < 150:
        q = rng.randint(1, 12)
        p = rng.randint(-2 * q + 1, 2 * q - 1)
        start = (rng.randint(-6, 6), rng.randint(-6, 6))
        for kind, sign in (("plus_zero", 1), ("minus_zero", -1)):
            limit = detect_cycle(ParamSpec(kind, F(p, q)), start, cap=10**5)
            if limit.outcome != "cycle":
                continue
            v = F(1, 2 * q * max(1, limit.max_abs) * 2)
            nearby = detect_cycle(ParamSpec.exact(F(p, q) + sign * v), start, cap=10**5)
            assert nearby.cycle == limit.cycle, (p, q, kind, start)
            checked += 1


def test_rotation_equal_against_brute_force():
    rng = random.Random(8)
    for _ in range(500):
        n = rng.randint(1, 12)
        a = tuple(rng.randint(-12, 12) for _ in range(n))
        # half the time a genuine rotation, half a random word of equal length
        if rng.random() < 0.5:
            k = rng.randrange(n)
            b = a[k:] + a[:k]
        else:
            b = tuple(rng.choice(a + (1, -1, 11)) for _ in range(n))
        brute = any(a == b[i:] + b[:i] for i in range(n))
        assert rotation_equal(a, b) == brute, (a, b)


def test_rotation_helpers():
    assert rotation_equal((1, 2, 3), (3, 1, 2))
    assert not rotation_equal((1, 2, 3), (3, 2, 1))
    assert not rotation_equal((1, 2), (1, 2, 1, 2))
    assert not rotation_equal((1,), (11,)) and not rotation_equal((1, -1), (-1, -1))
    assert is_cyclic_palindrome((1, 2, 2, 1))
    assert is_cyclic_palindrome((0,))
    assert not is_cyclic_palindrome((0, 1, 1, 2))


def test_max_abs_tracks_whole_orbit():
    r = detect_cycle(ParamSpec.exact(F(8, 5)), (-1, -1))
    assert r.max_abs == max(abs(v) for v in r.cycle)


@settings(deadline=None)
@given(all_specs, pairs, st.integers(1, 40))
def test_max_abs_and_steps_used_on_every_outcome(spec, start, cap):
    r = detect_cycle(spec, start, cap)
    # walk the oracle through the steps the result reports
    values = list(start)
    point = start
    gaps = [point[0] - point[1]]
    for _ in range(r.steps_used):
        point = step(spec, point)
        values.append(point[1])
        gaps.append(point[0] - point[1])
    assert r.max_abs == max(map(abs, values))
    if r.outcome == "cycle":
        assert 1 <= r.steps_used <= cap and point == start
        assert r.cycle == tuple(values[: r.steps_used])
    elif r.outcome == "cap_exceeded":
        assert r.steps_used == cap
    else:
        # the certificate fires at the first negative x - y, before the cap
        assert r.outcome == "diverged" and spec == DIVERGENT_EDGE
        assert r.steps_used < cap
        assert gaps[-1] < 0 and all(g >= 0 for g in gaps[:-1])


def test_exact_loop_at_a_large_denominator():
    spec = ParamSpec.exact(F(1234567890123, 10**12))
    r = detect_cycle(spec, (1, 2), cap=5)
    assert (r.outcome, r.cycle, r.steps_used) == ("cap_exceeded", None, 5)
    values = [1, 2]
    point = (1, 2)
    for _ in range(5):
        point = step(spec, point)
        values.append(point[1])
    assert r.visited == values
    full = detect_cycle(spec, (1, 2))
    assert full.outcome == "cycle" and full.steps_used > 5
    assert full.cycle[:7] == tuple(values)
    assert _kernel(spec, (1, 2), 5) is None
    assert _kernel(spec, (1, 2))[0] == full.cycle


def _kernel(spec, start, cap=10**7):
    return orbit_bounds(spec.value, spec.kind == "plus_zero", start, cap)


def _values(bounds):
    """Bounds as (lo, lo_closed, hi, hi_closed), each edge one reduced Fraction."""
    lo_n, lo_d, lo_closed, hi_n, hi_d, hi_closed = bounds
    return F(lo_n, lo_d), lo_closed, F(hi_n, hi_d), hi_closed


@settings(deadline=None)
@given(kernel_specs, pairs)
def test_orbit_bounds_is_one_pass_of_detect_cycle_and_cycle_bounds(spec, start):
    reference = detect_cycle(spec, start)
    assert reference.outcome == "cycle"
    word, bounds, steps = _kernel(spec, start)
    assert word == reference.cycle
    assert steps == reference.steps_used
    assert _values(bounds) == _values(cycle_bounds(word))
    # both loop kernels inline `step`; the word must be its orbit
    point = start
    for letter in word:
        assert point[0] == letter
        point = step(spec, point)
    assert point == start


@settings(deadline=None)
@given(march_specs, pairs, st.integers(1, 40))
def test_orbit_bounds_cap_agrees_with_detect_cycle(spec, start, cap):
    found = _kernel(spec, start, cap)
    reference = detect_cycle(spec, start, cap)
    assert (found is None) == (reference.outcome == "cap_exceeded")
    if found is not None:
        assert (found[0], found[2]) == (reference.cycle, reference.steps_used)


def test_orbit_bounds_examples():
    word, bounds, steps = orbit_bounds(F(0), False, (1, 0))
    assert (word, str(make_interval(*_values(bounds))), steps) == ((1, 0, -1, 0), "[0]", 4)
    # just right of 8/5 the 38-cycle at [8/5] gives way to another cycle
    exact = orbit_bounds(F(8, 5), False, (-1, -1))
    plus = orbit_bounds(F(8, 5), True, (-1, -1))
    assert str(make_interval(*_values(exact[1]))) == "[8/5]" and len(exact[0]) == 38
    assert _values(plus[1])[:2] == (F(8, 5), False)
    assert orbit_bounds(F(0), False, (5, 7), cap=3) is None
    with pytest.raises(ValueError):
        orbit_bounds(F(0), False, (5, 7), cap=0)
