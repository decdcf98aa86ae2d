import math
from itertools import accumulate

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import hodsim.engine
from hodsim.radio import ap_qos, apply_jitter, sensed_aps
from hodsim.scenario import ApProfile, load_scenario

from conftest import tiny_document
from reference import ref_jitter, ref_sensed


def make_ap(ap_id="ap1", pos=(0.0, 0.0), radius=10.0, **qos):
    base = {"bandwidth": 54.0, "delay": 2.0, "error": 0.01}
    base.update(qos)
    return ApProfile(id=ap_id, position=pos, coverage_radius=radius, base_qos=base)


def test_sensed_at_center():
    assert sensed_aps([(0.0, 0.0)], [make_ap()]) == [("ap1",)]


def test_sensed_boundary_inclusive():
    assert sensed_aps([(10.0, 0.0), (10.0001, 0.0)], [make_ap()]) == [("ap1",), ()]


def test_out_of_range_of_everything():
    aps = [make_ap("a", (0.0, 0.0), 5.0), make_ap("b", (20.0, 0.0), 5.0)]
    assert sensed_aps([(10.0, 0.0)], aps) == [()]


def test_overlap_returns_both_sorted_by_id():
    aps = [make_ap("b", (6.0, 0.0), 8.0), make_ap("a", (-6.0, 0.0), 8.0)]
    assert sensed_aps([(0.0, 0.0)], aps) == [("a", "b")]


def test_sensed_monotone_in_radius():
    rng = np.random.default_rng(5)
    for _ in range(200):
        positions = rng.uniform(-20, 20, size=(3, 2))
        r1, r2 = sorted(rng.uniform(1.0, 30.0, size=2))
        small = sensed_aps(positions, [make_ap(radius=float(r1))])
        large = sensed_aps(positions, [make_ap(radius=float(r2))])
        assert len(small) == len(large) == 3
        assert all(set(s) <= set(g) for s, g in zip(small, large))


coordinates = st.floats(-200.0, 200.0, allow_nan=False)
radii = st.floats(0.01, 150.0, allow_nan=False)


@st.composite
def ap_lists(draw):
    ids = draw(st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=8, unique=True))
    return [make_ap(ap_id, (draw(coordinates), draw(coordinates)), draw(radii)) for ap_id in ids]


@settings(max_examples=200, deadline=None)
@given(ap_lists(), st.lists(st.tuples(coordinates, coordinates), max_size=30))
def test_sensed_equals_reference_on_random_points(aps, positions):
    assert sensed_aps(positions, aps) == [ref_sensed(p, aps) for p in positions]


@settings(max_examples=200, deadline=None)
@given(ap_lists(), st.lists(st.tuples(st.integers(0, 7), st.floats(0.0, 2 * math.pi)),
                            min_size=1, max_size=20))
def test_sensed_equals_reference_on_coverage_circles(aps, placements):
    # points on a circle as floats round it, exactly on it along an axis,
    # and one float step inside and outside each
    positions = []
    for index, angle in placements:
        ap = aps[index % len(aps)]
        (cx, cy), r = ap.position, ap.coverage_radius
        edge = cx + r
        positions += [
            (cx + r * math.cos(angle), cy + r * math.sin(angle)),
            (edge, cy),
            (math.nextafter(edge, -math.inf), cy),
            (math.nextafter(edge, math.inf), cy),
            (cx, math.nextafter(cy - r, math.inf)),
        ]
    assert sensed_aps(positions, aps) == [ref_sensed(p, aps) for p in positions]


# Scales at which squared offsets and radii overflow to inf (from ~1.34e154
# on) or fall below the normal range (below ~1.5e-154), down to subnormals.
EXTREME_SCALES = [1e154, 2.0 ** 512, 1e200, 1e300, 1e-154, 1e-160, 1e-200, 1e-310, 5e-324]


@st.composite
def extreme_worlds(draw):
    """APs and positions at one extreme scale: points on each coverage
    circle, one float step either side of it, and points anywhere near."""
    scale = draw(st.sampled_from(EXTREME_SCALES))
    unit = st.floats(-4.0, 4.0, allow_nan=False)
    ids = draw(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=4, unique=True))
    aps = [make_ap(ap_id, (draw(unit) * scale, draw(unit) * scale),
                   draw(st.floats(1.0, 4.0)) * scale) for ap_id in ids]
    positions = []
    for ap in aps:
        (cx, cy), r = ap.position, ap.coverage_radius
        angle = draw(st.floats(0.0, 2 * math.pi))
        positions.append((cx + r * math.cos(angle), cy + r * math.sin(angle)))
        for x, y in ((cx + r, cy), (cx - r * 0.6, cy + r * 0.8)):
            positions += [(x, y), (math.nextafter(x, -math.inf), y),
                          (math.nextafter(x, math.inf), y)]
    positions += [(draw(unit) * scale, draw(unit) * scale)
                  for _ in range(draw(st.integers(0, 8)))]
    return aps, positions


@settings(max_examples=300, deadline=None)
@given(extreme_worlds())
def test_sensed_equals_reference_at_float_extremes(world):
    # where the squares overflow or underflow, or round across the radius,
    # only math.hypot may decide; the positions form one block of steps
    aps, positions = world
    block = np.array(positions).reshape(1, -1, 2)
    assert sensed_aps(block, aps) == [ref_sensed(p, aps) for p in positions]


def test_sensed_decides_the_last_bit_as_math_hypot():
    # offsets whose distance numpy's hypot rounds differently from
    # math.hypot (about 0.6 % of them with the libm numpy uses here), with
    # the radius set to either value: only math.hypot may decide these
    rng = np.random.default_rng(11)
    offsets = rng.uniform(-100.0, 100.0, size=(20000, 2))
    fast = np.hypot(offsets[:, 0], offsets[:, 1])
    cases = [(float(dx), float(dy), float(d)) for (dx, dy), d in zip(offsets, fast)
             if d != math.hypot(dx, dy)]
    for dx, dy, d in cases[:50]:
        aps = [make_ap("fast", (0.0, 0.0), d), make_ap("exact", (0.0, 0.0), math.hypot(dx, dy))]
        assert sensed_aps([(-dx, -dy)], aps) == [ref_sensed((-dx, -dy), aps)]


def test_sensed_takes_an_array_and_an_empty_step():
    aps = [make_ap("a", (0.0, 0.0), 5.0), make_ap("b", (8.0, 0.0), 5.0)]
    positions = np.array([[4.0, 0.0], [100.0, 0.0]])
    assert sensed_aps(positions, aps) == [("a", "b"), ()]
    assert sensed_aps(np.empty((0, 2)), aps) == []
    assert sensed_aps([], aps) == []


qos_vectors = st.lists(
    st.dictionaries(st.sampled_from(["bandwidth", "delay", "error", "pilot"]),
                    st.floats(0.0, 100.0, allow_nan=False), max_size=4),
    max_size=12,
)


def hexed(vectors):
    return [[(k, v.hex()) for k, v in q.items()] for q in vectors]


@settings(max_examples=200, deadline=None)
@given(qos_vectors, st.integers(0, 6), st.floats(0.01, 10.0), st.integers(0, 2**32 - 1))
def test_jitter_equals_one_scalar_draw_per_component(vectors, steps, sigma, seed):
    # a whole run's noise in one draw, as the engine draws it, then each
    # step's vectors built from their shares of it, against one scalar draw
    # per component, step after step; the offered values change from step
    # to step, the lengths do not
    batched, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
    sizes = [len(q) for q in vectors]
    rows = batched.normal(0.0, sigma, (steps, sum(sizes))).tolist()
    for k, row in enumerate(rows):
        offered = [{key: value + k for key, value in q.items()} for q in vectors]
        shares = [row[end - size:end] for size, end in zip(sizes, accumulate(sizes))]
        out = [apply_jitter(q, share) for q, share in zip(offered, shares)]
        expected = [ref_jitter(q, sigma, scalar) for q in offered]
        # bit for bit, keys in the same order
        assert hexed(out) == hexed(expected)
    assert batched.bit_generator.state == scalar.bit_generator.state


def test_unloaded_ap_offers_nominal_qos():
    assert ap_qos(make_ap(), 0) == {"bandwidth": 54.0, "delay": 2.0, "error": 0.01}


def test_bandwidth_shared_across_users():
    assert ap_qos(make_ap(), 3)["bandwidth"] == 18.0


def test_delay_grows_with_load():
    assert ap_qos(make_ap(), 4)["delay"] == 10.0


def test_other_criteria_unchanged_by_load():
    assert ap_qos(make_ap(), 9)["error"] == 0.01


def test_qos_monotone_in_load():
    ap = make_ap()
    prev = ap_qos(ap, 0)
    for n in range(1, 30):
        cur = ap_qos(ap, n)
        assert cur["bandwidth"] <= prev["bandwidth"]
        assert cur["delay"] >= prev["delay"]
        prev = cur


def test_jitter_disabled_is_identity(monkeypatch):
    # zero noise leaves a vector's values as they are
    qos = {"bandwidth": 54.0, "delay": 2.0, "error": 0.0}
    assert apply_jitter(qos, [0.0, 0.0, 0.0]) == qos
    # with sigma 0 a run makes no jitter stream and jitters nothing: every
    # vector it measures is one the model returned, the very object
    streams, returned, measured = [], {}, []
    stream, known = hodsim.engine._stream, hodsim.engine.known

    def model(ap, load):
        out = ap_qos(ap, load)
        returned[id(out)] = out
        return out

    def measuring(home, neighbors, current, previous):
        measured.extend(current)  # vector numbers, by AP index
        return known(home, neighbors, current, previous)

    def unexpected(*args):
        raise AssertionError("jittered with sigma 0")

    monkeypatch.setattr(hodsim.engine, "_stream", lambda *a: streams.append(a[1:]) or stream(*a))
    monkeypatch.setattr(hodsim.engine, "apply_jitter", unexpected)
    monkeypatch.setattr(hodsim.engine, "known", measuring)
    with hodsim.engine.shared_worlds():
        hodsim.engine.run_simulation(load_scenario(tiny_document()), 1, qos_model=model)
        (family,) = hodsim.engine._slot.get()
    assert ("qos-jitter",) not in streams
    vectors = [family.table[number] for number in measured]
    assert vectors and all(returned.get(id(q)) is q for q in vectors)


def test_jitter_clips_at_zero_and_is_seeded():
    qos = {"error": 0.001}
    out = [[apply_jitter(qos, [noise]) for noise in np.random.default_rng(3).normal(0.0, 5.0, 8)]
           for _ in range(2)]
    assert out[0] == out[1]
    values = [v for vector in out[0] for v in vector.values()]
    assert len(values) == 8
    assert all(v >= 0.0 for v in values) and 0.0 in values
