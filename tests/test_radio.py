import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodsim.radio import ApLoadState, ap_qos, apply_jitter, sensed_aps
from hodsim.scenario import ApProfile

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


@settings(max_examples=200, deadline=None)
@given(qos_vectors, st.floats(0.01, 10.0), st.integers(0, 2**32 - 1))
def test_jitter_equals_one_scalar_draw_per_component(vectors, sigma, seed):
    batched, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
    out = apply_jitter(vectors, sigma, batched)
    expected = [ref_jitter(vector, sigma, scalar) for vector in vectors]
    # bit for bit, keys in the same order
    assert [[(k, v.hex()) for k, v in q.items()] for q in out] == \
        [[(k, v.hex()) for k, v in q.items()] for q in expected]
    assert batched.bit_generator.state == scalar.bit_generator.state


def test_unloaded_ap_offers_nominal_qos():
    assert ap_qos(make_ap(), ApLoadState("ap1", 0)) == {"bandwidth": 54.0, "delay": 2.0, "error": 0.01}


def test_bandwidth_shared_across_users():
    assert ap_qos(make_ap(), ApLoadState("ap1", 3))["bandwidth"] == 18.0


def test_delay_grows_with_load():
    assert ap_qos(make_ap(), ApLoadState("ap1", 4))["delay"] == 10.0


def test_other_criteria_unchanged_by_load():
    assert ap_qos(make_ap(), ApLoadState("ap1", 9))["error"] == 0.01


def test_load_state_must_match_ap():
    with pytest.raises(ValueError):
        ap_qos(make_ap("ap1"), ApLoadState("ap2", 1))


def test_qos_monotone_in_load():
    ap = make_ap()
    prev = ap_qos(ap, ApLoadState("ap1", 0))
    for n in range(1, 30):
        cur = ap_qos(ap, ApLoadState("ap1", n))
        assert cur["bandwidth"] <= prev["bandwidth"]
        assert cur["delay"] >= prev["delay"]
        prev = cur


def test_jitter_disabled_is_identity():
    qos = {"bandwidth": 54.0, "delay": 2.0}
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    out = apply_jitter([qos], 0.0, rng)
    assert len(out) == 1 and out[0] is qos
    assert rng.bit_generator.state == state


def test_jitter_clips_at_zero_and_is_seeded():
    qos = {"error": 0.001}
    out = [apply_jitter([qos, qos], 5.0, np.random.default_rng(3)) for _ in range(2)]
    assert out[0] == out[1]
    assert all(v >= 0.0 for vector in out[0] for v in vector.values())
