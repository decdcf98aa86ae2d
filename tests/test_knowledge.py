import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hodsim.knowledge import known

from reference import ref_diffuse, ref_merge


def stamped(measured, now):
    """One round's records as the reference protocol holds them: each AP's
    measurement with its time, by AP id."""
    return {ap_id: (dict(qos), now) for ap_id, qos in measured.items()}


def test_two_aps_exchange_previous_period_measurements():
    """Hand trace of the push protocol: pushes carry the sender's knowledge
    from before its own refresh, so after the second round each AP holds the
    neighbor's previous-period record."""
    neighbors = {"ap1": ("ap2",), "ap2": ("ap1",)}
    q0 = {"ap1": {"bw": 10.0}, "ap2": {"bw": 20.0}}
    q1 = {"ap1": {"bw": 11.0}, "ap2": {"bw": 21.0}}
    r0, r1 = stamped(q0, 0.0), stamped(q1, 1.0)

    aps, _ = ref_diffuse({"ap1": {}, "ap2": {}}, neighbors, q0, {}, now=0.0)
    assert set(aps["ap1"]) == {"ap1"}
    assert aps["ap1"] == known("ap1", neighbors["ap1"], r0, {})

    aps, _ = ref_diffuse(aps, neighbors, q1, {}, now=1.0)
    assert aps["ap1"]["ap1"][1] == 1.0
    assert aps["ap1"]["ap2"][1] == 0.0
    assert aps["ap1"]["ap2"][0] == {"bw": 20.0}
    assert aps["ap2"]["ap1"][0] == {"bw": 10.0}
    for ap_id in neighbors:
        assert aps[ap_id] == known(ap_id, neighbors[ap_id], r1, r0)


def test_isolated_ap_knows_only_itself():
    aps, previous = {"solo": {}}, {}
    for t in range(5):
        measured = {"solo": {"bw": 1.0}}
        aps, _ = ref_diffuse(aps, {"solo": ()}, measured, {}, now=float(t))
        current = stamped(measured, float(t))
        assert aps["solo"] == known("solo", (), current, previous)
        previous = current
    assert set(aps["solo"]) == {"solo"}


def test_terminal_receives_copy_of_associated_ap_base():
    neighbors = {"ap1": ("ap2",), "ap2": ("ap1",)}
    qos = {"ap1": {"bw": 1.0}, "ap2": {"bw": 2.0}}
    aps, _ = ref_diffuse({"ap1": {}, "ap2": {}}, neighbors, qos, {}, now=0.0)
    aps, mts = ref_diffuse(aps, neighbors, qos, {"mt1": "ap1"}, now=1.0)
    assert set(mts["mt1"]) == {"ap1", "ap2"}
    assert mts["mt1"] == known("ap1", neighbors["ap1"], stamped(qos, 1.0), stamped(qos, 0.0))


def test_unassociated_terminal_receives_nothing():
    _, mts = ref_diffuse({"ap1": {}}, {"ap1": ()}, {"ap1": {"bw": 1.0}}, {"mt1": None}, now=0.0)
    assert "mt1" not in mts


def test_newer_record_never_overwritten_by_older():
    # the latest-wins rule of the reference protocol the closed form is
    # checked against
    records = {}
    ref_merge(records, "ap1", {"bw": 5.0}, 10.0)
    ref_merge(records, "ap1", {"bw": 9.0}, 4.0)
    assert records["ap1"] == ({"bw": 5.0}, 10.0)


def test_timestamps_never_regress_across_rounds():
    rng = np.random.default_rng(11)
    ap_ids = ["a", "b", "c", "d"]
    neighbors = {"a": ("b",), "b": ("a", "c"), "c": ("b", "d"), "d": ("c",)}
    aps, previous = {ap: {} for ap in ap_ids}, {}
    seen = {ap: {} for ap in ap_ids}
    for t in range(20):
        qos = {ap: {"bw": float(rng.uniform(1, 9))} for ap in ap_ids}
        aps, _ = ref_diffuse(aps, neighbors, qos, {}, now=float(t))
        current = stamped(qos, float(t))
        for owner in ap_ids:
            view = known(owner, neighbors[owner], current, previous)
            assert view == aps[owner]
            for ap_id, (_, timestamp) in view.items():
                held = seen[owner].get(ap_id)
                assert held is None or timestamp >= held
                seen[owner][ap_id] = timestamp
        previous = current


def test_neighbor_records_at_most_two_periods_old():
    period = 2.0
    neighbors = {"a": ("b",), "b": ("a",)}
    aps, previous = {"a": {}, "b": {}}, {}
    for k in range(12):
        now = k * period
        qos = {"a": {"bw": 1.0}, "b": {"bw": 2.0}}
        aps, mts = ref_diffuse(aps, neighbors, qos, {"mt": "a"}, now=now)
        current = stamped(qos, now)
        view = known("a", neighbors["a"], current, previous)
        assert mts["mt"] == view
        previous = current
        if k >= 1:
            # between diffusions the age can grow by up to one more period
            for probe in (now, now + period - 1e-9):
                age = probe - view["b"][1]
                assert age <= 2 * period + 1e-9


def test_known_is_own_current_and_neighbors_previous():
    current = {"a": "a1", "b": "b1", "c": "c1"}
    previous = {"a": "a0", "b": "b0", "c": "c0"}
    assert known("b", ("a", "c"), current, previous) == {"a": "a0", "b": "b1", "c": "c0"}
    assert known("a", ("b",), current, previous) == {"a": "a1", "b": "b0"}
    # before the first round nothing has been pushed
    assert known("b", ("a", "c"), current, {}) == {"b": "b1"}


TERMINALS = ("m0", "m1", "m2")


@st.composite
def diffusion_histories(draw):
    """A wired graph, a diffusion period in steps, and each terminal's
    association at every step: an AP, or None while unassociated.  Between
    rounds associations change freely, as after a handover whose switching
    steps end before the next round, so terminals often hold an AP other
    than the one whose knowledge they carry."""
    ids = [f"ap{i}" for i in range(draw(st.integers(1, 6)))]
    links = draw(st.sets(st.tuples(st.sampled_from(ids), st.sampled_from(ids))))
    neighbors = {a: tuple(sorted({y for x, y in links if x == a and y != a}
                                 | {x for x, y in links if y == a and x != a}))
                 for a in ids}
    period = draw(st.integers(1, 4))
    steps = draw(st.lists(
        st.tuples(*[st.one_of(st.none(), st.sampled_from(ids)) for _ in TERMINALS]),
        min_size=1, max_size=16))
    return ids, neighbors, period, steps


@settings(max_examples=300, deadline=None)
@given(diffusion_histories())
def test_closed_form_matches_the_merging_protocol(history):
    # At every step each terminal must hold the same AP -> (QoS, timestamp)
    # map under the reference record-merging protocol and under the closed
    # form: known() of the rounds at the last round at which the terminal
    # was associated.
    ids, neighbors, period, steps = history
    dt = 0.5
    ref_aps, ref_mts = {a: {} for a in ids}, {}
    rounds, holds = [], {}
    for k, row in enumerate(steps):
        now = k * dt
        associations = dict(zip(TERMINALS, row))
        if k % period == 0:
            # distinct values per (round, AP), so a record from the wrong
            # round or AP shows
            measured = {a: {"bw": float(10 * len(rounds) + i)} for i, a in enumerate(ids)}
            ref_aps, fresh = ref_diffuse(ref_aps, neighbors, measured, associations, now)
            ref_mts.update(fresh)
            rounds.append(stamped(measured, now))
            previous = rounds[-2] if len(rounds) > 1 else {}
            for a in ids:
                assert ref_aps[a] == known(a, neighbors[a], rounds[-1], previous)
            for mt, ap in associations.items():
                if ap is not None:
                    holds[mt] = (ap, len(rounds) - 1)
        for mt in TERMINALS:
            expected = ref_mts.get(mt, {})
            closed = {}
            if mt in holds:
                home, r = holds[mt]
                closed = known(home, neighbors[home], rounds[r], rounds[r - 1] if r else {})
            assert closed == expected
