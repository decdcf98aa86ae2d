import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hodsim.knowledge import KnowledgeBase, KnowledgeRecord, candidate_view, diffuse, known

from reference import ref_diffuse, ref_merge


def fresh_bases(*ap_ids):
    return {ap_id: KnowledgeBase(owner=ap_id) for ap_id in ap_ids}


def test_two_aps_exchange_previous_period_measurements():
    """Hand trace of the push protocol: pushes carry the sender's knowledge
    from before its own refresh, so after the second round each AP holds the
    neighbor's previous-period record."""
    bases = fresh_bases("ap1", "ap2")
    neighbors = {"ap1": ("ap2",), "ap2": ("ap1",)}
    q0 = {"ap1": {"bw": 10.0}, "ap2": {"bw": 20.0}}
    q1 = {"ap1": {"bw": 11.0}, "ap2": {"bw": 21.0}}

    bases, _ = diffuse(bases, neighbors, q0, {}, now=0.0)
    assert set(bases["ap1"].records) == {"ap1"}

    bases, _ = diffuse(bases, neighbors, q1, {}, now=1.0)
    assert bases["ap1"].records["ap1"].timestamp == 1.0
    assert bases["ap1"].records["ap2"].timestamp == 0.0
    assert bases["ap1"].records["ap2"].qos == {"bw": 20.0}
    assert bases["ap2"].records["ap1"].qos == {"bw": 10.0}


def test_isolated_ap_knows_only_itself():
    bases = fresh_bases("solo")
    for t in range(5):
        bases, _ = diffuse(bases, {"solo": ()}, {"solo": {"bw": 1.0}}, {}, now=float(t))
    assert set(bases["solo"].records) == {"solo"}


def test_terminal_receives_copy_of_associated_ap_base():
    bases = fresh_bases("ap1", "ap2")
    neighbors = {"ap1": ("ap2",), "ap2": ("ap1",)}
    qos = {"ap1": {"bw": 1.0}, "ap2": {"bw": 2.0}}
    bases, _ = diffuse(bases, neighbors, qos, {}, now=0.0)
    bases, mts = diffuse(bases, neighbors, qos, {"mt1": "ap1"}, now=1.0)
    assert set(mts["mt1"].records) == {"ap1", "ap2"}


def test_diffuse_leaves_given_bases_unchanged():
    # terminal bases share their AP's records dict, which is only safe while
    # a round never writes to the dicts of the bases it was given
    neighbors = {"a": ("b",), "b": ("a", "c"), "c": ("b",)}
    bases = fresh_bases("a", "b", "c")
    terminals = {"m0": "a", "m1": "b", "m2": None}
    for t in range(4):
        given = {ap_id: (base.records, dict(base.records)) for ap_id, base in bases.items()}
        qos = {ap_id: {"bw": float(t + i)} for i, ap_id in enumerate(sorted(bases))}
        new_bases, mts = diffuse(bases, neighbors, qos, terminals, now=float(t))
        for ap_id, (records, snapshot) in given.items():
            assert bases[ap_id].records is records
            assert records == snapshot
            assert new_bases[ap_id].records is not records
        for mt_id, ap_id in terminals.items():
            if ap_id is not None:
                assert mts[mt_id].records is new_bases[ap_id].records
        bases = new_bases


def test_unassociated_terminal_receives_nothing():
    bases = fresh_bases("ap1")
    _, mts = diffuse(bases, {"ap1": ()}, {"ap1": {"bw": 1.0}}, {"mt1": None}, now=0.0)
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
    bases = fresh_bases(*ap_ids)
    seen = {ap: {} for ap in ap_ids}
    for t in range(20):
        qos = {ap: {"bw": float(rng.uniform(1, 9))} for ap in ap_ids}
        bases, _ = diffuse(bases, neighbors, qos, {}, now=float(t))
        for owner, base in bases.items():
            for ap_id, record in base.records.items():
                previous = seen[owner].get(ap_id)
                assert previous is None or record.timestamp >= previous
                seen[owner][ap_id] = record.timestamp


def base_of(owner, *records):
    return KnowledgeBase(owner=owner, records={r.ap_id: r for r in records})


def test_candidate_view_intersects_sensed_and_known():
    base = base_of("mt", KnowledgeRecord("A", {"bw": 1.0}, timestamp=3.0),
                    KnowledgeRecord("B", {"bw": 2.0}, timestamp=4.0))
    got = candidate_view(base, ["A", "B", "C"], associated="A", now=5.0)
    assert got == [("B", {"bw": 2.0}, 1.0)]


def test_candidate_view_empty_when_nothing_sensed():
    base = base_of("mt", KnowledgeRecord("A", {"bw": 1.0}, timestamp=0.0))
    assert candidate_view(base, [], associated="A", now=1.0) == []


def test_candidate_view_empty_without_knowledge():
    assert candidate_view(KnowledgeBase(owner="mt"), ["A"], associated=None, now=0.0) == []


def test_neighbor_records_at_most_two_periods_old():
    period = 2.0
    neighbors = {"a": ("b",), "b": ("a",)}
    bases = fresh_bases("a", "b")
    mt_base = None
    for k in range(12):
        now = k * period
        qos = {"a": {"bw": 1.0}, "b": {"bw": 2.0}}
        bases, mts = diffuse(bases, neighbors, qos, {"mt": "a"}, now=now)
        mt_base = mts["mt"]
        if k >= 1:
            # between diffusions the age can grow by up to one more period
            for probe in (now, now + period - 1e-9):
                age = probe - mt_base.records["b"].timestamp
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
    # map under the reference record-merging protocol, under diffuse, and
    # under the closed form: known() of the rounds at the last round at which
    # the terminal was associated.
    ids, neighbors, period, steps = history
    dt = 0.5
    ref_aps, ref_mts = {a: {} for a in ids}, {}
    bases, mt_bases = {a: KnowledgeBase(owner=a) for a in ids}, {}
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
            bases, fresh = diffuse(bases, neighbors, measured, associations, now)
            mt_bases.update(fresh)
            rounds.append({a: (measured[a], now) for a in ids})
            for mt, ap in associations.items():
                if ap is not None:
                    holds[mt] = (ap, len(rounds) - 1)
        for mt in TERMINALS:
            expected = ref_mts.get(mt, {})
            base = mt_bases.get(mt, KnowledgeBase(owner=mt))
            assert {ap: (r.qos, r.timestamp) for ap, r in base.records.items()} == expected
            closed = {}
            if mt in holds:
                home, r = holds[mt]
                closed = known(home, neighbors[home], rounds[r], rounds[r - 1] if r else {})
            assert closed == expected
            assert candidate_view(base, ids, associations[mt], now) == [
                (ap, expected[ap][0], now - expected[ap][1])
                for ap in ids if ap != associations[mt] and ap in expected]
