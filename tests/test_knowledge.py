import numpy as np

from hodsim.knowledge import KnowledgeBase, KnowledgeRecord, candidate_view, diffuse


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
    base = KnowledgeBase(owner="x")
    base.merge(KnowledgeRecord("ap1", {"bw": 5.0}, timestamp=10.0))
    base.merge(KnowledgeRecord("ap1", {"bw": 9.0}, timestamp=4.0))
    assert base.records["ap1"].timestamp == 10.0
    assert base.records["ap1"].qos == {"bw": 5.0}


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


def test_candidate_view_intersects_sensed_and_known():
    base = KnowledgeBase(owner="mt")
    base.merge(KnowledgeRecord("A", {"bw": 1.0}, timestamp=3.0))
    base.merge(KnowledgeRecord("B", {"bw": 2.0}, timestamp=4.0))
    got = candidate_view(base, ["A", "B", "C"], associated="A", now=5.0)
    assert got == [("B", {"bw": 2.0}, 1.0)]


def test_candidate_view_empty_when_nothing_sensed():
    base = KnowledgeBase(owner="mt")
    base.merge(KnowledgeRecord("A", {"bw": 1.0}, timestamp=0.0))
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
