"""Self-check of one run's event log.

``check_log`` asserts invariants that every log of the engine satisfies,
however the run was computed.  The tests run it over every golden and every
log the sharing property makes.
"""

from collections import namedtuple

from hodsim.decision import HANDOVER, STAY
from hodsim.engine import EventLog

# A row's fields by name, for the tests that read them; the engine logs
# plain tuples in this order, the last five columns of events_*.csv.
Row = namedtuple("Row", "associated action c_asso c_best suppressed")

# a terminal disconnected mid-switch makes no decision and scores zero
_IDLE = (STAY, 0.0, 0.0, False)


def named(log: EventLog, m: str) -> list:
    """Terminal ``m``'s rows as ``Row``s."""
    return [Row._make(o) for o in log.outcomes[m]]


def check_log(log: EventLog) -> None:
    """Raise AssertionError naming the terminal and step of the first row
    that breaks an invariant."""
    cost = log.config.handover_cost_steps
    steps = log.nb_steps
    # each criterion's utility lies in [0, 1), so a score, their sum, lies
    # in [0, number of criteria)
    top = len(log.config.criteria)
    assert sorted(log.outcomes) == sorted(log.mt_ids) == sorted(log.nb_ho)
    for m in log.mt_ids:
        assert type(log.outcomes[m]) is tuple, m
        for k, o in enumerate(log.outcomes[m]):
            # a plain tuple, so the garbage collector stops tracking it
            assert type(o) is tuple and len(o) == 5, (m, k, o)
            associated, action, c_asso, c_best, suppressed = o
            assert associated is None or type(associated) is str, (m, k, o)
            assert action in (STAY, HANDOVER), (m, k, o)
            assert type(c_asso) is float and type(c_best) is float, (m, k, o)
            assert type(suppressed) is bool, (m, k, o)
        rows = named(log, m)
        assert len(rows) == steps, (m, len(rows))
        handovers = [k for k, o in enumerate(rows) if o.action == HANDOVER]
        assert log.nb_ho[m] == len(handovers), (m, log.nb_ho[m], len(handovers))
        for k, o in enumerate(rows):
            assert 0.0 <= o.c_asso < top and 0.0 <= o.c_best < top, (m, k, o)
            # a handover or a suppression means the base rule fired
            if o.suppressed or o.action == HANDOVER:
                assert o.c_best > o.c_asso, (m, k, o)
            if k == 0:
                continue
            before = rows[k - 1]
            if before.action == HANDOVER:
                assert o.associated != before.associated, (m, k, before, o)
            if o.associated == before.associated or o.associated is None:
                continue  # kept, or lost coverage
            # otherwise the switch was made at the step before: a handover
            # to another AP, or a blind re-join of an unassociated terminal
            assert before.action == HANDOVER or before.associated is None, (m, k, before, o)
        for k in handovers:
            for idle in rows[k + 1:k + 1 + cost]:
                assert tuple(idle)[1:] == _IDLE, (m, k, idle)
