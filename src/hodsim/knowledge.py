"""Knowledge diffusion between AP agents and terminal agents.

APs measure their own QoS and, once per diffusion round, push their own
record to their one-hop wired neighbors; then each AP refreshes its own
record and every associated terminal takes over its AP's knowledge.  A push
carries the sender's record from before its refresh, and an AP only ever
pushes its own record, so the protocol has a closed form.  After round r,
AP ``a`` knows exactly

- its own round-r measurement, and
- each wired neighbor's round r-1 measurement (none after round 0),

and nothing else: nothing older survives, because every round replaces every
record it delivers.  A terminal knows what its AP knew at the last round at
which it was associated, so neighbor records in a terminal's view are
between one and two periods old.  Terminals only ever learn about APs
relayed by their associated AP; a sensed AP without a record is simply not a
candidate.

``known`` is that closed form.  ``diffuse`` and ``candidate_view`` express
one round and one terminal's candidates in terms of timestamped records.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple, TypeVar

from .radio import QosVector

V = TypeVar("V")


@dataclass(frozen=True)
class KnowledgeRecord:
    """One AP's advertised QoS as known by some agent, with measurement time."""

    ap_id: str
    qos: QosVector
    timestamp: float


@dataclass
class KnowledgeBase:
    """The records held by one agent (AP or terminal), by AP id."""

    owner: str
    records: Dict[str, KnowledgeRecord] = field(default_factory=dict)


def known(home: str, neighbors: Tuple[str, ...], current: Mapping[str, V],
          previous: Mapping[str, V]) -> Dict[str, V]:
    """What AP ``home`` knows after a round: its own entry of ``current``
    (this round) and its wired neighbors' entries of ``previous`` (the round
    before; empty before the first round), by AP id."""
    view = {n: previous[n] for n in neighbors if n in previous}
    view[home] = current[home]
    return view


def diffuse(
    ap_bases: Mapping[str, KnowledgeBase],
    neighbors: Mapping[str, Tuple[str, ...]],
    measured: Mapping[str, QosVector],
    associations: Mapping[str, Optional[str]],
    now: float,
) -> Tuple[Dict[str, KnowledgeBase], Dict[str, KnowledgeBase]]:
    """Run one synchronous diffusion round at simulated time ``now``.

    ``ap_bases`` are the bases the previous round returned (empty before the
    first); only each AP's own record is read from them.  Every AP's new
    base is ``known`` of this round's records and those own records.

    A terminal's base shares its AP's records dict and is read-only.  That
    is safe because each round builds a fresh dict for every AP and never
    writes to the dicts of the bases it was given.
    Returns (new AP bases, terminal bases for associated terminals).
    """
    pushes = {ap_id: base.records[ap_id]
              for ap_id, base in ap_bases.items() if ap_id in base.records}
    new_ap_bases: Dict[str, KnowledgeBase] = {}
    for ap_id in ap_bases:
        own = {ap_id: KnowledgeRecord(ap_id, dict(measured[ap_id]), now)}
        records = known(ap_id, neighbors.get(ap_id, ()), own, pushes)
        new_ap_bases[ap_id] = KnowledgeBase(ap_id, records)

    mt_bases: Dict[str, KnowledgeBase] = {}
    for mt_id, ap_id in associations.items():
        if ap_id is None:
            continue
        mt_bases[mt_id] = KnowledgeBase(owner=mt_id, records=new_ap_bases[ap_id].records)
    return new_ap_bases, mt_bases


def candidate_view(
    base: KnowledgeBase,
    sensed: List[str],
    associated: Optional[str],
    now: float,
) -> List[Tuple[str, QosVector, float]]:
    """Candidate networks visible to a terminal: sensed, known, not associated.

    Returns (ap id, qos, record age in seconds) sorted by ap id.
    """
    out = []
    for ap_id in sensed:
        if ap_id == associated:
            continue
        record = base.records.get(ap_id)
        if record is None:
            continue
        out.append((ap_id, record.qos, now - record.timestamp))
    return out
