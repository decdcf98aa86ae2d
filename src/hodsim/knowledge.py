"""Knowledge diffusion between AP agents and terminal agents.

APs measure their own QoS and periodically push it to their one-hop wired
neighbors and to associated terminals.  Pushes carry the sender's knowledge
as of the previous period (push happens before the sender refreshes its own
measurement), so neighbor records in a terminal's base are between one and
two periods old.  Terminals only ever learn about APs relayed by their
associated AP; a sensed AP without a record is simply not a candidate.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from .radio import QosVector


@dataclass(frozen=True)
class KnowledgeRecord:
    """One AP's advertised QoS as known by some agent, with measurement time."""

    ap_id: str
    qos: QosVector
    timestamp: float


@dataclass
class KnowledgeBase:
    """Latest-wins store of records held by one agent (AP or terminal)."""

    owner: str
    records: Dict[str, KnowledgeRecord] = field(default_factory=dict)

    def merge(self, record: KnowledgeRecord) -> None:
        """Insert the record unless a strictly newer one is already held."""
        existing = self.records.get(record.ap_id)
        if existing is None or record.timestamp > existing.timestamp:
            self.records[record.ap_id] = record


def diffuse(
    ap_bases: Mapping[str, KnowledgeBase],
    neighbors: Mapping[str, Tuple[str, ...]],
    measured: Mapping[str, QosVector],
    associations: Mapping[str, Optional[str]],
    now: float,
) -> Tuple[Dict[str, KnowledgeBase], Dict[str, KnowledgeBase]]:
    """Run one synchronous diffusion round at simulated time ``now``.

    Order within the round: every AP pushes its current self-record to its
    wired neighbors (so receivers see the previous period's measurement),
    then every AP refreshes its own record from ``measured``, then every
    associated terminal's base is replaced by its AP's new base.

    A terminal's base shares its AP's records dict and is read-only.  That
    is safe because each round builds a fresh dict for every AP and never
    writes to the dicts of the bases it was given.
    Returns (new AP bases, terminal bases for associated terminals).
    """
    pushes: Dict[str, Optional[KnowledgeRecord]] = {
        ap_id: base.records.get(ap_id) for ap_id, base in ap_bases.items()
    }

    new_ap_bases: Dict[str, KnowledgeBase] = {}
    for ap_id, base in ap_bases.items():
        updated = KnowledgeBase(owner=ap_id, records=dict(base.records))
        for neighbor in neighbors.get(ap_id, ()):
            pushed = pushes.get(neighbor)
            if pushed is not None:
                updated.merge(pushed)
        updated.merge(KnowledgeRecord(ap_id=ap_id, qos=dict(measured[ap_id]), timestamp=now))
        new_ap_bases[ap_id] = updated

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
