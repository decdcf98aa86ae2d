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

``known`` is that closed form.  The record-merging protocol itself, with
timestamped records and latest-wins merges, is kept only as the check of
``known`` (``ref_diffuse`` in ``tests/reference.py``).
"""

from typing import Dict, Mapping, Tuple, TypeVar

V = TypeVar("V")


def known(home: str, neighbors: Tuple[str, ...], current: Mapping[str, V],
          previous: Mapping[str, V]) -> Dict[str, V]:
    """What AP ``home`` knows after a round: its own entry of ``current``
    (this round) and its wired neighbors' entries of ``previous`` (the round
    before; empty before the first round), by AP id."""
    view = {n: previous[n] for n in neighbors if n in previous}
    view[home] = current[home]
    return view
