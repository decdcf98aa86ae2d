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

``known`` is that closed form on APs numbered 0..A-1, by index.  The
record-merging protocol itself, with timestamped records and latest-wins
merges, is kept only as the check of ``known`` (``ref_diffuse`` in
``tests/reference.py``, through an id-to-index map).
"""

from typing import Optional, Sequence, Tuple, TypeVar

V = TypeVar("V")


def known(home: int, neighbors: Sequence[int], current: Sequence[V],
          previous: Sequence[Optional[V]]) -> Tuple[Optional[V], ...]:
    """What AP ``home`` knows after a round, by AP index: its own entry of
    ``current`` (this round), its wired neighbors' entries of ``previous``
    (the round before; all None before the first round), None elsewhere."""
    view = [None] * len(current)
    for n in neighbors:
        view[n] = previous[n]
    view[home] = current[home]
    return tuple(view)
