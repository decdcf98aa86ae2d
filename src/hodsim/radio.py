"""Synthetic radio layer: disk coverage sensing and load-dependent AP QoS.

There is no propagation model here on purpose; the decision logic under test
is signal-agnostic and works on QoS vectors.  An AP is sensed iff the
terminal is inside its coverage disk, boundary included, and the QoS it
offers degrades with the number of associated users.

Sensing works on many positions at once: ``sensed_aps`` takes every
position of a block of whole steps, so the engine calls it once per block.
"""

import math
from operator import attrgetter
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from .scenario import ApProfile

# A QoS vector maps criterion id -> offered value (same keys as the
# configured criteria; all values >= 0).
QosVector = Dict[str, float]


# Squares within this relative band of each other, or beyond the float range
# or below _TINY (underflow rounds them coarsely), are decided by math.hypot.
_BOUNDARY_BAND = 1e-12
_TINY = np.finfo(float).tiny


def sensed_aps(positions: Union[np.ndarray, Sequence[Tuple[float, float]]],
               aps: Sequence[ApProfile]) -> List[Tuple[str, ...]]:
    """For each position (an (n, 2) array or a sequence of pairs), the ids of
    all APs whose coverage disk contains it, sorted by id.

    A position is inside a disk iff ``math.hypot(dx, dy) <= coverage_radius``.
    numpy compares ``dx*dx + dy*dy`` with the squared radius; entries close
    to it or out of the normal float range are decided with ``math.hypot``.
    """
    aps = sorted(aps, key=attrgetter("id"))
    ax, ay, radii = np.array([(ap.position[0], ap.position[1], ap.coverage_radius)
                              for ap in aps], dtype=float).reshape(-1, 3).T
    xy = np.asarray(positions, dtype=float).reshape(-1, 2)
    # beyond the float range a value is inf, as in plain float arithmetic
    with np.errstate(over="ignore", invalid="ignore"):
        dx = ax - xy[:, :1]
        dy = ay - xy[:, 1:]
        d2 = dx * dx + dy * dy
        r2 = radii * radii
        inside = d2 <= r2
        recheck = (np.abs(d2 - r2) <= r2 * _BOUNDARY_BAND) | (d2 < _TINY) | (d2 == np.inf)
    recheck[:, (r2 < _TINY) | (r2 == np.inf)] = True
    rows, cols = np.nonzero(recheck)
    for i, j in zip(rows.tolist(), cols.tolist()):
        inside[i, j] = math.hypot(dx[i, j], dy[i, j]) <= radii[j]
    # the hits row by row, each row's in id order
    rows, cols = np.nonzero(inside)
    ids = [ap.id for ap in aps]
    hits = [ids[j] for j in cols.tolist()]
    ends = np.bincount(rows, minlength=len(xy)).cumsum().tolist()
    return [tuple(hits[start:end]) for start, end in zip([0] + ends, ends)]


def ap_qos(ap: ApProfile, load: int) -> QosVector:
    """Default load model for ``ap`` serving ``load`` associated users:
    bandwidth is shared equally, delay grows linearly with the user count,
    everything else keeps its nominal value.

    Any callable with this signature can replace it (see engine.run_simulation).
    """
    out: QosVector = {}
    for key, base in ap.base_qos.items():
        if key == "bandwidth":
            out[key] = base / max(1, load)
        elif key == "delay":
            out[key] = base * (1 + load)
        else:
            out[key] = base
    return out


def apply_jitter(qos: QosVector, noise: Sequence[float]) -> QosVector:
    """``qos`` with pre-drawn ``noise[p]`` added to its p-th component in key
    order, clipped at zero."""
    return {key: max(0.0, value + delta) for (key, value), delta in zip(qos.items(), noise)}
