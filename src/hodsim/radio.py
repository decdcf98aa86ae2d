"""Synthetic radio layer: disk coverage sensing and load-dependent AP QoS.

There is no propagation model here on purpose; the decision logic under test
is signal-agnostic and works on QoS vectors.  An AP is sensed iff the
terminal is inside its coverage disk, boundary included, and the QoS it
offers degrades with the number of associated users.

Sensing and jitter work on one whole step: ``sensed_aps`` takes every
position of the step and ``apply_jitter`` every offered vector, so the
engine calls each once per step.
"""

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from .scenario import ApProfile

# A QoS vector maps criterion id -> offered value (same keys as the
# configured criteria; all values >= 0).
QosVector = Dict[str, float]


@dataclass(frozen=True)
class ApLoadState:
    """Number of users currently associated to one AP."""

    ap_id: str
    associated_user_count: int


# A computed distance within this relative band of the radius is computed
# again with math.hypot: numpy's hypot may differ from it in the last bit.
_BOUNDARY_BAND = 1e-12


def sensed_aps(positions: Union[np.ndarray, Sequence[Tuple[float, float]]],
               aps: Sequence[ApProfile]) -> List[Tuple[str, ...]]:
    """For each position (an (n, 2) array or a sequence of pairs), the ids of
    all APs whose coverage disk contains it, sorted by id.

    A position is inside a disk iff ``math.hypot(dx, dy) <= coverage_radius``.
    The distances are computed with numpy; only those too close to the
    radius for numpy's rounding to decide are computed with ``math.hypot``.
    """
    aps = sorted(aps, key=attrgetter("id"))
    ax, ay, radii = np.array([(ap.position[0], ap.position[1], ap.coverage_radius)
                              for ap in aps], dtype=float).reshape(-1, 3).T
    xy = np.asarray(positions, dtype=float).reshape(-1, 2)
    # a difference beyond the float range is inf, as in plain float arithmetic
    with np.errstate(over="ignore"):
        dx = ax - xy[:, :1]
        dy = ay - xy[:, 1:]
        distance = np.hypot(dx, dy)
    inside = distance <= radii
    rows, cols = np.nonzero(np.abs(distance - radii) <= radii * _BOUNDARY_BAND)
    for i, j in zip(rows.tolist(), cols.tolist()):
        inside[i, j] = math.hypot(dx[i, j], dy[i, j]) <= radii[j]
    # the hits row by row, each row's in id order
    rows, cols = np.nonzero(inside)
    ids = [ap.id for ap in aps]
    hits = [ids[j] for j in cols.tolist()]
    ends = np.bincount(rows, minlength=len(xy)).cumsum().tolist()
    return [tuple(hits[start:end]) for start, end in zip([0] + ends, ends)]


def ap_qos(ap: ApProfile, load: ApLoadState) -> QosVector:
    """Default load model: bandwidth is shared equally, delay grows linearly
    with the user count, everything else keeps its nominal value.

    Any callable with this signature can replace it (see engine.run_simulation).
    """
    if load.ap_id != ap.id:
        raise ValueError(f"load state for {load.ap_id!r} applied to ap {ap.id!r}")
    n = load.associated_user_count
    out: QosVector = {}
    for key, base in ap.base_qos.items():
        if key == "bandwidth":
            out[key] = base / max(1, n)
        elif key == "delay":
            out[key] = base * (1 + n)
        else:
            out[key] = base
    return out


def apply_jitter(vectors: Sequence[QosVector], sigma: float,
                 rng: np.random.Generator) -> List[QosVector]:
    """Add zero-mean Gaussian noise to every component of every vector,
    clipped at zero.

    All noise comes from one ``rng.normal`` call, drawn for the vectors in
    the order given and, within a vector, in its key order; the values and
    the generator's final state equal those of one scalar draw per
    component.  sigma=0 returns the vectors unchanged without consuming
    randomness.
    """
    if sigma <= 0:
        return list(vectors)
    noise = iter(rng.normal(0.0, sigma, sum(map(len, vectors))).tolist())
    return [{key: max(0.0, value + next(noise)) for key, value in qos.items()}
            for qos in vectors]
