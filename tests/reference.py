"""Independent brute-force evaluator for the decision pipeline.

Written directly from the formulas in a deliberately different style (plain
dicts, explicit loops, its own math) and sharing no code with the package,
so agreement with the production pipeline is meaningful evidence.
"""

import math


def ref_utility(x, alpha):
    return 1.0 - math.exp(-alpha * x)


def ref_benefit(value, direction, cap):
    if direction == "benefit":
        return value
    if value == 0.0:
        return cap
    inv = 1.0 / value
    if inv > cap:
        inv = cap
    return inv


def ref_meets(offered, required, criteria):
    for crit in criteria:
        need = required[crit["id"]]
        if need == 0.0:
            continue
        got = offered[crit["id"]]
        if crit["direction"] == "benefit" and got < need:
            return False
        if crit["direction"] == "cost" and got > need:
            return False
    return True


def ref_score(offered, required, criteria, gated, cap):
    if gated and not ref_meets(offered, required, criteria):
        return 0.0
    total = 0.0
    for crit in criteria:
        x = ref_benefit(offered[crit["id"]], crit["direction"], cap)
        total = total + ref_utility(x, crit["alpha"])
    return total


def ref_best(scored):
    """scored: list of (ap id, value); highest value, lowest id on ties."""
    if not scored:
        return None
    ordered = sorted(scored, key=lambda pair: (-pair[1], pair[0]))
    return ordered[0]


def ref_decide(c_asso, scored, kind, parameter, wait_until, now):
    """Returns (action, target, suppressed) from the raw candidate list."""
    top = ref_best(scored)
    if top is None:
        return ("stay", None, False)
    ap, value = top
    if value <= c_asso:
        return ("stay", None, False)
    if kind == "hysteresis":
        if value > c_asso + parameter:
            return ("handover", ap, False)
        return ("stay", None, True)
    if kind in ("waiting_time", "randomized_wait"):
        if now < wait_until:
            return ("stay", None, True)
        return ("handover", ap, False)
    return ("handover", ap, False)


def ref_merge(records, ap_id, qos, timestamp):
    """Latest-wins insert into records (ap id -> (qos, timestamp)): keep the
    held record unless the offered one is strictly newer."""
    held = records.get(ap_id)
    if held is None or timestamp > held[1]:
        records[ap_id] = (qos, timestamp)


def ref_diffuse(ap_records, neighbors, measured, associations, now):
    """One round of the generic record-merging protocol.

    ap_records: ap id -> {ap id -> (qos, timestamp)} after the previous round
    (empty dicts before the first).  Every AP pushes whatever record it holds
    of itself to its wired neighbors, each receiver merges the pushes into a
    copy of everything it held, then every AP merges its fresh measurement,
    and every associated terminal receives a copy of its AP's records.
    Returns (new ap_records, terminal id -> records for associated terminals).
    """
    pushes = {}
    for ap, records in ap_records.items():
        if ap in records:
            pushes[ap] = records[ap]
    new_records = {}
    for ap, records in ap_records.items():
        updated = dict(records)
        for other in neighbors.get(ap, ()):
            if other in pushes:
                qos, timestamp = pushes[other]
                ref_merge(updated, other, qos, timestamp)
        ref_merge(updated, ap, dict(measured[ap]), now)
        new_records[ap] = updated
    terminals = {}
    for mt, ap in associations.items():
        if ap is not None:
            terminals[mt] = dict(new_records[ap])
    return new_records, terminals


def ref_sensed(position, aps):
    """Ids of the APs whose coverage disk holds the position, boundary
    included, sorted: one math.hypot per AP."""
    px, py = position
    hits = []
    for ap in aps:
        if math.hypot(ap.position[0] - px, ap.position[1] - py) <= ap.coverage_radius:
            hits.append(ap.id)
    hits.sort()
    return tuple(hits)


def ref_jitter(vector, sigma, rng):
    """One vector jittered with one scalar draw per component, in key order,
    each clipped at zero."""
    out = {}
    for key in vector:
        out[key] = max(0.0, vector[key] + float(rng.normal(0.0, sigma)))
    return out
