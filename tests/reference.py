"""Independent brute-force evaluator for the decision pipeline.

Written directly from the formulas in a deliberately different style (plain
dicts, explicit loops, its own math) and sharing no code with the package,
so agreement with the production pipeline is meaningful evidence.  Only
``ref_run`` takes one thing from the package: the derivation of its random
streams, which draw the numbers a run is made of.
"""

import math

from hodsim.engine import _stream

# The largest float below 1: a saturated utility stays below 1.
_BELOW_ONE = 1.0 - 2.0 ** -53


def ref_utility(x, alpha):
    # 1 - e^(-ax) in the form that keeps every bit of small values, so that
    # ref_run's scores, which its CSV prints with repr, are the engine's
    value = -math.expm1(-alpha * x)
    if value > _BELOW_ONE:
        value = _BELOW_ONE
    return value


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


def ref_step(state, dt, area, user, rng):
    """One Random Way Point step of ``state = (position, waypoint, phase,
    pause)``, phase "paused" or "moving".

    A pause counts down by dt; once it is used up a waypoint is drawn
    uniformly in the area (x, then y) and the terminal moves from the next
    step.  A move covers speed * dt towards the waypoint; within 1e-6 m of it
    the terminal stands on it and draws its next pause from ``pause_range``.
    """
    position, waypoint, phase, pause = state
    if phase == "paused":
        remaining = pause - dt
        if remaining > 0:
            return position, waypoint, "paused", remaining
        waypoint = (float(rng.uniform(0.0, area[0])), float(rng.uniform(0.0, area[1])))
        return position, waypoint, "moving", 0.0
    dx = waypoint[0] - position[0]
    dy = waypoint[1] - position[1]
    dist = math.hypot(dx, dy)
    travel = user.speed * dt
    if travel + 1e-6 >= dist:
        low, high = user.pause_range
        return waypoint, waypoint, "paused", float(rng.uniform(low, high))
    frac = travel / dist
    return (position[0] + frac * dx, position[1] + frac * dy), waypoint, "moving", pause


def ref_jitter(vector, sigma, rng):
    """One vector jittered with one scalar draw per component, in key order,
    each clipped at zero."""
    out = {}
    for key in vector:
        out[key] = max(0.0, vector[key] + float(rng.normal(0.0, sigma)))
    return out


def ref_run(config, seed, qos_model):
    """The ``events_*.csv`` text of one run, from the plain step loop.

    No table, memo, closed form, replay or batch: at every step each mobile
    terminal moves (``ref_step``) and senses its APs (``ref_sensed``), the load of every AP
    is counted again and its QoS asked of ``qos_model`` (then jittered with
    ``ref_jitter``, APs in id order), a diffusion step runs one
    ``ref_diffuse`` round of timestamped records, and every terminal scores
    what it knows with ``ref_score`` and decides with ``ref_best`` and
    ``ref_decide``, with one wait time per terminal.  Switches take effect at
    the next step; a handover then costs ``handover_cost_steps`` disconnected
    steps, and a terminal without an AP re-joins the nearest sensed AP that
    offers any nonzero QoS.
    """
    dt = config.decision_step
    steps = int(round(config.sim_time / dt))
    every = int(round(config.diffusion_period / dt))
    aps = sorted(config.aps, key=lambda ap: ap.id)
    by_id = {ap.id: ap for ap in aps}
    neighbors = {ap.id: tuple(ap.wired_neighbors) for ap in aps}
    criteria = [{"id": c.id, "direction": c.direction, "alpha": c.alpha} for c in config.criteria]
    cap, gate, sigma = config.max_benefit, config.gate_candidates, config.qos_jitter_sigma
    kind, parameter = config.strategy.kind, config.strategy.parameter
    users = sorted(config.users, key=lambda u: u.id)
    mobile = [u for u in users if u.mobile]

    # t=0: users in id order each join the best AP they sense, scored as a
    # candidate at the loads the users before them left
    load = {ap.id: 0 for ap in aps}
    first = {}
    for u in users:
        scored = []
        for ap_id in ref_sensed(u.initial_position, aps):
            offered = qos_model(by_id[ap_id], load[ap_id])
            scored.append((ap_id, ref_score(offered, u.app_requirements, criteria, gate, cap)))
        top = ref_best(scored)
        first[u.id] = None if top is None else top[0]
        if top is not None:
            load[top[0]] += 1
    static = {ap.id: 0 for ap in aps}
    for u in users:
        if not u.mobile and first[u.id] is not None:
            static[first[u.id]] += 1

    moves, draws, where = {}, {}, {}
    assoc, wait, away, knows = {}, {}, {}, {}
    for u in mobile:
        moves[u.id] = _stream(seed, "mobility", u.id)
        draws[u.id] = _stream(seed, "strategy", u.id)
        pause = float(moves[u.id].uniform(u.pause_range[0], u.pause_range[1]))
        where[u.id] = (u.initial_position, u.initial_position, "paused", pause)
        assoc[u.id], wait[u.id], away[u.id], knows[u.id] = first[u.id], 0.0, 0, {}
    noise = _stream(seed, "qos-jitter")
    records = {ap.id: {} for ap in aps}
    lines = ["# hodsim events schema v1", "time,mt,associated_ap,action,c_asso,c_best,suppressed"]

    for k in range(steps):
        now = k * dt
        load = dict(static)
        for m in assoc:
            if assoc[m] is not None:
                load[assoc[m]] += 1
        measured = {}
        for ap in aps:
            offered = qos_model(ap, load[ap.id])
            measured[ap.id] = ref_jitter(offered, sigma, noise) if sigma > 0 else dict(offered)
        if k % every == 0:
            records, delivered = ref_diffuse(records, neighbors, measured, assoc, now)
            knows.update(delivered)

        switches = []
        for u in mobile:
            m = u.id
            where[m] = ref_step(where[m], dt, config.area, u, moves[m])
            x, y = where[m][0]
            sensed = ref_sensed((x, y), aps)
            if assoc[m] not in sensed:
                assoc[m] = None  # out of coverage: no handover, no cost
            row = (assoc[m], "stay", 0.0, 0.0, False)
            if away[m] > 0:
                away[m] -= 1
            elif assoc[m] is None:
                usable = []
                for ap_id in sensed:
                    if any(value > 0 for value in measured[ap_id].values()):
                        ap = by_id[ap_id]
                        usable.append((math.hypot(ap.position[0] - x, ap.position[1] - y), ap_id))
                if usable:
                    switches.append((m, min(usable)[1], False))
            else:
                held = knows[m]
                c_asso = 0.0
                if assoc[m] in held:
                    c_asso = ref_score(held[assoc[m]][0], u.app_requirements, criteria, True, cap)
                scored = [(ap_id, ref_score(held[ap_id][0], u.app_requirements, criteria, gate, cap))
                          for ap_id in sensed if ap_id != assoc[m] and ap_id in held]
                top = ref_best(scored)
                action, target, suppressed = ref_decide(c_asso, scored, kind, parameter, wait[m], now)
                if action == "handover":
                    switches.append((m, target, True))
                    if kind == "waiting_time":
                        wait[m] = now + parameter
                    elif kind == "randomized_wait":
                        wait[m] = now + float(draws[m].uniform(0.0, parameter))
                row = (assoc[m], action, c_asso, 0.0 if top is None else top[1], suppressed)
            ap_id, action, c_asso, c_best, suppressed = row
            lines.append(f"{now!r},{m},{ap_id or ''},{action},{c_asso!r},{c_best!r},{int(suppressed)}")
        for m, target, handover in switches:
            assoc[m] = target
            if handover:
                away[m] = config.handover_cost_steps
    return "\n".join(lines) + "\n"


def ref_events_csv(log):
    """The ``events_*.csv`` text of an engine ``EventLog``, every row
    formatted on its own."""
    lines = ["# hodsim events schema v1", "time,mt,associated_ap,action,c_asso,c_best,suppressed"]
    dt = log.config.decision_step
    for k in range(log.nb_steps):
        for m in log.mt_ids:
            associated, action, c_asso, c_best, suppressed = log.outcomes[m][k]
            lines.append(",".join([repr(k * dt), m, associated if associated is not None else "",
                                   action, repr(c_asso), repr(c_best), "1" if suppressed else "0"]))
    return "\n".join(lines) + "\n"
