"""Command-line front door: run, sweep, compare, validate.

Every number printed to the terminal also lands in an emitted CSV, and all
output files are byte-for-byte reproducible for identical invocations.
Config overrides use dot paths (--set strategy.parameter=0.5) so the JSON
document stays the single source of truth.
"""

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple

from .engine import events_csv, run_simulation
from .metrics import (
    SWEEP_HEADER,
    RunMetrics,
    SweepReport,
    SweepRow,
    run_metrics,
    sweep,
    sweep_csv,
    sweep_row_csv,
    sweeps,
)
from .scenario import (
    DOCUMENT_KEYS,
    SEED_LIMIT,
    ScenarioConfig,
    ScenarioError,
    default_document,
    load_scenario,
    parse_scenario,
    serialize,
    validate,
)

METRICS_SCHEMA = "# hodsim metrics schema v1"
METRICS_HEADER = "mt,nb_ho,mean_score"

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2

# the sweepable strategy kinds, which --strategy, --strategy-a and --strategy-b take
DEFAULT_VALUE_GRIDS = {
    "hysteresis": "0:1:0.05",
    "waiting_time": "0:10:0.5",
    "randomized_wait": "0:10:0.5",
}
# Largest --values grid; a sweep runs every value once per seed.
MAX_GRID_VALUES = 10_000


def _plain_float(text: str) -> float:
    """float(text), refusing the '_' separators and non-ASCII digits float() also reads."""
    if "_" in text or not text.isascii():
        raise ValueError(text)
    return float(text)


def parse_values(grid: str, flag: str = "--values") -> List[float]:
    """Inclusive start:stop:step grid, e.g. 0:1:0.05 gives 21 values; errors
    name ``flag``."""
    try:
        start, stop, step = (_plain_float(p) for p in grid.split(":"))
    except ValueError as exc:
        raise ScenarioError(f"{flag}: expected start:stop:step, got {grid!r}") from exc
    if not all(math.isfinite(p) for p in (start, stop, step)):
        raise ScenarioError(f"{flag}: start, stop and step must be finite in {grid!r}")
    if step <= 0 or stop < start:
        raise ScenarioError(f"{flag}: need step > 0 and stop >= start in {grid!r}")
    # every strategy parameter is a margin or a wait, so none is negative
    if start < 0:
        raise ScenarioError(f"{flag}: strategy parameters must be >= 0, got {grid!r}")
    # The count is bounded before anything is built.  The loop keeps the
    # stop test it always had; its two extra steps leave room for the 1e-9
    # tolerance and the rounding.
    span = (stop - start + 1e-9) / step
    if span >= MAX_GRID_VALUES:
        raise ScenarioError(f"{flag}: {grid!r} gives more than {MAX_GRID_VALUES} values")
    values = []
    for i in range(int(span) + 2):
        v = round(start + i * step, 10)
        if v > stop + 1e-9:
            break
        values.append(v)
    if len(set(values)) != len(values):
        raise ScenarioError(f"{flag}: step too small, {grid!r} repeats values")
    return values


def apply_override(document: dict, assignment: str) -> None:
    """Apply one key=value override onto the raw config document.

    Each key of the dot path must be a field of its object, even one the
    document leaves out, a key already in a map such as ``base_qos``, or a
    list index in plain digits, so a typo cannot create a field.  The value
    is parsed as JSON when possible, else kept as a string.
    """
    if "=" not in assignment:
        raise ScenarioError(f"--set: expected key=value, got {assignment!r}")
    path, raw_value = assignment.split("=", 1)
    try:
        value = json.loads(raw_value)
    except json.JSONDecodeError:
        value = raw_value
    node = document
    keys = DOCUMENT_KEYS  # the keys node may hold; None for a map
    parts = path.split(".")
    for i, part in enumerate(parts):
        last = i == len(parts) - 1
        if isinstance(node, list):
            try:
                # plain digits only: int() would also read '-1', '+1', ' 1' and '1_0'
                if not (part.isascii() and part.isdigit()):
                    raise ValueError(part)
                idx = int(part)
                node[idx]
            except (ValueError, IndexError) as exc:
                raise ScenarioError(f"--set {path}: bad list index {part!r}") from exc
            if last:
                node[idx] = value
            else:
                node = node[idx]
        elif isinstance(node, dict):
            if part not in (node if keys is None else keys):
                raise ScenarioError(f"--set {path}: unknown config key {part!r}")
            if last:
                node[part] = value
            else:
                node, keys = node.get(part), None if keys is None else keys[part]
        else:
            raise ScenarioError(f"--set {path}: no object or list at {parts[i - 1]!r}")


def _load_document(args: argparse.Namespace) -> dict:
    if args.config is None:
        doc = default_document()
    else:
        try:
            doc = json.loads(Path(args.config).read_text())
        except (OSError, UnicodeDecodeError) as exc:
            raise ScenarioError(f"--config: cannot read {args.config!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"parse error in {args.config}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ScenarioError("parse error: top-level value must be an object")
    for assignment in args.set or []:
        apply_override(doc, assignment)
    return doc


def _seeds(args: argparse.Namespace, config: ScenarioConfig) -> List[int]:
    if args.seeds is None:
        return [config.rng_seed]
    items = [s.strip() for s in args.seeds.split(",") if s.strip() != ""]
    try:
        # plain digits only: int() would also read '-1', '+1', '1_0' and other scripts' digits
        if not all(s.isascii() and s.isdigit() for s in items):
            raise ValueError(args.seeds)
        seeds = [int(s) for s in items]  # raises past 4,300 digits too
    except ValueError as exc:
        raise ScenarioError(f"--seeds: expected comma-separated non-negative integers, "
                            f"got {args.seeds!r}") from exc
    if not seeds:
        raise ScenarioError(f"--seeds: expected at least one seed, got {args.seeds!r}")
    if len(set(seeds)) != len(seeds):
        raise ScenarioError(f"--seeds: each seed may appear once, got {args.seeds!r}")
    if max(seeds) >= SEED_LIMIT:
        raise ScenarioError(f"--seeds: each seed must be below 2**64, got {args.seeds!r}")
    return seeds


def _out_dir(args: argparse.Namespace) -> Path:
    """Make the ``--out`` directory; called before the first run, so a bad path fails early."""
    try:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ScenarioError(f"--out: cannot make directory {args.out!r}: {exc}") from exc
    return Path(args.out)


def _write(out_dir: Path, name: str, content: str) -> Path:
    path = out_dir / name
    with open(path, "w", newline="") as fh:
        fh.write(content)
    return path


def metrics_csv(rm: RunMetrics) -> str:
    """Per-terminal breakdown plus an ALL summary row holding the run means."""
    lines = [METRICS_SCHEMA, METRICS_HEADER]
    for mt in sorted(rm.nb_ho):
        lines.append(f"{mt},{rm.nb_ho[mt]},{rm.mt_score[mt]!r}")
    lines.append(f"ALL,{rm.ho_rate!r},{rm.score_rate!r}")
    return "\n".join(lines) + "\n"


def best_at_retention(report: SweepReport, retention: float,
                      key: Callable[[SweepRow], tuple]) -> Optional[SweepRow]:
    """The row minimizing ``key`` among those whose score rate keeps at least
    ``retention`` of the zero-parameter baseline; None without a baseline row
    or an eligible one."""
    baseline = next((r for r in report.rows if r.value == 0.0), None)
    if baseline is None:
        return None
    floor = retention * baseline.mean_score_rate
    eligible = [r for r in report.rows if r.mean_score_rate >= floor]
    return min(eligible, key=key) if eligible else None


def cmd_run(args: argparse.Namespace) -> int:
    config = load_scenario(_load_document(args))
    seeds = _seeds(args, config)
    out_dir = _out_dir(args)
    _write(out_dir, "scenario.json", json.dumps(serialize(config), separators=(",", ":")) + "\n")
    for seed in seeds:
        log = run_simulation(config, seed)
        rm = run_metrics(log)
        _write(out_dir, f"events_s{seed}.csv", events_csv(log))
        _write(out_dir, f"metrics_s{seed}.csv", metrics_csv(rm))
        print(f"seed {seed}: HO_rate {rm.ho_rate!r} Score_rate {rm.score_rate!r}")
    return EXIT_OK


def _sweep_choice(config: ScenarioConfig, strategy_arg: Optional[str], values_arg: Optional[str],
                  suffix: str = "") -> Tuple[str, List[float]]:
    """The strategy kind and value grid of one sweep; errors name the flag
    ``--values`` with ``suffix`` (``-a``, ``-b``)."""
    kind = strategy_arg or config.strategy.kind
    if kind == "none":  # the scenario's own kind has no parameter to sweep
        kind = "hysteresis"
    values = parse_values(values_arg or DEFAULT_VALUE_GRIDS[kind], f"--values{suffix}")
    if 0.0 not in values:
        # the zero row doubles as the no-strategy baseline for retention
        values = [0.0] + values
    return kind, values


def cmd_sweep(args: argparse.Namespace) -> int:
    config = load_scenario(_load_document(args))
    kind, values = _sweep_choice(config, args.strategy, args.values)
    seeds = _seeds(args, config)
    out_dir = _out_dir(args)
    report = sweep(config, kind, values, seeds)
    path = _write(out_dir, f"sweep_{kind}.csv", sweep_csv(report))
    # smallest worst case; ties go to the smaller parameter
    pick = best_at_retention(report, args.retention, lambda r: (r.worst_ho, r.value))
    print(f"sweep {kind}: {len(report.rows)} values x {len(seeds)} seeds -> {path}")
    if pick is None:
        print(f"no value keeps {args.retention:.0%} of the baseline score rate")
    else:
        print(f"recommended {kind} parameter {pick.value!r} "
              f"(worst-case HO count {pick.worst_ho}, mean score rate {pick.mean_score_rate!r}, "
              f"retention floor {args.retention:.0%})")
    return EXIT_OK


def compare_csv(report_a: SweepReport, report_b: SweepReport) -> str:
    lines = ["# hodsim compare schema v1", "strategy," + SWEEP_HEADER]
    for report in (report_a, report_b):
        lines.extend(f"{report.strategy_kind},{sweep_row_csv(r)}" for r in report.rows)
    return "\n".join(lines) + "\n"


def cmd_compare(args: argparse.Namespace) -> int:
    config = load_scenario(_load_document(args))
    kind_a, values_a = _sweep_choice(config, args.strategy_a, args.values_a, "-a")
    kind_b, values_b = _sweep_choice(config, args.strategy_b, args.values_b, "-b")
    if kind_a == kind_b:
        print("note: comparing a strategy against itself", file=sys.stderr)
    seeds = _seeds(args, config)
    out_dir = _out_dir(args)
    # paired run for run: both plans run on each seed's one record
    report_a, report_b = sweeps(config, [(kind_a, values_a), (kind_b, values_b)], seeds)
    path = _write(out_dir, f"compare_{kind_a}_vs_{kind_b}.csv", compare_csv(report_a, report_b))
    print(f"compare {kind_a} vs {kind_b} on seeds {','.join(str(s) for s in seeds)} -> {path}")
    best_a, best_b = (best_at_retention(report, args.retention, lambda r: (r.mean_ho_rate, r.value))
                      for report in (report_a, report_b))
    if best_a is None or best_b is None:
        print(f"no value keeps {args.retention:.0%} of the baseline score rate for both strategies")
        return EXIT_OK
    ha, hb = best_a.mean_ho_rate, best_b.mean_ho_rate
    print(f"{kind_a}: mean HO_rate {ha!r} at parameter {best_a.value!r}")
    print(f"{kind_b}: mean HO_rate {hb!r} at parameter {best_b.value!r}")
    if ha < hb:
        print(f"{kind_a} attains the lower mean HO_rate at matched score retention")
    elif hb < ha:
        print(f"{kind_b} attains the lower mean HO_rate at matched score retention")
    else:
        print("both strategies attain the same mean HO_rate at matched score retention")
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    config = parse_scenario(_load_document(args))
    violations = validate(config)
    if violations:
        for v in violations:
            print(v, file=sys.stderr)
        return EXIT_CONFIG
    print("configuration valid")
    return EXIT_OK


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a malformed argument as a ScenarioError, so it exits 1 like
    any other bad input instead of argparse's exit code 2."""

    def error(self, message: str):
        raise ScenarioError(message)


def _retention(text: str) -> float:
    try:
        value = _plain_float(text)
    except ValueError:
        value = math.nan
    if not 0.0 <= value <= 1.0:  # NaN fails the test too
        raise argparse.ArgumentTypeError(f"expected a fraction in [0, 1], got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="hodsim", description="WLAN handover decision simulator")
    sub = parser.add_subparsers(dest="verb", required=True)
    kinds = list(DEFAULT_VALUE_GRIDS)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", default=None, help="scenario JSON (default: built-in scenario)")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config field by dot path (repeatable)")

    def outputs(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", default="out", help="output directory (default: ./out)")
        p.add_argument("--seeds", default=None,
                       help="comma-separated non-negative seeds (default: the scenario's rng_seed)")

    p_run = sub.add_parser("run", help="execute single runs and write event/metric CSVs")
    common(p_run)
    outputs(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep a strategy parameter grid")
    common(p_sweep)
    outputs(p_sweep)
    p_sweep.add_argument("--strategy", choices=kinds, default=None)
    p_sweep.add_argument("--values", default=None, metavar="START:STOP:STEP")
    p_sweep.add_argument("--retention", type=_retention, default=0.95,
                         help="score-rate retention floor for the recommendation (default 0.95)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_cmp = sub.add_parser("compare", help="compare two strategies on identical seeds")
    common(p_cmp)
    outputs(p_cmp)
    p_cmp.add_argument("--strategy-a", choices=kinds, required=True)
    p_cmp.add_argument("--strategy-b", choices=kinds, required=True)
    p_cmp.add_argument("--values-a", default=None, metavar="START:STOP:STEP")
    p_cmp.add_argument("--values-b", default=None, metavar="START:STOP:STEP")
    p_cmp.add_argument("--retention", type=_retention, default=0.95)
    p_cmp.set_defaults(func=cmd_compare)

    p_val = sub.add_parser("validate", help="check a scenario document")
    common(p_val)
    p_val.set_defaults(func=cmd_validate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ScenarioError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
