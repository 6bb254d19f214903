"""Command-line entry point: single runs, policy comparisons, parameter sweeps.

Exit codes: 0 ok, 2 config error, 3 infeasible (including a zero-rate link),
4 internal error. Output files are written atomically (temp file + rename) and
are byte-stable across identical invocations. EDGESCHED_OUT_DIR sets the
default output directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from collections.abc import Iterable

from .config import SystemConfig, check_control_factor, check_seed, load_config, sample_round_environment
from .errors import ConfigError, InfeasibleError, SimulationAborted, StalledLinkError
from .orchestrator import POLICIES, _atomic_write, run_simulation, uniform_partition
from .pipeline import SegmentPlan, pipeline_latency

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_INTERNAL = 4

OUT_ENV_VAR = "EDGESCHED_OUT_DIR"


def _default_out() -> str:
    return os.environ.get(OUT_ENV_VAR, "out")


def _make_out_dir(path: str) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:  # an empty name, or one that names a file
        raise ConfigError("--out", f"cannot create output directory {path!r}: {exc.strerror}")


def _with_seed(cfg: SystemConfig, seed: int | None) -> SystemConfig:
    return cfg if seed is None else dataclasses.replace(cfg, rng_seed=check_seed(seed, "--seed"))


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _with_seed(load_config(args.config), args.seed)
    _make_out_dir(args.out)
    trace = run_simulation(cfg, args.rounds, args.policy)
    trace.write_jsonl(os.path.join(args.out, "trace.jsonl"))
    trace.write_summary_csv(os.path.join(args.out, "summary.csv"))
    s = trace.summary()
    final_q = trace.rounds[-1].queue_after if trace.rounds else ()
    max_y = max(final_q) if final_q else 0.0
    print(
        f"policy={s['policy']} rounds={s['rounds']} avg_tau={s['avg_tau_s']:.6g}s "
        f"avg_gamma={s['avg_gamma']:.6g} max_Y={max_y:.6g}"
    )
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    if len(set(policies)) != len(policies):
        raise ConfigError("--policies", "duplicate policy names")
    for p in policies:
        if p not in POLICIES:
            raise ConfigError("--policies", f"unknown policy {p!r}; expected one of {POLICIES}")
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError:
        raise ConfigError("--seeds", f"expected comma-separated integers, got {args.seeds!r}")
    if not seeds:
        raise ConfigError("--seeds", "at least one seed is required")
    if len(set(seeds)) != len(seeds):
        raise ConfigError("--seeds", "duplicate seeds")
    for seed in seeds:
        check_seed(seed, "--seeds")
    base = load_config(args.config)
    _make_out_dir(args.out)
    lines = ["policy,seed,round,tau_s,tau_cum_s"]
    for policy in policies:
        for seed in seeds:
            cfg = dataclasses.replace(base, rng_seed=seed)
            trace = run_simulation(cfg, args.rounds, policy)
            cum = 0.0
            for r in trace.rounds:
                cum += r.tau_round_s
                lines.append(f"{policy},{seed},{r.round_index},{r.tau_round_s!r},{cum!r}")
    _atomic_write(os.path.join(args.out, "compare.csv"), "\n".join(lines) + "\n")
    print(f"policies={','.join(policies)} seeds={len(seeds)} rounds={args.rounds} -> compare.csv")
    return EXIT_OK


def _parse_range(spec: str, name: str) -> tuple[int, int] | list[float]:
    """A ``lo..hi`` spec as its integer endpoints, else the listed numbers.

    A range is kept as its endpoints, which are checked before ``_values``
    iterates it, so a huge span is rejected without building it.
    """
    spec = spec.strip()
    if ".." in spec:
        lo_s, hi_s = spec.split("..", 1)
        try:
            lo, hi = int(lo_s), int(hi_s)
        except ValueError:
            raise ConfigError("--grid", f"{name}: range bounds must be integers, got {spec!r}")
        if lo > hi:
            raise ConfigError("--grid", f"{name}: empty range {spec!r}")
        return lo, hi
    try:
        values = [float(v) for v in spec.split(",") if v.strip()]
    except ValueError:
        raise ConfigError("--grid", f"{name}: expected numbers, got {spec!r}")
    if not values:
        raise ConfigError("--grid", f"{name}: no values given")
    return values


def _values(axis: tuple[int, int] | list[float]) -> Iterable[float]:
    """The axis values in order; a range is iterated lazily, never built whole."""
    if isinstance(axis, tuple):
        lo, hi = axis
        return map(float, range(lo, hi + 1))
    return axis


def _check_axis(axis: tuple[int, int] | list[float], name: str, upper: int, what: str) -> None:
    """Every value of a grid axis lies in [1, upper]; a range is checked by its endpoints."""
    for v in axis:
        if not 1 <= v <= upper:
            raise ConfigError("--grid", f"{name}: {v:g} lies outside [1, {upper}] ({what})")


def _parse_grid(grid: str) -> dict[str, tuple[int, int] | list[float]]:
    out: dict[str, tuple[int, int] | list[float]] = {}
    # split on commas that precede "name=" boundaries: parse name=value-list pairs
    parts: list[str] = []
    for chunk in grid.split(","):
        if "=" in chunk:
            parts.append(chunk)
        elif parts:
            parts[-1] += "," + chunk
        else:
            raise ConfigError("--grid", f"malformed grid spec {grid!r}")
    for part in parts:
        name, _, values = part.partition("=")
        name = name.strip()
        if name not in ("S", "m", "V"):
            raise ConfigError("--grid", f"unknown grid axis {name!r} (expected S, m, or V)")
        if name in out:
            raise ConfigError("--grid", f"duplicate grid axis {name!r}")
        out[name] = _parse_range(values, name)
        if name == "V":
            for v in out[name]:  # a range's endpoints bound every value in it
                check_control_factor(v, "--grid")
        elif isinstance(out[name], list) and not all(v.is_integer() for v in out[name]):
            raise ConfigError("--grid", f"{name}: values must be integers, got {values!r}")
    if set(out) not in ({"S", "m"}, {"V"}):
        raise ConfigError("--grid", "grid must be either S=..,m=.. or V=..")
    return out


def _sweep_segments(cfg: SystemConfig, s_values: Iterable[float], m_values: list[float], out_dir: str) -> None:
    env = sample_round_environment(cfg, 1)
    header = "S\\m," + ",".join(str(int(m)) for m in m_values)
    lines = [header]
    for s_f in s_values:
        s = int(s_f)
        row = [str(s)]
        for m_f in m_values:
            m = int(m_f)
            try:
                plan = SegmentPlan(delta=uniform_partition(cfg, 0, list(range(s))), m=m)
                row.append(repr(pipeline_latency(plan, cfg, env, 0)))
            except InfeasibleError:
                row.append("")
        lines.append(",".join(row))
    _atomic_write(os.path.join(out_dir, "sweep.csv"), "\n".join(lines) + "\n")


def _sweep_control_factor(cfg: SystemConfig, v_values: Iterable[float], rounds: int, out_dir: str) -> None:
    lines = ["V,avg_tau_s,avg_gamma,max_queue_over_t"]
    for v in v_values:
        cfg_v = dataclasses.replace(cfg, convergence=dataclasses.replace(cfg.convergence, v_factor=v))
        trace = run_simulation(cfg_v, rounds, "lyapunov")
        s = trace.summary()
        lines.append(f"{v!r},{s['avg_tau_s']!r},{s['avg_gamma']!r},{s['max_queue_over_t']!r}")
    _atomic_write(os.path.join(out_dir, "sweep.csv"), "\n".join(lines) + "\n")


def cmd_sweep(args: argparse.Namespace) -> int:
    grid = _parse_grid(args.grid)
    cfg = _with_seed(load_config(args.config), args.seed)
    _make_out_dir(args.out)
    if "V" in grid:
        _sweep_control_factor(cfg, _values(grid["V"]), args.rounds, args.out)
    else:
        _check_axis(grid["S"], "S", min(cfg.clusters[0].n_devices, cfg.model.n_blocks), "min(devices in cluster 0, blocks L)")
        _check_axis(grid["m"], "m", cfg.model.batch_items, "batch size b")
        _sweep_segments(cfg, _values(grid["S"]), list(_values(grid["m"])), args.out)
    print(f"sweep grid={args.grid} -> sweep.csv")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="edgesched", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate one policy and write trace + summary")
    run.add_argument("config")
    run.add_argument("--policy", default="lyapunov", choices=POLICIES)
    run.add_argument("--rounds", type=int, default=200)
    run.add_argument("--seed", type=int, default=None, help="override the config rng seed")
    run.add_argument("--out", default=_default_out())
    run.set_defaults(func=cmd_run)

    comp = sub.add_parser("compare", help="run several policies on identical environments")
    comp.add_argument("config")
    comp.add_argument("--policies", default="lyapunov,random,loss,delay")
    comp.add_argument("--rounds", type=int, default=200)
    comp.add_argument("--seeds", default="0")
    comp.add_argument("--out", default=_default_out())
    comp.set_defaults(func=cmd_compare)

    sweep = sub.add_parser("sweep", help="latency surface over (S, m) or runs over V")
    sweep.add_argument("config")
    sweep.add_argument("--grid", required=True, help='e.g. "S=1..6,m=1..16" or "V=0.01,10,100"')
    sweep.add_argument("--rounds", type=int, default=50, help="rounds per cell for V sweeps")
    sweep.add_argument("--seed", type=int, default=None)
    sweep.add_argument("--out", default=_default_out())
    sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.rounds < 0:
            raise ConfigError("--rounds", f"must be >= 0, got {args.rounds}")
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InfeasibleError, SimulationAborted, StalledLinkError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except Exception as exc:  # defensive: anything else is a bug
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
