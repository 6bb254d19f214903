import csv
import json
import math

import pytest

from edgesched.cli import main
from edgesched.config import sample_round_environment
from edgesched.orchestrator import uniform_partition
from edgesched.pipeline import SegmentPlan, pipeline_latency

from conftest import HOMOGENEOUS, TABLE2


def test_run_zero_rounds_ok(tmp_path, capsys):
    rc = main(["run", TABLE2, "--rounds", "0", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "trace.jsonl").read_text() == ""
    assert "rounds=0" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["run", TABLE2],
        ["compare", TABLE2],
        ["sweep", HOMOGENEOUS, "--grid", "V=1"],
    ],
    ids=["run", "compare", "sweep"],
)
def test_negative_rounds_is_a_usage_error(tmp_path, capsys, argv):
    assert main(argv + ["--rounds", "-1", "--out", str(tmp_path)]) == 2
    assert "--rounds" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["abc", 1.7, True])
def test_run_non_integer_seed_is_a_config_error(tmp_path, capsys, seed):
    with open(TABLE2, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["rng_seed"] = seed
    path = tmp_path / "seed.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", str(path), "--rounds", "1", "--out", str(tmp_path)]) == 2
    assert "rng_seed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, env_seed, name",
    [
        (["run", TABLE2, "--seed", "-3"], None, "--seed"),
        (["compare", TABLE2, "--seeds=-1"], None, "--seeds"),
        (["sweep", HOMOGENEOUS, "--grid", "V=1", "--seed", "-2"], None, "--seed"),
        (["run", TABLE2], "-1", "EDGESCHED_SEED"),
    ],
    ids=["run", "compare", "sweep", "env"],
)
def test_negative_seed_override_is_a_config_error(tmp_path, capsys, monkeypatch, argv, env_seed, name):
    # the config file's rng_seed rule (an integer >= 0) holds for every override
    if env_seed is not None:
        monkeypatch.setenv("EDGESCHED_SEED", env_seed)
    assert main(argv + ["--rounds", "1", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {name}: must be an integer >= 0")


@pytest.mark.parametrize("v", ["-1", "0", "nan", "inf"])
def test_sweep_control_factor_must_be_finite_and_positive(tmp_path, capsys, v):
    # the grid's V values follow the config file's rule for convergence.V
    assert main(["sweep", TABLE2, "--grid", f"V={v}", "--rounds", "1", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("config error: --grid: V must be finite and > 0")


@pytest.mark.parametrize(
    "v, rule",
    [
        (math.inf, "must be finite"),
        (math.nan, "must be finite"),
        (0, "V must be finite and > 0"),
        (-1, "V must be finite and > 0"),
    ],
    ids=["inf", "nan", "0", "-1"],
)
def test_run_control_factor_must_be_finite_and_positive(tmp_path, capsys, v, rule):
    # a non-finite V meets the rule every config number follows before V's own
    with open(TABLE2, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["convergence"]["V"] = v  # written as Infinity / NaN, which json reads back
    path = tmp_path / "v.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", str(path), "--rounds", "1", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: convergence.V: {rule}")


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


@pytest.mark.parametrize(
    "path, value, policy",
    [
        (("convergence", "gamma_max_bound"), math.inf, "lyapunov"),
        (("clusters", 0, "devices", 0, "E_k_max_j"), math.inf, "lyapunov"),
        (("clusters", 0, "devices", 0, "gamma_max_bytes"), math.inf, "lyapunov"),
        (("clusters", 0, "B_up_hz"), math.inf, "lyapunov"),
        (("clusters", 0, "B_up_hz"), math.inf, "loss"),
        (("clusters", 0, "h_up_db"), [math.nan, 0], "lyapunov"),
        (("clusters", 0, "devices", 0, "f_hz"), [1e8, math.inf], "lyapunov"),
        (("loss_proxy", "scale"), math.nan, "loss"),
        (("model", "b"), 10**400, "lyapunov"),  # an integer no float can hold
        # finite ends, but a draw lo + (hi - lo) * u would overflow
        (("clusters", 0, "h_up_db"), [-1e308, 1e308], "random"),
        (("clusters", 0, "h_dd_db"), [-1e308, 1e308], "random"),
        # finite in dB, but 10 ** (dB / 10) overflows
        (("clusters", 0, "h_up_db"), [1e300, 1e301], "random"),
        (("N0_dbm_per_hz",), 1e308, "lyapunov"),
    ],
    ids=[
        "gamma_max_bound",
        "E_k_max_j",
        "gamma_max_bytes",
        "B_up_hz",
        "B_up_hz-loss",
        "h_up_db",
        "f_hz",
        "scale",
        "b",
        "h_up_db-width",
        "h_dd_db-width",
        "h_up_db-linear",
        "N0_dbm_per_hz-linear",
    ],
)
def test_run_non_finite_config_number_is_a_config_error(tmp_path, capsys, path, value, policy):
    with open(TABLE2, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc.setdefault("loss_proxy", {})
    _set(doc, path, value)
    config = tmp_path / "non_finite.json"
    config.write_text(json.dumps(doc), encoding="utf-8")  # written as Infinity / NaN
    rc = main(["run", str(config), "--policy", policy, "--rounds", "2", "--out", str(tmp_path / "out")])
    assert rc == 2
    field = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")
    assert capsys.readouterr().err.startswith(f"config error: {field}: must be finite")


def test_run_noise_density_below_float_range_is_a_config_error(tmp_path, capsys):
    # -4000 dBm/Hz underflows to 0 W/Hz, which without D2D interference would
    # leave a hop's signal-to-noise ratio without a denominator
    with open(TABLE2, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["N0_dbm_per_hz"] = -4000
    for cluster in doc["clusters"]:
        cluster["I_dd_w"] = 0
    config = tmp_path / "quiet.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", str(config), "--rounds", "2", "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("config error: N0_dbm_per_hz: must be > 0")


@pytest.mark.parametrize(
    "path, value",
    [
        (("clusters", 0, "devices", 0, "gamma0_bytes"), 5e-324),  # memory / gamma0 is inf
        (("clusters", 0, "devices", 0, "E_k_max_j"), 1e308),  # energy / per-block energy is inf
        (("convergence", "gamma_max_bound"), 1e308),  # the balance cap's S^2 is inf
    ],
    ids=["gamma0_bytes", "E_k_max_j", "gamma_max_bound"],
)
def test_run_infinite_block_or_segment_cap_runs(tmp_path, path, value):
    # a cap whose float quotient is infinite is clamped before int(), to at
    # most MAX_BLOCKS blocks per device and at most L segments
    with open(TABLE2, encoding="utf-8") as fh:
        doc = json.load(fh)
    _set(doc, path, value)
    config = tmp_path / "wide.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", str(config), "--rounds", "2", "--out", str(tmp_path / "out")]) == 0


def test_run_bad_path_exits_nonzero(tmp_path, capsys):
    rc = main(["run", str(tmp_path / "nope.json"), "--rounds", "1", "--out", str(tmp_path)])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_run_smoke_produces_finite_summary(tmp_path, capsys):
    rc = main(["run", TABLE2, "--policy", "lyapunov", "--rounds", "3", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "avg_tau=" in out and "nan" not in out and "inf" not in out
    lines = (tmp_path / "trace.jsonl").read_text().splitlines()
    assert len(lines) == 3
    rec = json.loads(lines[0])
    assert rec["t"] == 1
    rows = (tmp_path / "summary.csv").read_text().splitlines()
    assert rows[0] == "metric,value"
    assert any(r.startswith("avg_tau_s,") for r in rows)


def test_run_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", TABLE2, "--rounds", "2", "--out", str(out1)]) == 0
    assert main(["run", TABLE2, "--rounds", "2", "--out", str(out2)]) == 0
    assert (out1 / "trace.jsonl").read_bytes() == (out2 / "trace.jsonl").read_bytes()
    assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()


def test_compare_duplicate_policy_rejected(tmp_path, capsys):
    rc = main(["compare", TABLE2, "--policies", "loss,loss", "--rounds", "1", "--out", str(tmp_path)])
    assert rc == 2
    assert "duplicate" in capsys.readouterr().err


def test_compare_unknown_policy_rejected(tmp_path):
    rc = main(["compare", TABLE2, "--policies", "lyapunov,bogus", "--rounds", "1", "--out", str(tmp_path)])
    assert rc == 2


def test_compare_rows_ordered_and_complete(tmp_path):
    rc = main(
        [
            "compare",
            TABLE2,
            "--policies",
            "lyapunov,loss",
            "--rounds",
            "3",
            "--seeds",
            "1,2",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    rows = list(csv.DictReader((tmp_path / "compare.csv").open()))
    assert len(rows) == 2 * 2 * 3
    keys = [(r["policy"], int(r["seed"]), int(r["round"])) for r in rows]
    assert keys == sorted(keys, key=lambda x: (["lyapunov", "loss"].index(x[0]), x[1], x[2]))
    for r in rows:
        assert float(r["tau_cum_s"]) >= float(r["tau_s"]) - 1e-12


def test_compare_single_policy_matches_run(tmp_path):
    assert main(["run", TABLE2, "--rounds", "2", "--seed", "3", "--out", str(tmp_path / "r")]) == 0
    assert (
        main(
            [
                "compare",
                TABLE2,
                "--policies",
                "lyapunov",
                "--rounds",
                "2",
                "--seeds",
                "3",
                "--out",
                str(tmp_path / "c"),
            ]
        )
        == 0
    )
    trace = [json.loads(l) for l in (tmp_path / "r" / "trace.jsonl").read_text().splitlines()]
    rows = list(csv.DictReader((tmp_path / "c" / "compare.csv").open()))
    for rec, row in zip(trace, rows):
        assert float(row["tau_s"]) == pytest.approx(rec["tau_round_s"], rel=1e-12)


def test_sweep_malformed_grid(tmp_path, capsys):
    assert main(["sweep", TABLE2, "--grid", "Q=1..3", "--out", str(tmp_path)]) == 2
    assert main(["sweep", TABLE2, "--grid", "S=3..1,m=1..2", "--out", str(tmp_path)]) == 2
    assert main(["sweep", TABLE2, "--grid", "S=1..2", "--out", str(tmp_path)]) == 2
    assert main(["sweep", TABLE2, "--grid", "", "--out", str(tmp_path)]) == 2
    assert main(["sweep", HOMOGENEOUS, "--grid", "S=1.5,2.9,m=1,2.5", "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("grid, axis", [("S=1..7,m=1..2", "S"), ("S=0,2,m=1", "S"), ("S=1..6,m=0..3", "m"), ("S=2,m=1,65", "m")])
def test_sweep_grid_outside_the_config_is_a_config_error(tmp_path, capsys, grid, axis):
    # homogeneous has K = 6 devices in cluster 0 and a batch of b = 64
    assert main(["sweep", HOMOGENEOUS, "--grid", grid, "--out", str(tmp_path)]) == 2
    assert f"--grid: {axis}:" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_empty_axis_is_a_config_error(tmp_path, capsys):
    assert main(["sweep", HOMOGENEOUS, "--grid", "S=,m=1..2", "--out", str(tmp_path)]) == 2
    assert "--grid: S:" in capsys.readouterr().err
    assert main(["sweep", TABLE2, "--grid", "V=", "--out", str(tmp_path)]) == 2
    assert "--grid: V:" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def _refuse_huge_ranges(monkeypatch):
    # a range expanded before its bounds are checked would exhaust memory;
    # with spans over 1e6 refused, such a regression fails at once
    from edgesched import cli

    def bounded_range(*args):
        span = range(*args)
        if len(span) > 10**6:
            raise AssertionError(f"built a range of {len(span)} values")
        return span

    monkeypatch.setattr(cli, "range", bounded_range, raising=False)


def test_sweep_huge_range_is_rejected_before_it_is_built(tmp_path, capsys, monkeypatch):
    _refuse_huge_ranges(monkeypatch)
    assert main(["sweep", HOMOGENEOUS, "--grid", "S=1..1000000000000,m=1..2", "--out", str(tmp_path)]) == 2
    assert "--grid: S:" in capsys.readouterr().err


def test_sweep_huge_control_factor_range_is_checked_before_it_is_built(tmp_path, capsys, monkeypatch):
    _refuse_huge_ranges(monkeypatch)
    assert main(["sweep", TABLE2, "--grid", "V=0..1000000000000", "--rounds", "1", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("config error: --grid: V must be finite and > 0")
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_control_factor_range_matches_its_list(tmp_path):
    ranged, listed = tmp_path / "ranged", tmp_path / "listed"
    assert main(["sweep", TABLE2, "--grid", "V=1..3", "--rounds", "2", "--out", str(ranged)]) == 0
    assert main(["sweep", TABLE2, "--grid", "V=1,2,3", "--rounds", "2", "--out", str(listed)]) == 0
    rows = (ranged / "sweep.csv").read_text()
    assert rows == (listed / "sweep.csv").read_text()
    assert [r.split(",")[0] for r in rows.splitlines()[1:]] == ["1.0", "2.0", "3.0"]


def test_sweep_in_range_grid_writes_every_cell(tmp_path, homogeneous_cfg):
    assert main(["sweep", HOMOGENEOUS, "--grid", "S=1..6,m=1..16", "--out", str(tmp_path)]) == 0
    env = sample_round_environment(homogeneous_cfg, 1)
    lines = ["S\\m," + ",".join(str(m) for m in range(1, 17))]
    for s in range(1, 7):
        plans = (SegmentPlan(delta=uniform_partition(homogeneous_cfg, 0, list(range(s))), m=m) for m in range(1, 17))
        lines.append(",".join([str(s)] + [repr(pipeline_latency(p, homogeneous_cfg, env, 0)) for p in plans]))
    assert (tmp_path / "sweep.csv").read_text() == "\n".join(lines) + "\n"


def test_sweep_one_by_one_grid(tmp_path):
    rc = main(["sweep", HOMOGENEOUS, "--grid", "S=1..1,m=1..1", "--out", str(tmp_path)])
    assert rc == 0
    rows = (tmp_path / "sweep.csv").read_text().splitlines()
    assert rows[0] == "S\\m,1"
    assert len(rows) == 2
    assert float(rows[1].split(",")[1]) > 0


def test_sweep_interior_argmin_on_homogeneous(tmp_path):
    rc = main(["sweep", HOMOGENEOUS, "--grid", "S=1..6,m=1..16", "--out", str(tmp_path)])
    assert rc == 0
    rows = list(csv.reader((tmp_path / "sweep.csv").open()))
    m_vals = [int(x) for x in rows[0][1:]]
    best = None
    for r in rows[1:]:
        s = int(r[0])
        for j, cell in enumerate(r[1:]):
            if cell:
                v = float(cell)
                if best is None or v < best[0]:
                    best = (v, s, m_vals[j])
    _, s_star, m_star = best
    assert s_star not in (1, 6)
    assert m_star not in (1, 64)


def test_sweep_control_factor_mode(tmp_path):
    rc = main(["sweep", TABLE2, "--grid", "V=0.01,10,100", "--rounds", "3", "--out", str(tmp_path)])
    assert rc == 0
    rows = list(csv.DictReader((tmp_path / "sweep.csv").open()))
    assert [float(r["V"]) for r in rows] == [0.01, 10.0, 100.0]
    taus = [float(r["avg_tau_s"]) for r in rows]
    assert taus[0] >= taus[1] - 1e-12 >= taus[2] - 2e-12


def test_out_dir_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("EDGESCHED_OUT_DIR", str(tmp_path / "envout"))
    from edgesched.cli import build_parser

    args = build_parser().parse_args(["run", TABLE2])
    assert args.out == str(tmp_path / "envout")


def test_run_zero_rate_uplink_exits_infeasible(tmp_path, capsys):
    with open(TABLE2, encoding="utf-8") as fh:
        doc = json.load(fh)
    for cluster in doc["clusters"]:
        cluster["h_up_db"] = -400
    path = tmp_path / "dead_uplink.json"
    path.write_text(json.dumps(doc))
    rc = main(["run", str(path), "--policy", "random", "--rounds", "3", "--out", str(tmp_path / "out")])
    assert rc == 3
    assert "stalled uplink" in capsys.readouterr().err


def _dead_link_config(tmp_path, key):
    with open(TABLE2, encoding="utf-8") as fh:
        doc = json.load(fh)
    for cluster in doc["clusters"]:
        cluster[key] = -400
    path = tmp_path / f"dead_{key}.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("policy", ["lyapunov", "random"])
def test_run_zero_rate_d2d_exits_infeasible(tmp_path, capsys, policy):
    path = _dead_link_config(tmp_path, "h_dd_db")
    rc = main(["run", path, "--policy", policy, "--rounds", "3", "--out", str(tmp_path / "out")])
    assert rc == 3
    assert "stalled d2d link" in capsys.readouterr().err


def test_run_with_every_round_infeasible_exits_infeasible(tmp_path, capsys):
    path = _dead_link_config(tmp_path, "h_up_db")
    rc = main(["run", path, "--policy", "lyapunov", "--rounds", "3", "--out", str(tmp_path / "out")])
    assert rc == 3
    assert "infeasible in all 3 rounds" in capsys.readouterr().err
