import json
import os
import subprocess
import sys

import pytest

from netlearn import cli, config

PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli(args):
    """Invoke the CLI in-process, capturing stdout and the exit code."""
    import contextlib
    import io
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(args)
    return code, out.getvalue()


def test_check_topology_family():
    code, out = run_cli(["check-topology", "dicycle(6)"])
    assert code == 0
    data = json.loads(out)
    assert data["strongly_connected"] is True
    assert data["l_connectivity"] == 5
    assert data["diameter"] == 5


def test_check_topology_royal_family():
    code, out = run_cli(["check-topology", "royal_family(3,10)"])
    assert code == 0
    data = json.loads(out)
    # BFS oracle: the longest return path is royal_k -> royal_0 -> public_0
    # -> chain, so L = n + 1 = 11 (and the diameter matches it)
    assert data["l_connectivity"] == 11
    assert data["diameter"] == 11


def test_check_topology_disconnected_exits_2(tmp_path, capsys):
    p = tmp_path / "g.txt"
    p.write_text("n=3\n0 1\n1 2\n")
    code, out = run_cli(["check-topology", str(p)])
    assert code == 2
    assert json.loads(out)["strongly_connected"] is False


def test_check_topology_bad_input_exits_2(tmp_path):
    code, _ = run_cli(["check-topology", str(tmp_path / "missing.txt")])
    assert code == 2


def test_graph_distance():
    code, out = run_cli(["graph-distance", "dicycle(8)", "0",
                         "dicycle(12)", "0", "--r-max", "8"])
    assert code == 0
    data = json.loads(out)
    assert data["distance"] == 2.0 ** -6
    assert data["truncated"] is False


def test_verify_invariants_scope():
    code, out = run_cli(["verify-invariants", "--scope", "graph"])
    assert code == 0
    assert "invariants hold" in out
    assert "FAIL" not in out


def write_cfg(tmp_path, **sim_over):
    sim = {"horizon": 12, "replicates": 20, "discount": 0.9,
           "tail_window": 4, "seed": 5, "engine": "sufficient-statistic"}
    sim.update(sim_over)
    text = "[graph]\nfamily = cycle(8)\n\n[signal]\nkind = symmetric_binary\nq = 0.7\n\n"
    text += "[profile]\nname = gossip\n\n[sim]\n"
    text += "".join(f"{k} = {v}\n" for k, v in sim.items())
    p = tmp_path / "run.cfg"
    p.write_text(text)
    return p


def test_simulate_json_output(tmp_path):
    cfg = write_cfg(tmp_path)
    code, out = run_cli(["simulate", "--config", str(cfg)])
    assert code == 0
    data = json.loads(out)
    assert data["replicates"] == 20
    assert data["version"] == "0.1.0"
    assert data["config"]["master_seed"] == 5


def test_simulate_seed_override_and_out(tmp_path):
    cfg = write_cfg(tmp_path)
    out_path = tmp_path / "report.json"
    code, _ = run_cli(["simulate", "--config", str(cfg),
                       "--seed", "99", "--out", str(out_path),
                       "--format", "summary"])
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["config"]["master_seed"] == 99


def test_simulate_trace_csv(tmp_path):
    cfg = write_cfg(tmp_path, replicates=3)
    csv_path = tmp_path / "trace.csv"
    code, _ = run_cli(["simulate", "--config", str(cfg),
                       "--trace-csv", str(csv_path)])
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "replicate,agent,role,t,action"
    assert len(lines) == 1 + 3 * 8 * 12


@pytest.mark.parametrize("workers", ["1", "2"])
def test_simulate_over_budget_exits_2(tmp_path, capsys, workers):
    """Exact myopic play on cycle(30) needs 2^30 * 30 world-agent cells,
    over the default budget: a one-line error and exit 2, no report."""
    p = tmp_path / "big.cfg"
    p.write_text("[graph]\nfamily = cycle(30)\n\n[profile]\nname = myopic\n"
                 "\n[sim]\nhorizon = 3\nreplicates = 2\ntail_window = 2\n")
    code, out = run_cli(["simulate", "--config", str(p),
                         "--workers", workers])
    err = capsys.readouterr().err
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "budget" in err


def test_simulate_workers_with_trace_csv_exits_2(tmp_path, capsys):
    csv_path = tmp_path / "trace.csv"
    cfg = write_cfg(tmp_path)
    code, out = run_cli(["simulate", "--config", str(cfg), "--workers", "2",
                         "--trace-csv", str(csv_path)])
    assert code == 2 and out == ""
    with_key = tmp_path / "keyed.cfg"
    with_key.write_text(cfg.read_text()
                        + f"\n[output]\ntrace_csv = {csv_path}\n")
    code, out = run_cli(["simulate", "--config", str(with_key),
                         "--workers", "2"])
    assert code == 2 and out == ""
    assert not csv_path.exists()
    assert capsys.readouterr().err.count("error: ") == 2


def test_simulate_workers_match_serial(tmp_path):
    cfg = write_cfg(tmp_path, replicates=24)
    code1, out1 = run_cli(["simulate", "--config", str(cfg)])
    code2, out2 = run_cli(["simulate", "--config", str(cfg),
                           "--workers", "3"])
    assert code1 == code2 == 0
    d1, d2 = json.loads(out1), json.loads(out2)
    assert d1["learning_freq"] == d2["learning_freq"]
    assert d1["agent_learning"] == d2["agent_learning"]


def test_simulate_bad_config_exits_2(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("[graph]\nfamily = nonsense(3)\n")
    code, _ = run_cli(["simulate", "--config", str(p)])
    assert code == 2


def test_env_override(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path)
    monkeypatch.setenv("NETLEARN_SIM_SEED", "77")
    rc = config.load_config(str(cfg))
    assert rc.sim.master_seed == 77
    # explicit CLI override still wins
    rc2 = config.load_config(str(cfg), {"sim": {"seed": 5}})
    assert rc2.sim.master_seed == 5


def test_config_json_and_unknown_key(tmp_path):
    p = tmp_path / "run.json"
    p.write_text(json.dumps({"graph": {"family": "cycle(6)"},
                             "sim": {"replicates": "7"}}))
    rc = config.load_config(str(p))
    assert rc.graph_family == "cycle(6)" and rc.sim.replicates == 7
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"sim": {"bogus": "1"}}))
    with pytest.raises(ValueError):
        config.load_config(str(bad))


def test_console_entry_point():
    r = subprocess.run([sys.executable, "-m", "netlearn.cli", "--version"],
                       capture_output=True, text=True)
    assert r.returncode == 0
    assert "0.1.0" in r.stdout


def test_bundled_recipes_parse():
    for name in ("cycle20_myopic.cfg", "royal_family.cfg", "mad_king.cfg"):
        rc = config.load_config(os.path.join(PKG_ROOT, "scripts", name))
        g = rc.build_graph()
        m = rc.build_signal_model()
        rc.build_profile(g, m)
