import json
import os
import subprocess
import sys

import pytest

from netlearn import cli, config, dynamics, graphs, strategies

PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROYAL_CFG = os.path.join(PKG_ROOT, "scripts", "royal_family.cfg")


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


INFEASIBLE_GRAPHS = ("random_regular(5,3)", "random_regular(3,5)",
                     "random_regular(4,1)")


def test_check_topology_bad_input_exits_2(tmp_path, capsys):
    """A missing file, an unknown family, a bad family parameter, a family
    with no (connected) graph, or an edge list whose header or a line does
    not parse is a usage error: one error line that names what is wrong,
    exit 2, no traceback."""
    missing = str(tmp_path / "missing.txt")
    cases = [(missing, missing), ("nonsense(3)", "nonsense"),
             ("dicycle(x)", "parameter n"), ("dicycle(3,4)", "dicycle(n)")]
    cases += [(arg, "") for arg in INFEASIBLE_GRAPHS]
    for name, text, named in [
            ("header.txt", "n=abc\n0 1\n", "header 'n=abc'"),
            ("vertex.txt", "n=2\n0 x\n1 0\n", "line '0 x'"),
            ("fields.txt", "n=3\n0 1\n1 2 0\n", "line '1 2 0'")]:
        (tmp_path / name).write_text(text)
        cases.append((str(tmp_path / name), named))
    for arg, named in cases:
        code, out = run_cli(["check-topology", arg])
        err = capsys.readouterr().err
        assert code == 2 and out == "", arg
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert named in err, err
        assert ("No such file" in err) == (arg == missing), err


def test_graph_distance():
    code, out = run_cli(["graph-distance", "dicycle(8)", "0",
                         "dicycle(12)", "0", "--r-max", "8"])
    assert code == 0
    data = json.loads(out)
    assert data["distance"] == 2.0 ** -6
    assert data["truncated"] is False


def test_graph_distance_negative_radius_exits_2(capsys):
    code, out = run_cli(["graph-distance", "dicycle(5)", "0", "dicycle(8)",
                         "0", "--r-max", "-2"])
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("args, named", [
    (["dicycle(5)", "5", "dicycle(8)", "0"], "invalid root 5"),
    (["dicycle(5)", "0", "dicycle(8)", "-1"], "invalid root -1"),
    (["{path}", "0", "dicycle(8)", "0"], "strongly connected"),
    (["dicycle(8)", "0", "{path}", "2"], "strongly connected")])
def test_graph_distance_bad_root_or_graph_exits_2(tmp_path, capsys, args,
                                                  named):
    """A root outside its graph, or a graph that is not strongly connected,
    is a usage error: one error line that names it, exit 2."""
    path = tmp_path / "path.txt"
    path.write_text("n=3\n0 1\n1 2\n")
    code, out = run_cli(["graph-distance"]
                        + [a.format(path=path) for a in args])
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert named in err, err


def test_graph_distance_infeasible_graph_exits_2(capsys):
    for arg in INFEASIBLE_GRAPHS:
        code, out = run_cli(["graph-distance", arg, "0", "dicycle(3)", "0"])
        err = capsys.readouterr().err
        assert code == 2 and out == "", arg
        assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("scope", ["graph", "all"])
def test_verify_invariants_scope(scope):
    code, out = run_cli(["verify-invariants", "--scope", scope])
    assert code == 0
    assert "invariants hold" in out
    assert "FAIL" not in out


def write_cfg(tmp_path, **sim_over):
    sim = {"horizon": 12, "replicates": 20, "discount": 0.9,
           "tail_window": 4, "seed": 5}
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


def test_simulate_runs_at_the_largest_seed(tmp_path):
    """2^64 - 1, the largest uint64, is a seed like any other."""
    code, out = run_cli(["simulate", "--config", str(write_cfg(tmp_path)),
                         "--seed", str(2 ** 64 - 1)])
    assert code == 0
    assert json.loads(out)["config"]["master_seed"] == 2 ** 64 - 1


@pytest.mark.parametrize("via", ["--out", "report_json"])
def test_simulate_summary_line_when_the_report_goes_to_a_file(tmp_path, via):
    """With the report in a file, from --out or [output] report_json,
    --format summary prints exactly one line whose values are the file's
    to 4 decimals."""
    cfg = write_cfg(tmp_path)
    out_path = tmp_path / "report.json"
    args = ["simulate", "--config", str(cfg), "--format", "summary"]
    if via == "--out":
        args += ["--out", str(out_path)]
    else:
        with open(cfg, "a") as f:
            f.write(f"\n[output]\nreport_json = {out_path}\n")
    code, out = run_cli(args)
    assert code == 0
    data = json.loads(out_path.read_text())
    assert out.count("\n") == 1 and out.endswith("\n")
    fields = [kv.split("=") for kv in out.split()]
    assert [k for k, _ in fields] == ["learning_freq", "agreement_freq",
                                      "replicates"]
    values = dict(fields)
    for key in ("learning_freq", "agreement_freq"):
        assert values[key] == f"{data[key]:.4f}"
    assert int(values["replicates"]) == data["replicates"] == 20


def test_simulate_summary_without_a_report_file_prints_the_json(tmp_path):
    """With no report file, --format summary prints the report JSON, as
    --format json does."""
    cfg = write_cfg(tmp_path)
    code, out = run_cli(["simulate", "--config", str(cfg),
                         "--format", "summary"])
    assert code == 0
    code_json, out_json = run_cli(["simulate", "--config", str(cfg)])
    assert code_json == 0 and out == out_json
    data = json.loads(out)
    assert data["replicates"] == 20 and data["version"] == "0.1.0"


def test_simulate_trace_csv(tmp_path):
    cfg = write_cfg(tmp_path, replicates=3)
    csv_path = tmp_path / "trace.csv"
    code, _ = run_cli(["simulate", "--config", str(cfg),
                       "--trace-csv", str(csv_path)])
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "replicate,agent,role,t,action"
    assert len(lines) == 1 + 3 * 8 * 12


def test_simulate_graph_file_runs_the_family(tmp_path):
    """A [graph] file holding cycle(8)'s edge list runs the family's
    ensemble: the report equals the family = cycle(8) report except for
    graph_family, which a file leaves null."""
    cfg = write_cfg(tmp_path)
    edges = tmp_path / "cycle8.txt"
    edges.write_text(graphs.to_edge_list_text(graphs.cycle(8)))
    by_file = tmp_path / "file.cfg"
    by_file.write_text(cfg.read_text().replace("family = cycle(8)",
                                               f"file = {edges}"))
    reports = []
    for path in (cfg, by_file):
        code, out = run_cli(["simulate", "--config", str(path)])
        assert code == 0
        reports.append(json.loads(out))
    family, from_file = reports
    assert family["graph_family"] == "cycle"
    assert from_file == dict(family, graph_family=None)


@pytest.mark.parametrize("workers", ["1", "2"])
def test_simulate_over_budget_exits_2(tmp_path, capsys, fake_pool,
                                     workers):
    """Exact myopic play on cycle(30) needs 2^30 * 30 world-agent cells,
    over the default budget: a one-line error and exit 2, no report, and no
    pool asked for."""
    p = tmp_path / "big.cfg"
    p.write_text("[graph]\nfamily = cycle(30)\n\n[profile]\nname = myopic\n"
                 "\n[sim]\nhorizon = 3\nreplicates = 2\ntail_window = 2\n")
    code, out = run_cli(["simulate", "--config", str(p),
                         "--workers", workers])
    err = capsys.readouterr().err
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "budget" in err and "agents" in err
    # the advice names no Monte Carlo fallback: there is none, since every
    # belief replays the myopic profile, which solves these same worlds
    assert "mc_posterior" not in err
    assert fake_pool == []


@pytest.mark.parametrize("workers", ["1", "2"])
def test_simulate_trace_csv_past_memory_exits_2(tmp_path, capsys, fake_pool,
                                               monkeypatch, workers):
    """A trace CSV whose kept actions no address space holds (10^13
    replicates x 13 agents x 20 rounds) is a usage error: one line, exit 2,
    before the profile is solved, any replicate runs or a pool starts, and
    no file written."""
    calls = []
    monkeypatch.setattr(strategies.GossipProfile, "trace_batch",
                        lambda *a, **kw: calls.append(a))
    monkeypatch.setattr(dynamics, "_run_chunk",
                        lambda *a, **kw: calls.append(a))
    monkeypatch.setenv("NETLEARN_SIM_REPLICATES", str(10 ** 13))
    csv_path = tmp_path / "trace.csv"
    code, out = run_cli(["simulate", "--config", ROYAL_CFG, "--workers",
                         workers, "--trace-csv", str(csv_path)])
    err = capsys.readouterr().err
    assert code == 2 and out == "" and calls == [] and fake_pool == []
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "(10000000000000, 13, 20)" in err, err
    assert os.listdir(tmp_path) == []


def test_simulate_gossip_rings_over_budget_exits_2(tmp_path, capsys,
                                                  fake_pool, monkeypatch):
    """Gossip rings past the budget (n^2 = 400 entries on a dense graph, a
    budget of 399) are a usage error: one line, exit 2, no report, and no
    pool asked for."""
    monkeypatch.setattr(strategies, "DEFAULT_BUDGET", 399)
    p = tmp_path / "dense.cfg"
    p.write_text("[graph]\nfamily = random_regular(20,6)\n\n[profile]\n"
                 "name = gossip\n\n[sim]\nhorizon = 6\nreplicates = 2\n"
                 "tail_window = 2\n")
    code, out = run_cli(["simulate", "--config", str(p), "--workers", "2"])
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error: gossip rings over budget")
    assert err.count("\n") == 1
    assert fake_pool == []


def test_simulate_myopic_relabel_over_budget_exits_2(tmp_path, capsys,
                                                    fake_pool, monkeypatch):
    """A budget that holds the 2^5 * 5 world-agent cells of dicycle(5) but
    not a class relabel table of its first split (5 agents x 4 rows, 9 B an
    entry) is a usage error, found in the zero-row solve: one line, exit 2,
    no report, and no pool asked for."""
    monkeypatch.setattr(strategies, "DEFAULT_BUDGET", 2 ** 5 * 5)
    p = tmp_path / "myopic.cfg"
    out_json = tmp_path / "report.json"
    p.write_text("[graph]\nfamily = dicycle(5)\n\n[profile]\nname = myopic\n"
                 "\n[sim]\nhorizon = 3\nreplicates = 4\ntail_window = 2\n\n"
                 f"[output]\nreport_json = {out_json}\n")
    code, out = run_cli(["simulate", "--config", str(p), "--workers", "2"])
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error: a class relabel table of 20 entries")
    assert err.count("\n") == 1
    assert fake_pool == [] and not out_json.exists()


def test_simulate_rejects_engine_key(tmp_path, capsys):
    """The [sim] engine key is gone: the loader rejects it as unknown."""
    cfg = write_cfg(tmp_path, engine="exact")
    code, out = run_cli(["simulate", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "engine" in err


def test_simulate_rejects_jitter_width_key(tmp_path, capsys):
    """The [signal] jitter_width key is gone, since a jitter is a U[0, 1)
    draw owned by the tie breaker: the loader rejects it as unknown."""
    p = tmp_path / "width.cfg"
    p.write_text("[graph]\nfamily = dicycle(4)\n\n[signal]\n"
                 "jitter_width = 0.5\n\n[profile]\nname = gossip\n"
                 "tie = jitter\n")
    code, out = run_cli(["simulate", "--config", str(p)])
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "jitter_width" in err


def test_simulate_gossip_jitter_ties_need_no_width(tmp_path):
    """tie = jitter runs with no further key, and its ties break both
    ways."""
    p = tmp_path / "jitter.cfg"
    p.write_text("[graph]\nfamily = dicycle(4)\n\n[profile]\n"
                 "name = gossip\ntie = jitter\n\n[sim]\nhorizon = 4\n"
                 "replicates = 40\ntail_window = 2\n")
    code, out = run_cli(["simulate", "--config", str(p)])
    report = json.loads(out)
    assert code == 0 and report["replicates"] == 40
    assert report["tie_rate"] > 0


@pytest.mark.parametrize("family, profile, kind", [
    ("dicycle(4)", "myopic", "symmetric_binary"),
    ("dicycle(4)", "gossip", "symmetric_binary"),
    ("royal_family(2,3)", "royal_family", "royal_bounded"),
    ("mad_king(1,2,2)", "mad_king", "mad_king_asym")])
def test_config_builds_every_profile(tmp_path, family, profile, kind):
    """Each profile name builds its profile, with the config's tie breaker;
    the mad king's delta and lam stay in the config."""
    p = tmp_path / "p.cfg"
    p.write_text(f"[graph]\nfamily = {family}\n\n[signal]\nkind = {kind}"
                 f"\n\n[profile]\nname = {profile}\ntie = one\n"
                 "delta = 0.5\nlam = 0.9\n")
    rc = config.load_config(str(p))
    g = rc.build_graph()
    prof = rc.build_profile(g, rc.build_signal_model())
    want = {"myopic": strategies.MyopicExactProfile,
            "gossip": strategies.GossipProfile,
            "royal_family": strategies.RoyalFamilyProfile,
            "mad_king": strategies.MadKingProfile}[profile]
    assert type(prof) is want and prof.tie_breaker.mode == "one"
    assert (rc.delta, rc.lam) == (0.5, 0.9)


def _mad_king_config(**profile):
    return config.load_config(overrides={
        "graph": {"family": "mad_king(1,2,1)"},
        "signal": {"kind": "mad_king_asym"},
        "profile": {"name": "mad_king", **profile}}, environ={})


def _build(rc):
    return rc.build_profile(rc.build_graph(), rc.build_signal_model())


def test_config_mad_king_requires_valid_lam():
    with pytest.raises(ValueError):
        _build(_mad_king_config(lam=1.0))


@pytest.mark.parametrize("delta", [0.0, -1.0, float("nan")])
def test_config_mad_king_requires_a_positive_delta(delta):
    with pytest.raises(ValueError, match="delta"):
        _build(_mad_king_config(delta=delta))


def test_simulate_workers_write_identical_report_and_csv(tmp_path):
    """--workers 2 writes the serial run's report JSON and trace CSV byte
    for byte."""
    cfg = write_cfg(tmp_path, replicates=5)
    files = []
    for workers in ("1", "2"):
        out = tmp_path / f"report{workers}.json"
        csv_path = tmp_path / f"trace{workers}.csv"
        code, _ = run_cli(["simulate", "--config", str(cfg), "--workers",
                           workers, "--out", str(out), "--trace-csv",
                           str(csv_path), "--format", "summary"])
        assert code == 0
        files.append((out.read_bytes(), csv_path.read_bytes()))
    assert files[0] == files[1]
    assert files[0][1].count(b"\n") == 1 + 5 * 8 * 12


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_simulate_workers_below_one_exits_2(tmp_path, capsys, monkeypatch,
                                            workers):
    """A worker count below 1 is a usage error, raised before the graph is
    built."""
    def no_graph(*a, **kw):
        raise AssertionError("graph built")
    monkeypatch.setattr(config.RunConfig, "build_graph", no_graph)
    cfg = write_cfg(tmp_path)
    code, out = run_cli(["simulate", "--config", str(cfg),
                         "--workers", workers])
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--workers" in err


def test_simulate_pool_is_capped_at_replicates(tmp_path, fake_pool,
                                              monkeypatch):
    """--workers 500 on 2 replicates asks for a pool of 2 processes."""
    monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 64)
    cfg = write_cfg(tmp_path, replicates=2)
    code, out = run_cli(["simulate", "--config", str(cfg),
                         "--workers", "500"])
    assert code == 0 and fake_pool == [2]
    assert json.loads(out)["replicates"] == 2


def test_simulate_pool_is_capped_at_usable_cpus(tmp_path, fake_pool,
                                               monkeypatch):
    """--workers 5000 on 5000 replicates starts one process per usable
    CPU, and reports what a serial run reports."""
    monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 2)
    cfg = write_cfg(tmp_path, replicates=5000, horizon=4, tail_window=2)
    code, out = run_cli(["simulate", "--config", str(cfg),
                         "--workers", "5000"])
    assert code == 0 and fake_pool == [2]
    assert out == run_cli(["simulate", "--config", str(cfg)])[1]


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
    for family in ("nonsense(3)",) + INFEASIBLE_GRAPHS:
        p.write_text(f"[graph]\nfamily = {family}\n")
        code, _ = run_cli(["simulate", "--config", str(p)])
        assert code == 2, family


@pytest.mark.parametrize("name, text", [
    ("noheader.cfg", "horizon = 3\n"),
    ("duplicate.cfg", "[sim]\nhorizon = 3\nhorizon = 4\n"),
    ("scalar.json", '{"sim": 5}'),
    ("list.json", "[1, 2]"),
    ("two_atom.cfg", "[graph]\nfamily = dicycle(4)\n\n[signal]\n"
                     "kind = two_atom\n"),
    ("unknown_profile.cfg", "[graph]\nfamily = dicycle(4)\n\n[profile]\n"
                            "name = bayes\n"),
    ("no_graph.cfg", "[signal]\nq = 0.7\n"),
    ("missing.cfg", None),
    ("missing.json", None),
])
def test_simulate_malformed_config_exits_2(tmp_path, capsys, name, text):
    """A config file that is missing, does not parse to sections of keys,
    names no graph, or names a signal kind or a profile the config cannot
    build, is a usage error: one error line and exit 2, no traceback.  A
    missing file is named, as the system names it, in either format."""
    p = tmp_path / name
    if text is not None:
        p.write_text(text)
    code, out = run_cli(["simulate", "--config", str(p)])
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    if text is None:
        assert f"No such file or directory: '{p}'" in err, err


@pytest.mark.parametrize("family, profile", [
    ("royal_family(2,3)", "royal_family"), ("mad_king(1,1,1)", "mad_king")])
def test_simulate_scripted_profile_with_jitter_ties_exits_2(
        tmp_path, capsys, family, profile):
    """The royal and mad-king profiles have no jitter tie rule: asking for
    one is a usage error, not a silent run under mode zero."""
    p = tmp_path / "jitter.cfg"
    p.write_text(f"[graph]\nfamily = {family}\n\n[signal]\n"
                 "kind = royal_bounded\n\n"
                 f"[profile]\nname = {profile}\ntie = jitter\n")
    code, out = run_cli(["simulate", "--config", str(p)])
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "jitter" in err


MAD_KING_CFG = os.path.join(PKG_ROOT, "scripts", "mad_king.cfg")
PREFLIGHT_BASE = ("[graph]\nfamily = cycle(8)\n\n[profile]\nname = gossip\n\n"
                  "[sim]\nhorizon = 4\nreplicates = 3\ntail_window = 2\n")
# atoms at z = +-4e-13, within TIE_TOL of 0: round-0 actions are ties
TIED_SIGNAL = "\n[signal]\nq = 0.5000000000001\n"


@pytest.mark.parametrize("text, args, named", [
    (PREFLIGHT_BASE + "seed = -5\n", [], "seed must be >= 0, got -5"),
    (PREFLIGHT_BASE, ["--seed", "-1"], "seed must be >= 0, got -1"),
    (PREFLIGHT_BASE + "seed = 18446744073709551616\n", [],
     "seed must be < 2**64, got 18446744073709551616"),
    (PREFLIGHT_BASE, ["--seed", "18446744073709551616"],
     "seed must be < 2**64, got 18446744073709551616"),
    (PREFLIGHT_BASE, ["--seed", str(2 ** 70)],
     f"seed must be < 2**64, got {2 ** 70}"),
    (PREFLIGHT_BASE.replace("cycle(8)\n", "cycle(8)\nfile = {edges}\n"), [],
     "graph.file"),
    (PREFLIGHT_BASE, ["--out", "{missing}"], "{missing}"),
    (PREFLIGHT_BASE, ["--out", "{tmp}/r.json", "--trace-csv", "{missing}"],
     "{missing}"),
    (PREFLIGHT_BASE + "\n[output]\nreport_json = {missing}\n", [],
     "{missing}"),
    (PREFLIGHT_BASE + "\n[output]\ntrace_csv = {missing}\n", [], "{missing}"),
    ("mad_king:0", [], "delta must be > 0, got 0.0"),
    (PREFLIGHT_BASE.replace("cycle(8)", "royal_family(3,4)")
     .replace("gossip", "royal_family") + TIED_SIGNAL, [], "sign decoding"),
    (PREFLIGHT_BASE.replace("cycle(8)", "mad_king(1,2,2)")
     .replace("gossip", "mad_king") + TIED_SIGNAL, [], "sign decoding"),
    ("mad_king:-1", [], "delta must be > 0, got -1.0"),
    (PREFLIGHT_BASE, ["--out", "{tmp}"], "{tmp}': Is a directory"),
    ("mad_king:0.025", ["--trace-csv", "{tmp}"], "{tmp}': Is a directory"),
    (PREFLIGHT_BASE + "\n[output]\nreport_json = {tmp}\n", [],
     "{tmp}': Is a directory"),
    (PREFLIGHT_BASE + "\n[output]\ntrace_csv = {tmp}\n", [],
     "{tmp}': Is a directory"),
    (PREFLIGHT_BASE, ["--out", "{tmp}/r.json", "--trace-csv", "{tmp}/r.json"],
     "one file, '{tmp}/r.json'"),
    (PREFLIGHT_BASE + "\n[output]\nreport_json = {tmp}/r.json\n"
     "trace_csv = {tmp}/r.json\n", [], "one file, '{tmp}/r.json'"),
    (PREFLIGHT_BASE + "\n[output]\ntrace_csv = {tmp}/./r.json\n",
     ["--out", "{tmp}/r.json"], "one file, '{tmp}/./r.json'"),
    (PREFLIGHT_BASE, ["--out", "{cfg}"], "'{cfg}' is an input file"),
    (PREFLIGHT_BASE, ["--trace-csv", "{tmp}/./run.cfg"],
     "'{tmp}/./run.cfg' is an input file"),
    (PREFLIGHT_BASE + "\n[output]\nreport_json = {cfg}\n", [],
     "'{cfg}' is an input file"),
    (PREFLIGHT_BASE.replace("family = cycle(8)", "file = {edges}"),
     ["--trace-csv", "{edges}"], "'{edges}' is an input file"),
    (PREFLIGHT_BASE.replace("family = cycle(8)", "file = {edges}")
     + "\n[output]\ntrace_csv = {tmp}/./g.txt\n", [],
     "'{tmp}/./g.txt' is an input file"),
    (PREFLIGHT_BASE.replace("family = cycle(8)", "file = {edges}"),
     ["--out", "{edges}"], "'{edges}' is an input file"),
    # a file name over the 255-byte limit opens for no user, root included
    (PREFLIGHT_BASE, ["--out", "{long}"], "cannot write output file '{long}'"),
    ("mad_king:0.025", ["--trace-csv", "{long}"],
     "cannot write output file '{long}'"),
    (PREFLIGHT_BASE + "\n[output]\ntrace_csv = {long}\n",
     ["--out", "{tmp}/r.json"], "cannot write output file '{long}'"),
])
def test_simulate_preflight_exits_2_before_any_replicate(
        tmp_path, capsys, monkeypatch, text, args, named):
    """A negative seed or one of 2^64 or more (the draws key on a uint64),
    a graph given both as a family and as a file, an
    output path in a missing directory, that is a directory, that cannot be
    opened for writing or that is the config or the graph file, a report
    and a trace CSV that are one file,
    a mad-king delta <= 0, or a scripted profile on a model whose atoms lie
    within TIE_TOL of 0 is a usage error: one line that names it, exit 2,
    no ensemble run, no file written and no input file changed."""
    calls = []
    monkeypatch.setattr(dynamics, "run_ensemble",
                        lambda *a, **kw: calls.append(a))
    edges = tmp_path / "g.txt"
    edges.write_text("n=2\n0 1\n1 0\n")
    fill = dict(tmp=tmp_path, edges=edges, cfg=tmp_path / "run.cfg",
                missing=tmp_path / "no_such_dir" / "out",
                long=tmp_path / ("x" * 300))
    if text.startswith("mad_king:"):
        monkeypatch.setenv("NETLEARN_PROFILE_DELTA", text.split(":")[1])
        cfg = MAD_KING_CFG
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text.format(**fill))
    code, out = run_cli(["simulate", "--config", str(cfg)]
                        + [a.format(**fill) for a in args])
    err = capsys.readouterr().err
    assert code == 2 and out == "" and calls == []
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert named.format(**fill) in err, err
    assert set(os.listdir(tmp_path)) <= {"g.txt", "run.cfg"}
    assert edges.read_text() == "n=2\n0 1\n1 0\n"
    if cfg != MAD_KING_CFG:
        assert cfg.read_text() == text.format(**fill)


def test_simulate_mad_king_runs_at_a_large_delta(tmp_path, monkeypatch):
    """delta = 5.0 passes the range check, and the run goes through."""
    monkeypatch.setenv("NETLEARN_PROFILE_DELTA", "5.0")
    monkeypatch.setenv("NETLEARN_SIM_REPLICATES", "3")
    code, out = run_cli(["simulate", "--config", MAD_KING_CFG])
    assert code == 0 and json.loads(out)["replicates"] == 3


@pytest.mark.parametrize("name,csv", [
    pytest.param(name, csv, id=name + "-csv" * csv)
    for name in ("cycle20_gossip.cfg", "royal_family.cfg", "mad_king.cfg")
    for csv in (False, True)])
def test_simulate_does_not_import_networkx(tmp_path, name, csv):
    """A one-worker simulate loads only what it runs: networkx (about as
    slow to import as numpy), the pool stack, the invariant suites and
    dataclasses (whose classes compile their methods at import) never, nor
    the csv module, even for a trace CSV; numpy.random and OpenSSL's _hashlib
    (which numpy.random pulls in) never, since the draws are counter-based
    uint64 arithmetic; nor the analysis modules: the posterior queries, the
    topology analysis and the estimator panel.  A module counts as loaded
    once it has run: ``beliefs`` sits in sys.modules from the package's
    import on, a lazy module (a ModuleType subclass) until its first use."""
    lazy = ("multiprocessing", "concurrent.futures", "netlearn.invariants",
            "csv", "networkx", "dataclasses", "numpy.random", "_hashlib",
            "netlearn.beliefs", "netlearn.topology", "netlearn.estimators")
    script = ("import sys\nfrom netlearn import cli\n"
              "rc = cli.main(['simulate', '--config', sys.argv[1], '--out', "
              "sys.argv[2], '--format', 'summary'] + sys.argv[3:])\n"
              f"print(rc, [m for m in {lazy!r}\n"
              "           if type(sys.modules.get(m)) is type(sys)])\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(PKG_ROOT, "src"), os.environ.get("PYTHONPATH", "")]))
    extra = ["--trace-csv", str(tmp_path / "trace.csv")] if csv else []
    r = subprocess.run([sys.executable, "-c", script,
                        os.path.join(PKG_ROOT, "scripts", name),
                        str(tmp_path / "report.json")] + extra,
                       capture_output=True, text=True, env=env)
    assert r.stdout.splitlines()[-1] == "0 []", r.stdout + r.stderr


def test_package_names_resolve_on_first_use():
    """``import netlearn`` runs none of its modules.  Each name of
    ``__all__`` (every name the package has exported) resolves to the
    object its defining module holds under that name, and ``dir`` lists
    it; any other name raises AttributeError."""
    import importlib
    import netlearn
    exported = {
        "Atom", "BeliefState", "DirectedGraph", "EnsembleReport",
        "EstimatorSample", "GossipProfile", "HistoryView", "MadKingProfile",
        "MadKingRoles", "MyopicExactProfile", "Profile", "RootedBall",
        "RoyalFamilyProfile", "SignalModel", "SimConfig", "TieBreaker",
        "Trace", "YDecomposition", "balls_isomorphic", "best_response",
        "compare_learning", "dep_s_estimate", "discounted_utility",
        "exact_posterior", "extract_ball", "generate",
        "good_estimator_check", "is_strongly_connected",
        "locality_coupling_test", "lookahead_certainty", "mad_king_asym",
        "majority_aggregate", "min_l_connectivity", "myopic_condition_check",
        "out_degree_bound", "p_star", "role_names", "rooted_distance",
        "royal_bounded", "run_ensemble", "run_trace", "symmetric_binary",
        "total_variation", "two_atom_from_logits", "wilson_interval",
        "y_decomposition"}
    assert set(netlearn.__all__) == exported
    for name in netlearn.__all__:
        obj = getattr(netlearn, name)
        home = importlib.import_module(obj.__module__)
        assert home.__name__.startswith("netlearn.")
        assert getattr(home, name) is obj, name
    assert set(netlearn.__all__) <= set(dir(netlearn))
    with pytest.raises(AttributeError, match="no_such_name"):
        netlearn.no_such_name
    script = ("import sys, netlearn\n"
              "print(sorted(m for m in sys.modules if 'netlearn' in m\n"
              "             and type(sys.modules[m]) is type(sys)))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(PKG_ROOT, "src"), os.environ.get("PYTHONPATH", "")]))
    r = subprocess.run([sys.executable, "-c", script], capture_output=True,
                       text=True, env=env)
    assert r.stdout.splitlines() == ["['netlearn']"], r.stdout + r.stderr


SCOPES = ("graph", "signal", "belief", "strategy", "dynamics", "stats")


@pytest.mark.parametrize("args, named", [
    (["--scope", "nope"], ("'graph'", "'all'")),
    (["--seed", "-1"], ("--seed must be >= 0, got -1",)),
] + [(["--scope", scope, "--seed", "-1"], ("--seed must be >= 0, got -1",))
     for scope in SCOPES
] + [(["--scope", scope, "--seed", str(2 ** 64)],
      (f"--seed must be < 2**64, got {2 ** 64}",))
     for scope in ("all",) + SCOPES])
def test_verify_invariants_unknown_scope_exits_2(capsys, args, named):
    """An unknown scope (checked by the suites' own dispatch) or a seed
    outside 0 to 2^64 - 1 (checked before the suites load, by the rule
    SimConfig keeps) is found before any suite runs, whatever the scope:
    one error line that names it, exit 2."""
    code, out = run_cli(["verify-invariants"] + args)
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert all(name in err for name in named), err


def test_env_override(tmp_path, monkeypatch):
    """--seed, --out and --trace-csv each rank default < file <
    NETLEARN_* variable < flag: with the sources set up to each level in
    turn, simulate takes that level's seed and writes only its files."""
    levels = ("default", "file", "env", "flag")
    for top, level in enumerate(levels):
        d = tmp_path / level
        d.mkdir()
        cfg = d / "run.cfg"
        text = PREFLIGHT_BASE
        if top >= 1:
            text += (f"seed = 5\n\n[output]\nreport_json = {d}/file.json\n"
                     f"trace_csv = {d}/file.csv\n")
        cfg.write_text(text)
        if top >= 2:
            monkeypatch.setenv("NETLEARN_SIM_SEED", "77")
            monkeypatch.setenv("NETLEARN_OUTPUT_REPORT_JSON", f"{d}/env.json")
            monkeypatch.setenv("NETLEARN_OUTPUT_TRACE_CSV", f"{d}/env.csv")
        flags = ["--seed", "99", "--out", f"{d}/flag.json", "--trace-csv",
                 f"{d}/flag.csv"] if top == 3 else []
        code, out = run_cli(["simulate", "--config", str(cfg)] + flags)
        assert code == 0
        written = {"run.cfg"} | ({f"{level}.json", f"{level}.csv"}
                                 if top else set())
        assert set(os.listdir(d)) == written
        report = json.loads((d / f"{level}.json").read_text() if top
                            else out)
        assert report["config"]["master_seed"] == (0, 5, 77, 99)[top]
    cfg = write_cfg(tmp_path)
    rc = config.load_config(str(cfg))
    assert rc.sim.master_seed == 77
    # explicit CLI override still wins
    rc2 = config.load_config(str(cfg), {"sim": {"seed": 5}})
    assert rc2.sim.master_seed == 5


def test_simulate_ini_values_are_literal(tmp_path):
    """An INI value means what it says, as in JSON or the environment: a
    ``%`` and a ``%(x)s`` in the output paths are part of the files'
    names."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(PREFLIGHT_BASE + f"\n[output]\nreport_json = "
                   f"{tmp_path}/100%done.json\n"
                   f"trace_csv = {tmp_path}/%(x)s.csv\n")
    code, _ = run_cli(["simulate", "--config", str(cfg),
                       "--format", "summary"])
    assert code == 0
    assert set(os.listdir(tmp_path)) == {"run.cfg", "100%done.json",
                                         "%(x)s.csv"}


@pytest.mark.parametrize("source", ["file", "env", "overrides"])
@pytest.mark.parametrize("section, key, named", [
    ("sim", "horizn", "unknown key 'horizn' in section [sim]"),
    ("simm", "seed", "unknown config section [simm]")])
def test_config_unknown_section_or_key_raises(tmp_path, source, section, key,
                                              named):
    """An unknown section or key is the same ValueError, naming it,
    whether the file, a NETLEARN_* variable or the overrides give it."""
    path, environ, overrides = None, {}, None
    if source == "file":
        path = tmp_path / "run.json"
        path.write_text(json.dumps({section: {key: 5}}))
    elif source == "env":
        environ = {f"NETLEARN_{section.upper()}_{key.upper()}": "5"}
    else:
        overrides = {section: {key: 5}}
    with pytest.raises(ValueError) as e:
        config.load_config(path and str(path), overrides, environ)
    assert str(e.value) == named


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


def _sources(tmp_path, source, sections):
    """(path, overrides, environ) that give ``sections`` by ``source``: an
    INI or JSON file, NETLEARN_* variables, or the overrides."""
    path, overrides, environ = None, None, {}
    if source == "ini":
        path = tmp_path / "run.cfg"
        path.write_text("".join(
            f"[{s}]\n" + "".join(f"{k} = {v}\n" for k, v in kv.items())
            for s, kv in sections.items()))
    elif source == "json":
        path = tmp_path / "run.json"
        path.write_text(json.dumps(sections))
    elif source == "env":
        environ = {f"NETLEARN_{s.upper()}_{k.upper()}": str(v)
                   for s, kv in sections.items() for k, v in kv.items()}
    else:
        overrides = sections
    return path and str(path), overrides, environ


@pytest.mark.parametrize("source", ["ini", "json", "env", "overrides"])
@pytest.mark.parametrize("key, value", [
    ("horizon", "3.5"), ("replicates", True), ("discount", "high")])
def test_config_value_that_does_not_parse_names_its_key(tmp_path, source,
                                                        key, value):
    """A value its key's parser refuses is a ValueError that names the
    section, the key and the value, whichever source gives it."""
    args = _sources(tmp_path, source, {"sim": {key: value}})
    with pytest.raises(ValueError) as e:
        config.load_config(*args)
    assert str(e.value).startswith(f"[sim] {key} = {str(value)!r}: ")


@pytest.mark.parametrize("source", ["ini", "json", "env", "overrides"])
def test_config_keys_fold_case_in_every_source(tmp_path, source):
    """``Family`` is ``family`` in every source, as configparser has it."""
    args = _sources(tmp_path, source, {"graph": {"Family": "cycle(8)"},
                                       "sim": {"REPLICATES": 3}})
    rc = config.load_config(*args)
    assert rc.graph_family == "cycle(8)" and rc.sim.replicates == 3


@pytest.mark.parametrize("source", ["json", "overrides"])
def test_config_key_named_twice_raises(tmp_path, source):
    """Two keys of one section that fold to one key are refused, as
    configparser refuses a duplicate INI key; the message shows both as
    written.  A section name does not fold."""
    args = _sources(tmp_path, source,
                    {"graph": {"family": "cycle(8)", "Family": "cycle(9)"}})
    with pytest.raises(ValueError) as e:
        config.load_config(*args)
    assert str(e.value) == ("keys 'family' and 'Family' in section [graph] "
                            "name one key")
    args = _sources(tmp_path, source, {"Graph": {"family": "cycle(8)"}})
    with pytest.raises(ValueError, match=r"unknown config section \[Graph\]"):
        config.load_config(*args)


def test_config_env_variables_naming_one_key_raise():
    """NETLEARN_* names fold case; two that name one key are refused."""
    environ = {"NETLEARN_SIM_SEED": "1", "NETLEARN_Sim_Seed": "2"}
    with pytest.raises(ValueError, match=r"name \[sim\] seed"):
        config.load_config(None, None, environ)


def test_console_entry_point():
    r = subprocess.run([sys.executable, "-m", "netlearn.cli", "--version"],
                       capture_output=True, text=True)
    assert r.returncode == 0
    assert "0.1.0" in r.stdout


def test_bundled_recipes_parse():
    for name in ("cycle20_gossip.cfg", "royal_family.cfg", "mad_king.cfg"):
        rc = config.load_config(os.path.join(PKG_ROOT, "scripts", name))
        g = rc.build_graph()
        m = rc.build_signal_model()
        rc.build_profile(g, m)


@pytest.mark.parametrize("name", ["cycle20_gossip.cfg", "royal_family.cfg",
                                  "mad_king.cfg"])
def test_bundled_recipes_run(tmp_path, name):
    """Each recipe runs end to end through simulate, report and trace CSV;
    the mad-king CSV holds one row per (replicate, agent, round)."""
    out, csv_path = tmp_path / "report.json", tmp_path / "trace.csv"
    code, _ = run_cli(["simulate", "--config",
                       os.path.join(PKG_ROOT, "scripts", name),
                       "--out", str(out), "--trace-csv", str(csv_path),
                       "--format", "summary"])
    assert code == 0
    report = json.loads(out.read_text())
    with open(csv_path, "rb") as f:
        rows = sum(1 for _ in f) - 1
    assert rows == report["replicates"] * report["n_agents"] \
        * report["config"]["horizon"]
    if name == "mad_king.cfg":
        assert rows == 100 * 504 * 12
