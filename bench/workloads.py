"""The benchmark's workloads: one INI config per (workload, seed, scale).

Each workload is a `netlearn simulate` recipe.  The seed becomes the
config's master seed and nothing else, so a seed fixes every replicate's
draw while the sizes stay put.  ``full`` is what the benchmark measures;
``tiny`` keeps the same shape at toy sizes for the smoke test.
"""
from __future__ import annotations

# Graph and profile sections per workload; [sim] sizes per scale.
_SECTIONS = {
    "royal-herding": {
        "graph": {"family": "royal_family(3,10)"},
        "signal": {"kind": "royal_bounded"},
        "profile": {"name": "royal_family", "tie": "zero"},
    },
    "gossip-large": {
        "graph": {"family": "cycle(1000)"},
        "signal": {"kind": "symmetric_binary", "q": "0.7"},
        "profile": {"name": "gossip", "tie": "zero"},
    },
    "mad-king-csv": {
        "graph": {"family": "mad_king(2,200,300)"},
        "signal": {"kind": "mad_king_asym"},
        "profile": {"name": "mad_king", "tie": "zero", "delta": "0.025",
                    "lam": "0.99"},
    },
    "exact-myopic": {
        "graph": {"family": "dicycle(9)"},
        "signal": {"kind": "symmetric_binary", "q": "0.7"},
        "profile": {"name": "myopic", "tie": "zero"},
    },
}

_SIM = {
    "full": {
        "royal-herding": dict(horizon=20, replicates=5000, discount=0.9,
                              tail_window=5),
        "gossip-large": dict(horizon=30, replicates=50, discount=0.9,
                             tail_window=5),
        "mad-king-csv": dict(horizon=12, replicates=10, discount=0.99,
                             tail_window=4),
        "exact-myopic": dict(horizon=4, replicates=10, discount=0.9,
                             tail_window=2),
    },
    "tiny": {
        "royal-herding": dict(horizon=20, replicates=200, discount=0.9,
                              tail_window=5),
        "gossip-large": dict(horizon=8, replicates=5, discount=0.9,
                             tail_window=3),
        "mad-king-csv": dict(horizon=12, replicates=3, discount=0.99,
                             tail_window=4),
        "exact-myopic": dict(horizon=3, replicates=4, discount=0.9,
                             tail_window=2),
    },
}

_TINY_GRAPH = {
    "gossip-large": "cycle(60)",
    "mad-king-csv": "mad_king(2,20,30)",
    "exact-myopic": "dicycle(5)",
}

NAMES = tuple(_SECTIONS)
SCALES = tuple(_SIM)


def sections(name: str, seed: int, scale: str, out_dir: str) -> dict:
    """The config of one run as {section: {key: value}}; output paths point
    into ``out_dir``."""
    secs = {s: dict(kv) for s, kv in _SECTIONS[name].items()}
    if scale == "tiny" and name in _TINY_GRAPH:
        secs["graph"]["family"] = _TINY_GRAPH[name]
    secs["sim"] = {k: str(v) for k, v in _SIM[scale][name].items()}
    secs["sim"]["seed"] = str(seed)
    secs["output"] = {"report_json": f"{out_dir}/report.json"}
    if name == "mad-king-csv":
        secs["output"]["trace_csv"] = f"{out_dir}/trace.csv"
    return secs


def write_ini(secs: dict, path: str) -> None:
    with open(path, "w") as f:
        for s, kv in secs.items():
            f.write(f"[{s}]\n")
            for k, v in kv.items():
                f.write(f"{k} = {v}\n")
            f.write("\n")
