#!/usr/bin/env python3
"""Benchmark of relufem's build, verify and eval paths.

Run from the repository root:

    python3 perfbench/run.py --workload simplex3d --seed 1 --seconds 30 --trace 0

The program is imported from ./src of the checkout the script sits in, and
driven in-process through the CLI entry point `relufem.cli.main`, with the
default thread settings. A run sets the inputs up `setup_reps` times
(median reported as setup_s), then repeats whole rounds of
build / verify / eval plus output checks until the next round would end
after --seconds, with at least two rounds so repeated builds can be
compared byte for byte. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}; --trace 0 reports the
end-to-end metrics, --trace 1 wraps the program's public functions and
reports per-layer metrics instead, and writes every span to
.perfbench_out/trace-<workload>-<seed>.json. `--workload all` runs each
workload in its own child process, one after another.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MIN_ROUNDS = 2
WORKLOAD_NAMES = ("simplex3d", "polygon2d", "tnn")

END_TO_END = {
    "setup_s": "s",
    "build_s": "s",
    "verify_s": "s",
    "eval_pts_per_s": "points/s",
    "net_bytes": "bytes",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (span name, what to take from the spans, unit)
PER_LAYER = {
    "meshgen.generate_s": ("meshgen.generate", "time", "s"),
    "docio.io_s": ("docio.io", "time", "s"),
    "mesh.validate_mesh_s": ("mesh.validate_mesh", "time", "s"),
    "mesh.registry_s": ("mesh.registry", "time", "s"),
    "mesh.registry_size": ("mesh.registry", "max:size", "count"),
    "mesh.sample_cells_s": ("mesh.sample_cells", "time", "s"),
    "mesh.sample_cells_points": ("mesh.sample_cells", "sum:points", "count"),
    "lp.linprog_calls": ("lp.linprog", "calls", "count"),
    "lp.linprog_s": ("lp.linprog", "time", "s"),
    "pwl.sup_norm_s": ("pwl.sup_norm", "time", "s"),
    "compiler.compile_s": ("compiler.compile", "time", "s"),
    "compiler.cell_bump_s": ("compiler.cell_bump", "time", "s"),
    "compiler.cell_bump_calls": ("compiler.cell_bump", "calls", "count"),
    "compiler.merge_s": ("compiler.merge", "time", "s"),
    "verify.check_weak_representation_s":
        ("verify.check_weak_representation", "time", "s"),
    "verify.sample_exterior_s": ("verify.sample_exterior", "time", "s"),
    "networks.fnn_forward_s": ("networks.fnn_forward", "time", "s"),
    "networks.fnn_forward_points":
        ("networks.fnn_forward", "sum:points", "count"),
    "networks.fnn_h1": (None, "size", "count"),
    "networks.fnn_h2": (None, "size", "count"),
    "networks.fnn_w2_nnz": (None, "size", "count"),
    "networks.fnn_flops_per_point": (None, "size", "flop"),
    "networks.save_s": ("networks.save", "time", "s"),
    "networks.load_s": ("networks.load", "time", "s"),
    "tensorfe.cp_decompose_s": ("tensorfe.cp_decompose", "time", "s"),
    "tensorfe.cp_rank": ("tensorfe.cp_decompose", "sum:rank", "count"),
    "tensorfe.compile_1d_hat_s": ("tensorfe.compile_1d_hat", "time", "s"),
    "tensorfe.compile_1d_hat_calls":
        ("tensorfe.compile_1d_hat", "calls", "count"),
    "networks.tnn_forward_s": ("networks.tnn_forward", "time", "s"),
    "networks.tnn_forward_points":
        ("networks.tnn_forward", "sum:points", "count"),
    "tensorfe.eval_s": ("tensorfe.eval", "time", "s"),
}


class Session:
    """Runs CLI calls in-process and counts operations and failed checks."""

    def __init__(self, tracer, cli_main):
        self.tracer = tracer
        self.cli_main = cli_main
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def cli(self, label, argv):
        """Run `relufem <argv>`; returns (seconds, stdout). The exit code
        is checked as one operation."""
        buf = io.StringIO()
        with self.tracer.span("bench." + label):
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                rc = self.cli_main(argv)
            seconds = time.perf_counter() - t0
        self.check(f"relufem {argv[0]} exits 0 (got {rc})", rc == 0)
        return seconds, buf.getvalue()

    def check(self, what, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def span(self, name):
        return self.tracer.span(name)

    @contextlib.contextmanager
    def checking(self):
        """Program calls made by the checks are kept out of the metrics."""
        phase = self.tracer.phase
        self.tracer.phase = "check"
        try:
            yield
        finally:
            self.tracer.phase = phase


def per_layer_metrics(spans, setup_reps, rounds, sizes):
    """Per-layer values for one set-up plus one round: set-up spans are
    divided by the set-up count, round spans by the round count; spans
    made by the output checks are left out."""
    from tracer import outermost

    weight = {"setup": 1.0 / setup_reps, "round": 1.0 / rounds}
    top = [s for s in outermost(spans) if s["phase"] in weight]
    out = {}
    for metric, (span_name, take, unit) in PER_LAYER.items():
        if take == "size":
            out[metric] = (sizes.get(metric, 0), unit)
            continue
        mine = [s for s in top if s["name"] == span_name]
        if take == "time":
            value = sum((s["end"] - s["start"]) * weight[s["phase"]]
                        for s in mine)
        elif take == "calls":
            value = sum(weight[s["phase"]] for s in mine)
        else:
            how, key = take.split(":")
            vals = [s.get(key, 0) for s in mine]
            if how == "sum":
                value = sum(v * weight[s["phase"]] for v, s in zip(vals, mine))
            else:
                value = max(vals, default=0)
        out[metric] = (value, unit)
    return out


def run_workload(args) -> dict:
    if not (SRC / "relufem" / "__init__.py").is_file():
        raise SystemExit(f"error: no relufem sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import relufem
    from relufem.cli import main as cli_main
    if Path(relufem.__file__).resolve().parent != SRC / "relufem":
        raise SystemExit(f"error: relufem imported from {relufem.__file__}, "
                         f"not from {SRC}")
    import tracer as tracing
    import workloads

    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    installed = tracer.install() if args.trace else []
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, str(workdir))
        session = Session(tracer, cli_main)
        wl.draw()

        setup_times = []
        for _ in range(wl.setup_reps):
            with tracer.span("bench.setup"):
                t0 = time.perf_counter()
                wl.setup()
                setup_times.append(time.perf_counter() - t0)
        tracer.phase = "check"
        wl.prepare()

        tracer.phase = "round"
        rounds = []
        t_loop = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            with tracer.span("bench.round"):
                rounds.append(wl.run_round(session))
            now = time.perf_counter()
            line = " ".join(f"{k}={v:.6g}" for k, v in rounds[-1].items())
            print(f"round {len(rounds)}: {line}", file=sys.stderr)
            if len(rounds) >= MIN_ROUNDS and \
                    (now - t_loop) + (now - t0) > args.seconds:
                break
        sizes = wl.sizes()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e = {
        "setup_s": statistics.median(setup_times),
        "build_s": statistics.median(r["build_s"] for r in rounds),
        "verify_s": statistics.median(r["verify_s"] for r in rounds),
        "eval_pts_per_s": statistics.median(r["eval_points"] / r["eval_s"]
                                            for r in rounds),
        "net_bytes": rounds[-1]["net_bytes"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    for what in session.failures:
        print(f"FAILED: {what}", file=sys.stderr)
    if args.trace:
        layers = per_layer_metrics(tracer.spans, wl.setup_reps, len(rounds),
                                   sizes)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        write_trace(args, tracer, installed, e2e, layers, len(rounds))
    else:
        metrics = {k: {"value": e2e[k], "unit": u}
                   for k, u in END_TO_END.items()}
    return {"correct": session.failed == 0, "attempted": session.attempted,
            "failed": session.failed, "metrics": metrics}


def write_trace(args, tracer, installed, e2e, layers, rounds):
    from tracer import coverage, self_times

    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": rounds,
        "installed": sorted(set(installed)),
        "skipped": tracer.skipped,
        "end_to_end_traced": e2e,
        "per_layer": {k: v for k, (v, _) in layers.items()},
        "covered_share": {
            name: coverage(tracer.spans, name)
            for name in ("bench.build", "bench.verify", "bench.eval")},
        "span_totals": self_times(tracer.spans),
        "spans": tracer.spans,
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-{args.seed}.json"
    with open(path, "w") as fh:
        json.dump(doc, fh)
    print(f"trace written to {path}", file=sys.stderr)


def run_all(args) -> dict:
    """Each workload in its own process, so peak memory stays per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              check=False)
        if proc.returncode != 0:
            raise SystemExit(f"error: workload {name} exited "
                             f"{proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, val in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = val
            print(f"{name:10s} {key:38s} {val['value']:>16.6g} {val['unit']}")
    return merged


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
