#!/usr/bin/env python3
"""The hwdbg end-to-end benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from the root of a source tree. The first run configures and builds
the measuring binary (perfbench/hwdbg_perfbench, linked against ../src)
and the hwdbg CLI into $CARGO_TARGET_DIR, or .bench_build when unset.
Build output goes to stderr.

Each run prints a detail line with the workload's own metrics and, as
the last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured with
tracing off. With --trace 1 they are the per-layer ones: the binary
spans every layer call from the benchmark's own code, the trace must pass
`hwdbg obscheck`, and each layer is reported as its share of the traced
operations' time. METRICS.md defines every metric per workload.

--workload all runs every workload once, untraced, and prints a table of
the workload-named end-to-end metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import stats  # noqa: E402

ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170

# Tail percentile per workload: the highest one the run's sample count
# supports with ten samples beyond it.
TAIL_P = {"testbed_cli": 99, "corpus_sim": 95, "serve_debug": 99}
WORKLOADS = list(TAIL_P)

# Per-layer time shares: metric name -> benchmark span (see bench.hh).
LAYER_SPANS = [
    ("hdl.parse_pct", "hdl.parse"),
    ("elab.elaborate_pct", "elab.elaborate"),
    ("lint.run_pct", "lint.run"),
    ("lint.render_pct", "lint.render"),
    ("analyze.run_pct", "analyze.run"),
    ("analyze.render_pct", "analyze.render"),
    ("core.instrument_pct", "core.instrument"),
    ("hdl.print_pct", "hdl.print"),
    ("sim.lower_pct", "sim.lower"),
    ("compile.lower_pct", "compile.lower"),
    ("cover.items_pct", "cover.items"),
    ("cover.render_pct", "cover.render"),
    ("trace.attach_pct", "trace.attach"),
    ("trace.render_pct", "trace.render"),
    ("sim.workload_pct", "sim.workload"),
    ("sim.eval_interp_pct", "sim.eval_interp"),
    ("compile.eval_bytecode_pct", "compile.eval_bytecode"),
    ("sim.drain_pct", "sim.drain"),
]
# Server-side request spans the library itself records.
SERVER_SPAN_PREFIXES = ("serve.cmd:", "debug.cmd:")
SERVE_CMDS = ["goto-cycle", "reverse-step", "step", "break", "run",
              "print", "events", "info", "open", "close"]


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def declared_units():
    """Metric name -> unit for each kind ("end_to_end", "per_layer"),
    as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def build_root():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(ROOT, root))


def build():
    """Configure (once) and build the benchmark binary and the CLI;
    return the build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die(f"no hwdbg sources under {ROOT}/src")
    out = os.path.join(build_root(), "perfbench")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode:
            die("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", out, "--target",
                       "hwdbg_perfbench", "hwdbg", "-j", jobs],
                      stdout=sys.stderr).returncode:
        die("build failed")
    return out


def cli_backend(out):
    """The engine the built CLI's cover and trace use without --backend,
    read off the "backend" member of a trace dump."""
    proc = subprocess.run([os.path.join(out, "hwdbg", "hwdbg"), "trace",
                           "--bug", "D1", "--format", "json"],
                          stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode:
        die("hwdbg trace --bug D1 failed")
    return json.loads(proc.stdout)["backend"]


def run_binary(out, workload, seed, seconds, trace_path):
    cmd = [os.path.join(out, "hwdbg_perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--cli-backend", cli_backend(out)]
    if trace_path:
        cmd += ["--trace-out", trace_path]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{workload} did not finish in {RUN_TIMEOUT_S} s")
    if proc.returncode:
        die(f"{workload} run exited with {proc.returncode}")
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    # Each group holds every sample up to a cap, then a uniform
    # reservoir; "count" and "sum" still cover every operation.
    groups = raw.pop("samples")
    raw["samples"] = {g: s["kept"] for g, s in groups.items()}
    raw["counts"] = {g: s["count"] for g, s in groups.items()}
    raw["sums"] = {g: s["sum"] for g, s in groups.items()}
    return raw


def span_totals(trace):
    """Total duration (us) and count of every span name in a Chrome
    trace of B/E events, pairing them per track."""
    stacks, totals = {}, {}
    for event in trace["traceEvents"]:
        if event["ph"] == "B":
            stacks.setdefault(event["tid"], []).append(
                (event["name"], event["ts"]))
        elif event["ph"] == "E":
            name, begin = stacks[event["tid"]].pop()
            total = totals.setdefault(name, [0.0, 0])
            total[0] += event["ts"] - begin
            total[1] += 1
    return totals


def design_medians(raw, prefix):
    return {key[len(prefix):]: stats.median(values)
            for key, values in raw["samples"].items()
            if key.startswith(prefix)}


def end_to_end(workload, raw):
    ops = raw["samples"]["op"]
    if workload == "corpus_sim":
        # Median over designs of each design's median run, so the
        # pooled mix of fast and slow designs cannot move it.
        p50 = stats.median(list(design_medians(raw, "design.").values()))
    else:
        p50 = stats.median(ops)
    return {
        "setup_s": stats.median(raw["setup_s"]),
        "peak_rss_mb": raw["values"]["peak_rss_kb"] / 1024,
        "p50_us": p50,
        "tail_us": stats.tail(ops, TAIL_P[workload]),
        "ops_per_s": raw["counts"]["op"] / raw["measure_s"],
    }


def backend_ratios(raw):
    """Per-design interp / bytecode median eval-time ratios (corpus)."""
    bytecode = design_medians(raw, "eval_bytecode.")
    return [interp / bytecode[seed] for seed, interp
            in design_medians(raw, "eval_interp.").items()]


def per_layer(workload, raw, totals):
    values = raw["values"]
    op_us = totals.get("bench:op", [0.0, 0])[0]
    if op_us <= 0:
        raise ValueError("the trace holds no timed operations")
    metrics = {}
    for name, span in LAYER_SPANS:
        metrics[name] = 100 * totals.get("bench:" + span, [0.0])[0] / op_us
    server_us = sum(total for name, (total, _) in totals.items()
                    if name.startswith(SERVER_SPAN_PREFIXES))
    metrics["serve.server_pct"] = 100 * server_us / op_us
    attributed = sum(metrics[name] for name, _ in LAYER_SPANS)
    attributed += metrics["serve.server_pct"]
    metrics["unattributed_pct"] = 100 - attributed
    metrics["obs.trace_overhead_pct"] = 100 * (
        values["traced_op_us_mean"] / values["untraced_op_us_mean"] - 1)
    for name in ("lint.diags", "analyze.diags", "core.generated_lines",
                 "sim.cycles", "sim.log_lines", "serve.cache_builds",
                 "serve.snap_dedup_pct"):
        metrics[name] = values.get(name, 0)
    ratios = backend_ratios(raw)
    metrics["compile.ratio_geo"] = stats.geomean(ratios) if ratios else 0
    metrics["compile.ratio_min"] = stats.minimum(ratios) if ratios else 0
    serve = workload == "serve_debug"
    lookups = values.get("serve.cache_hits", 0) + values.get(
        "serve.cache_misses", 0)
    metrics["serve.cache_hit_pct"] = (
        100 * values["serve.cache_hits"] / lookups if serve else 0)
    metrics["serve.cache_build_pct"] = (
        100 * values["serve.cache_build_ms"] / 1000 / values["setup_last_s"]
        if serve else 0)
    metrics["serve.snap_stored_kb"] = (
        values["serve.snap_stored_bytes"] / 1024
        / values["serve.sessions_opened"] if serve else 0)
    travels = sum(raw["counts"].get(cmd, 0)
                  for cmd in ("goto-cycle", "reverse-step"))
    metrics["debug.replayed_steps"] = (
        values["debug.replayed_steps"] / travels if travels else 0)
    return metrics


def detail(workload, raw, totals):
    """The workload's own metrics, by the names METRICS.md gives them."""
    samples, values = raw["samples"], raw["values"]
    out = {"fail_frac": stats.fail_frac(raw["failed"], raw["attempted"]),
           "setup_s": stats.median(raw["setup_s"]),
           "peak_rss_mb": values["peak_rss_kb"] / 1024,
           "ops": raw["counts"]["op"]}
    if workload == "testbed_cli":
        out["cmd_p50_ms"] = stats.median(samples["op"]) / 1000
        out["cmd_p99_ms"] = stats.tail(samples["op"], 99) / 1000
        for cmd in ("lint", "analyze", "instrument", "cover", "trace"):
            out[f"{cmd}_p50_ms"] = stats.median(samples[cmd]) / 1000
    elif workload == "corpus_sim":
        for backend in ("interp", "bytecode"):
            kcps = [values[f"cycles.{seed}"] * 1000 / lat for seed, lat
                    in design_medians(raw, backend + ".").items()]
            out[f"{backend}_kcps_geo"] = stats.geomean(kcps)
            out[f"{backend}_kcps_min"] = stats.minimum(kcps)
    else:
        out["req_p50_us"] = stats.median(samples["op"])
        out["req_p99_us"] = stats.tail(samples["op"], 99)
        out["reqs_per_s"] = raw["counts"]["op"] / raw["measure_s"]
        out["goto_p50_us"] = stats.median(samples["goto-cycle"])
        out["open_p50_us"] = stats.median(samples["open"])
        for cmd in SERVE_CMDS:
            if cmd not in samples:
                continue
            # statsJson() quantiles are histogram bucket bounds.
            out[f"serve.client_us.{cmd}"] = stats.median(samples[cmd])
            out[f"serve.server_us.{cmd}"] = values[f"server.p50_us.{cmd}"]
            if totals:
                # Mean client time less mean server span: the transport
                # and protocol cost of one request.
                server = [0.0, 0]
                for prefix in SERVER_SPAN_PREFIXES:
                    total = totals.get(prefix + cmd, [0.0, 0])
                    server = [server[0] + total[0], server[1] + total[1]]
                if server[1]:
                    out[f"serve.transport_us.{cmd}"] = (
                        raw["sums"][cmd] / raw["counts"][cmd]
                        - server[0] / server[1])
        out["serve.cache_build_ms"] = values["serve.cache_build_ms"]
    if totals:
        ops = totals["bench:op"][1]
        for _, span in LAYER_SPANS:
            if "bench:" + span in totals:
                out[f"{span}_ms"] = totals["bench:" + span][0] / ops / 1000
    return out


def detail_unit(name):
    """The unit of a detail metric, read off its name."""
    for part, unit in (("per_s", "1/s"), ("_ms", "ms"), ("_us", "us"),
                       ("_kcps", "kcycle/s"), ("_mb", "MB"), ("_pct", "%")):
        if part in name:
            return unit
    if name.endswith("_s"):
        return "s"
    return {"fail_frac": "fraction", "ops": "count"}.get(name, "")


def measure(out, workload, seed, seconds, trace):
    """One run; returns (result object, detail dict)."""
    trace_path = None
    if trace:
        runs = os.path.join(build_root(), "runs")
        os.makedirs(runs, exist_ok=True)
        trace_path = os.path.join(runs, f"{workload}.trace.json")
    raw = run_binary(out, workload, seed, seconds, trace_path)
    for error in raw["errors"]:
        print(f"perfbench: {workload}: {error}", file=sys.stderr)
    correct = raw["failed"] == 0
    totals = None
    if trace:
        check = subprocess.run([os.path.join(out, "hwdbg", "hwdbg"),
                                "obscheck", trace_path],
                               stdout=subprocess.PIPE, text=True)
        print(check.stdout.strip(), file=sys.stderr)
        correct = correct and check.returncode == 0
        with open(trace_path) as f:
            totals = span_totals(json.load(f))
        metrics = per_layer(workload, raw, totals)
        units = declared_units()["per_layer"]
    else:
        metrics = end_to_end(workload, raw)
        units = declared_units()["end_to_end"]
    if set(metrics) != set(units):
        die(f"metrics {sorted(set(metrics) ^ set(units))} do not match "
            "BENCHMARK.json")
    result = {
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return result, detail(workload, raw, totals)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out = build()
    if args.workload != "all":
        result, info = measure(out, args.workload, args.seed,
                               args.seconds, args.trace)
        print("detail " + json.dumps(info, sort_keys=True))
        print(json.dumps(result))
        return

    summary = {}
    for workload in WORKLOADS:
        result, info = measure(out, workload, args.seed, args.seconds, 0)
        summary[workload] = {"correct": result["correct"], **info}
        print(f"{workload}:")
        for name, value in sorted(info.items()):
            print(f"  {name:30} {value:<14.6g} {detail_unit(name)}")
    print(json.dumps(summary, sort_keys=True))


if __name__ == "__main__":
    main()
