"""The repository benchmark: SysML v2 sources to Kubernetes manifests,
end to end and layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload compile-x10 --seed 1 --seconds 10 --trace 0

Workloads: ``compile-x10``, ``edit-x10``, ``serve-mix`` (see
``workloads.py`` and ``design.json``). The program is used from
``src/`` of the same checkout; the benchmark builds nothing.

With ``--trace 0`` the run sets up (several times; ``setup_s`` is the
median), measures one untraced window and prints the end-to-end
metrics. With ``--trace 1`` it measures an untraced window and then a
traced one on the same inputs, and prints the per-layer metrics, the
tracing overhead and the layers' coverage of the traced op time.

Either way the program's outputs are checked after each window
(``checks.py``). The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 0
only when every output is correct.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: the program is measured on the ×10 mega factory (tests build the
#: workloads at ×1 directly)
SCALE = 10


def metric_units(kind: str) -> dict[str, str]:
    """name -> unit of the ``end_to_end`` or ``per_layer`` metrics in
    BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


clock = time.perf_counter


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("compile-x10", "edit-x10", "serve-mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def latencies_s(window) -> list[float]:
    """Op latencies; a failed op counts as the whole window."""
    return [value if math.isfinite(value) else window.seconds
            for value in window.latencies]


def mean_ms(window) -> float:
    return statistics.fmean(latencies_s(window)) * 1e3


def untraced(workload, seconds: float) -> tuple[dict, list, object]:
    from checks import check_golden
    from workloads import peak_rss_mb
    setups = []
    for number in range(workload.setups):
        if number:
            workload.teardown()
        started = clock()
        workload.setup()
        setups.append(clock() - started)
    window = workload.run(seconds, None)
    errors = window.errors + workload.finish()
    rss = peak_rss_mb()
    errors += workload.check(window)
    golden, covered = check_golden(workload.name, workload.seed,
                                   window.digests)
    print(f"golden digests met: {covered} of {len(window.digests)} ops")
    completed = window.attempted - window.failed
    metrics = {
        "op_mean_ms": mean_ms(window),
        "throughput_ops_s": completed / window.seconds,
        "peak_rss_mb": rss,
        "setup_s": statistics.median(setups),
    }
    from workloads import percentile
    values = latencies_s(window)
    for q in (50, 95) if len(values) >= 200 else (50,):
        print(f"op_p{q}_ms {percentile(values, q) * 1e3:.4f} ms "
              f"(n={len(values)})")
    return metrics, errors + golden, window


def traced(workload, seconds: float) -> tuple[dict, list, object]:
    import tracing
    from checks import check_golden
    workload.setup()
    plain = workload.run(seconds, None)
    errors = plain.errors + workload.finish()
    errors += check_golden(workload.name, workload.seed,
                           plain.digests)[0]
    workload.teardown()
    workload.traced = True
    workload.setup()
    recorder = tracing.Recorder()
    patches = tracing.install(recorder)
    recorder.start_gc()
    try:
        window = workload.run(seconds, recorder)
    finally:
        recorder.stop_gc()
        tracing.uninstall(patches)
    errors += window.errors + workload.finish()
    errors += workload.check(window)
    errors += check_golden(workload.name, workload.seed,
                           window.digests)[0]
    common = sorted(set(plain.digests) & set(window.digests))
    errors += [f"op {index}: traced output differs from untraced"
               for index in common
               if plain.digests[index] != window.digests[index]]
    print(f"traced vs untraced digests compared on {len(common)} ops")
    if workload.name == "serve-mix":
        recorder = tracing.Recorder.load(str(workload.spans_file))
    metrics = layer_metrics(workload, recorder, window)
    metrics["trace.overhead_ms"] = mean_ms(window) - mean_ms(plain)
    return metrics, errors, window


def layer_metrics(workload, recorder, window) -> dict:
    from tracing import attr_sum, layer_totals
    totals = layer_totals(recorder.spans)
    spans = [span for span in recorder.spans if span[4] is not None]
    ops = max(window.attempted, 1)

    def self_s(name: str) -> float:
        return totals.get(name, {}).get("self_s", 0.0)

    def rate(count: float, name: str) -> float:
        return count / self_s(name) if self_s(name) > 0 else 0.0

    updates = [s[2] - s[1] for s in spans if s[0] == "sysml.incremental"]
    metrics = {name: 0.0 for name in metric_units("per_layer")}
    for name in ("sysml.lexer", "sysml.parser", "sysml.builder",
                 "sysml.resolver", "sysml.depgraph", "isa95.topology",
                 "isa95.validation", "codegen.pipeline", "service.http"):
        metrics[f"{name}.self_s"] = self_s(name) / ops
    metrics.update({
        "sysml.lexer.tokens_per_s":
            rate(attr_sum(spans, "sysml.lexer", "tokens"), "sysml.lexer"),
        "sysml.builder.elements":
            attr_sum(spans, "sysml.builder", "elements") / ops,
        "sysml.resolver.elements_per_s":
            rate(attr_sum(spans, "sysml.resolver", "elements"),
                 "sysml.resolver"),
        "isa95.topology.machines":
            attr_sum(spans, "isa95.topology", "machines") / ops,
        "isa95.topology.points":
            attr_sum(spans, "isa95.topology", "points") / ops,
        "gc.pause_s": sum(v for k, v in recorder.gc_pause_by_op.items()
                          if k not in (None, "None")) / ops,
        "gc.gen2_collections":
            sum(v for k, v in recorder.gc_gen2_by_op.items()
                if k not in (None, "None")) / ops,
        "codegen.pipeline.manifests":
            attr_sum(spans, "codegen.pipeline", "manifests") / ops,
        "codegen.pipeline.output_bytes":
            attr_sum(spans, "codegen.pipeline", "output_bytes") / ops,
        "sysml.incremental.update_s":
            sum(updates) / len(updates) if updates else 0.0,
    })
    if workload.name == "serve-mix":
        served = totals.get("service.http", {}).get("total_s", 0.0)
        client = sum(v for v in window.latencies if math.isfinite(v))
        metrics["trace.coverage"] = served / client if client else 0.0
    else:
        root = totals.get("op", {"self_s": 0.0, "total_s": 0.0})
        metrics["trace.coverage"] = 1.0 - root["self_s"] / root["total_s"] \
            if root["total_s"] else 0.0
    metrics.update(workload.layers(spans, window))
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: {ROOT / 'src' / 'repro'} is missing; run the "
              f"benchmark from a full checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    workdir = ROOT / ".perfbench-run" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, SCALE, workdir)
    try:
        if args.trace:
            metrics, errors, window = traced(workload, args.seconds)
        else:
            metrics, errors, window = untraced(workload, args.seconds)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    units = metric_units("per_layer" if args.trace else "end_to_end")
    for failure in window.failures[:10]:
        print(f"failed: {failure}")
    for error in errors[:20]:
        print(f"INCORRECT: {error}")
    print(f"host: cpu_count={os.cpu_count()} "
          f"python={platform.python_version()}")
    print(f"workload {args.workload} seed {args.seed}: "
          f"{window.attempted} ops attempted, {window.failed} failed, "
          f"window {window.seconds:.3f} s")
    for name, unit in units.items():
        print(f"{name:44s} {metrics[name]:16.6f} {unit}")
    print(json.dumps({
        "correct": not errors,
        "attempted": window.attempted,
        "failed": window.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    raise SystemExit(main())
