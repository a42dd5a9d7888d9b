"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload report-json --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` makes the traced run and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above
it are the human-readable report. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: the end-to-end metrics every workload reports with ``--trace 0``
E2E = [
    ("setup_s", "s"),
    ("cold_s", "s"),
    ("warm_s", "s"),
    ("events_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]

#: the per-layer metrics every workload reports with ``--trace 1``: the
#: ones that are measured on every workload (a layer a workload never
#: enters is printed in the report table but not here)
PER_LAYER = [
    "trace.read_s",
    "trace.read_mb_per_s",
    "trace.write_s",
    "trace.archive_mb",
    "parallel.engine_s",
    "parallel.merge_s",
    "parallel.shards",
    "passes.reuse_s",
    "passes.diagnostics_s",
    "passes.captures_s",
    "passes.hotspot_s",
    "passes.windows_s",
    "passes.events",
    "artifacts.digest_s",
    "artifacts.get_s",
    "artifacts.put_s",
    "artifacts.hit_ratio",
    "report.payload_s",
    "unaccounted_s",
    "trace_overhead_s",
]

WORKLOAD_NAMES = ["report-json", "report-html", "serve-stream", "matrix-sweep"]

DEFAULT_SEED = 1
VALIDATION_SEED = 2


def fail(msg: str) -> "None":
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def git_sha(root: Path) -> str:
    """HEAD's commit from ``.git`` files, without walking above ``root``."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint(args, wl) -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "git_sha": git_sha(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": args.trace,
        "n_events": wl.n_events,
        "archive_bytes": wl.archive_bytes,
    }


def quantile_row(values: list[float], scale: float = 1.0) -> str:
    """Median, and the highest of p90/p99 with >= 10 samples beyond it."""
    import numpy as np

    v = np.asarray(values, dtype=float) * scale
    row = f"p50 {np.median(v):10.4f}"
    for q in (0.99, 0.9):
        if len(v) * (1 - q) >= 10:
            row += f"  p{round(q * 100)} {np.quantile(v, q):10.4f}"
            break
    return row + f"  n={len(v)}"


def measure(args, wl, work: Path) -> tuple[dict, object]:
    from workloads import Run

    setup_times = []
    for _ in range(wl.setup_reps):
        wl.undo_setup()
        t0 = time.perf_counter()
        wl.setup()
        setup_times.append(time.perf_counter() - t0)
    run = Run()
    wl.reference()
    values = wl.measure(run, args.seconds)
    values["setup_s"] = sorted(setup_times)[len(setup_times) // 2]
    cold = "fresh" if "fresh" in run.samples else "cold"
    values["counts"] = {
        "setup_s": len(setup_times),
        "cold_s": len(run.samples[cold]),
        "warm_s": len(run.samples["warm"]),
        "events_per_s": values.pop("rate_samples", len(run.samples[cold])),
        "peak_rss_mb": values.pop("rss_samples", len(run.samples[cold])),
    }
    print(f"setup_s samples: {', '.join(f'{t:.4f}' for t in setup_times)}")
    for kind, samples in sorted(run.samples.items()):
        unit_scale = 1000.0 if kind in ("fresh", "append_ack", "query") else 1.0
        unit = "ms" if unit_scale != 1.0 else "s"
        print(f"  {kind:<11} [{unit}] {quantile_row(samples, unit_scale)}")
    return values, run


def traced(args, wl, work: Path) -> tuple[dict, object, dict]:
    """Per-layer metrics from in-process replays with spans around each layer."""
    import numpy as np

    from layers import MOVES, UNACCOUNTED_BOUND, instrument
    from spans import Recorder, inclusive_time, layer_self_times
    from workloads import Run, ServeStream, reap_children

    run = Run()
    setup_rec = Recorder()
    with instrument(setup_rec):
        wl.setup()
    wl.reference()
    serve_samples = None
    if isinstance(wl, ServeStream):
        # one untraced daemon round: the fresh latency the replay explains
        wl.measure(run, 0.0)
        serve_samples = {k: list(v) for k, v in run.samples.items()}

    # one untimed replay first: the first in-process pass pays one-off
    # costs (allocator growth, lazy imports) that would bias the pair
    for _, thunk in wl.replay(run, work / "replay-warmup"):
        thunk()
    reap_children()
    shutil.rmtree(work / "replay-warmup", ignore_errors=True)

    reps = []
    t_start = time.perf_counter()
    i = 0
    while True:
        walls = {}
        # alternate which replay goes first, so neither always pays warm-up
        for mode in ("untraced", "traced") if i % 2 == 0 else ("traced", "untraced"):
            cache = work / f"replay-{mode}-{i}"
            rec = Recorder()
            ops = wl.replay(run, cache)
            t0 = time.perf_counter()
            if mode == "traced":
                with instrument(rec):
                    for kind, thunk in ops:
                        with rec.span(f"op:{kind}"):
                            thunk()
                    reap_children()
            else:
                for kind, thunk in ops:
                    thunk()
                reap_children()
            walls[mode] = time.perf_counter() - t0
            shutil.rmtree(cache, ignore_errors=True)
        reps.append((walls, rec))
        i += 1
        if time.perf_counter() - t_start >= args.seconds:
            break

    from repro.core.passes import scan_chunk, schedule_passes

    pass_s: dict[str, float] = defaultdict(float)
    pass_events = 0
    for events, sid, requests in wl.pass_work():
        pass_events += len(events)
        for r in schedule_passes(requests):
            t0 = time.perf_counter()
            scan_chunk(events, sid, [r.spec])
            pass_s[r.name] += time.perf_counter() - t0

    setup_self = layer_self_times(setup_rec.spans)
    per_rep = []
    per_op: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for walls, rec in reps:
        own = layer_self_times(rec.spans)
        c = rec.counts

        def s(name):
            return own.get(name, 0.0)

        m = {}
        read = s("trace.read") + s("trace.chunk_read")
        m["trace.read_s"] = read
        m["trace.read_mb_per_s"] = c["trace.decoded_bytes"] / 1e6 / read if read else 0.0
        m["trace.chunk_read_s"] = s("trace.chunk_read")
        m["trace.chunks"] = c["trace.chunks"]
        m["trace.write_s"] = s("trace.write") + setup_self.get("trace.write", 0.0)
        m["trace.archive_mb"] = sum(wl.archive_bytes.values()) / 1e6
        m["shm.publish_s"] = s("shm.publish")
        m["shm.mb_published"] = c["shm.bytes"] / 1e6
        for name in ("plan", "wait", "merge", "engine"):
            m[f"parallel.{name}_s"] = s(f"parallel.{name}")
        m["parallel.shards"] = c["parallel.shards"] + c["trace.chunks"]
        if c["parallel.analyze_calls"]:
            m["parallel.incremental_ratio"] = c["parallel.analyze_reused"] / c["parallel.analyze_calls"]
        m["passes.scan_s"] = s("passes.scan")
        for name, secs in pass_s.items():
            m[f"passes.{name}_s"] = secs
        m["passes.events"] = pass_events
        for name in ("digest", "get", "put"):
            m[f"artifacts.{name}_s"] = s(f"artifacts.{name}")
        m["artifacts.hit_ratio"] = c["artifacts.hits"] / c["artifacts.gets"] if c["artifacts.gets"] else 0.0
        for span in ("interval_tree.build", "interval_tree.intervals", "phases.detect",
                     "zoom.location", "heatmap.build", "viz.viewmodel", "viz.render",
                     "report.payload", "matrix.cell", "diff.verdict"):
            m[f"{span}_s"] = s(span)
        m["viz.html_mb"] = c["viz.html_bytes"] / 1e6
        if "session.ingest" in own:
            m["session.ingest_s"] = s("session.ingest")
            m["session.write_s"] = s("trace.write")
            m["session.analyze_s"] = inclusive_time(rec.spans, "parallel.engine", "session.ingest")
            m["session.query_s"] = inclusive_time(rec.spans, "session.query")
        m["unaccounted_s"] = sum(v for k, v in own.items() if k.startswith("op:"))
        m["trace_overhead_s"] = walls["traced"] - walls["untraced"]
        m["traced_wall_s"] = walls["traced"]
        m["untraced_wall_s"] = walls["untraced"]
        per_rep.append(m)
        for span in rec.spans:
            if span.name.startswith("op:"):
                per_op[span.name[3:]]["wall"].append(span.duration)
        for op_name, layer_s in _per_op_layers(rec.spans).items():
            for layer, v in layer_s.items():
                per_op[op_name][layer].append(v)

    keys = sorted({k for m in per_rep for k in m})
    metrics = {k: float(np.median([m.get(k, 0.0) for m in per_rep])) for k in keys}
    if serve_samples is not None:
        fresh_ms = 1000 * float(np.median(serve_samples["fresh"]))
        service_ms = 1000 * metrics["untraced_wall_s"] / max(run.appends, 1)
        metrics["serve.append_ack_ms"] = 1000 * float(np.median(serve_samples["append_ack"]))
        metrics["serve.query_ms"] = 1000 * float(np.median(serve_samples["query"]))
        metrics["serve.overhead_ms"] = fresh_ms - service_ms
        print(f"serve: fresh p50 {fresh_ms:.2f} ms, replayed service time per append "
              f"{service_ms:.2f} ms over {run.appends} appends")

    print(f"traced replays: {len(reps)}; pass timing over {pass_events:,} events")
    print(f"{'metric':<28} {'value':>12}  unit    expected to move")
    for k in keys + [k for k in metrics if k.startswith("serve.")]:
        v = metrics[k]
        if v == 0.0 or k not in MOVES:
            continue
        unit, moves = MOVES[k]
        print(f"{k:<28} {v:12.4f}  {unit:<7} {moves}")
    print("self time per operation and layer (median over replays, s):")
    for op_name, layers_s in per_op.items():
        wall = float(np.median(layers_s.pop("wall")))
        parts = sorted(((float(np.median(v)), k) for k, v in layers_s.items()), reverse=True)
        shown = ", ".join(f"{k} {v:.3f}" for v, k in parts if v >= 0.0005)
        print(f"  {op_name:<9} wall {wall:.3f}: {shown}")
    share = metrics["unaccounted_s"] / metrics["traced_wall_s"] if metrics["traced_wall_s"] else 0.0
    if args.scale >= 1:
        # the bound is set for the recorded input sizes; on shrunken
        # inputs the CLI's fixed cost outside any layer weighs more
        run.check("unaccounted share", share <= UNACCOUNTED_BOUND,
                  f"unaccounted_s is {share:.1%} of the traced wall (bound {UNACCOUNTED_BOUND:.0%})")
    print(f"unaccounted_s is {share:.1%} of the traced wall (bound {UNACCOUNTED_BOUND:.0%}); "
          f"tracing overhead {metrics['trace_overhead_s']:+.4f} s on "
          f"{metrics['untraced_wall_s']:.4f} s untraced")
    return metrics, run, per_op


def _per_op_layers(spans) -> dict[str, dict[str, float]]:
    """Self time per layer span, grouped by the ``op:*`` root it ran under."""
    from spans import self_times

    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        root = s
        while root.parent is not None:
            root = by_id[root.parent]
        if not root.name.startswith("op:"):
            continue
        layer = "unaccounted" if s is root else s.name
        out[root.name[3:]][layer] += own[s.id]
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"input seed (default {DEFAULT_SEED}; validate on {VALIDATION_SEED})")
    p.add_argument("--seconds", type=float, default=15.0, help="measuring time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0, help="input size factor (self-tests)")
    p.add_argument("--ledger", help="also write the full result, with samples, as JSON here")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        fail(f"no program sources under {ROOT / 'src'}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    from procs import become_subreaper, reap_orphans, stop_resource_tracker
    from workloads import WORKLOADS, reap_children

    become_subreaper()
    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    os.environ["TMPDIR"] = str(work / "tmp")
    wl = WORKLOADS[args.workload](ROOT, work, args.seed, args.scale)
    try:
        if args.trace:
            values, run, per_op = traced(args, wl, work)
            names = [(k, _layer_unit(k)) for k in PER_LAYER]
        else:
            values, run = measure(args, wl, work)
            per_op = None
            names = E2E
    finally:
        wl.close()
        reap_children()
        stop_resource_tracker()
        reap_orphans()
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.exists() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    env = fingerprint(args, wl)
    print("env: " + json.dumps(env, sort_keys=True))
    attempted = max(run.attempted, 1)
    print(f"failed_ratio {run.failed / attempted:.4f} ({run.failed}/{run.attempted})")
    if args.workload == "serve-stream" and run.appends:
        print(f"shed_ratio {run.shed / run.appends:.4f} ({run.shed}/{run.appends} appends)")
    for f in run.failures[:20]:
        print(f"FAILED {f}")
    metrics = {}
    counts = values.get("counts", {})
    for name, unit in names:
        n = counts.get(name)
        print(f"metric {name:<24} {values.get(name, 0.0):14.6f} {unit}" + (f"  n={n}" if n else ""))
        metrics[name] = {"value": values.get(name, 0.0), "unit": unit}
    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    if args.ledger:
        ledger = {"env": env, "result": result, "all_metrics": values,
                  "samples": dict(run.samples), "failures": run.failures}
        if per_op is not None:
            ledger["per_op"] = {k: {m: list(v) for m, v in d.items()} for k, d in per_op.items()}
        Path(args.ledger).write_text(json.dumps(ledger, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


def _layer_unit(name: str) -> str:
    from layers import MOVES

    return MOVES[name][0]


if __name__ == "__main__":
    sys.exit(main())
