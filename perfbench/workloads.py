"""The four workloads: inputs, reference outputs, measured and traced runs.

Every workload drives a real user path from outside the program:

* ``report-json`` / ``report-html`` / ``matrix-sweep`` run the
  ``memgaze`` CLI as a subprocess, cold (``--no-cache``) and warm
  (against a populated ``--cache-dir``);
* ``serve-stream`` runs ``memgaze serve`` as a daemon subprocess and
  feeds it from two client threads over two connections.

The reference output of each workload is computed once, in process,
through the serial inline path (``--workers 1``, no cache); every
measured operation's bytes must equal it.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import shutil
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import inputs
from procs import OWNED, RssSampler, kill_tree, program_env, run_cli

WORKERS = "2"
CHUNK = "131072"
MATRIX_CHUNK = "65536"


class Run:
    """Samples and failures of one benchmark run."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.shed = 0
        self.appends = 0

    def op(self, kind: str, seconds: float, ok: bool, why: str = "") -> None:
        """Record one operation; a failed one still keeps its time."""
        self.attempted += 1
        self.samples[kind].append(seconds)
        if not ok:
            self.failed += 1
            self.failures.append(f"{kind}: {why}")

    def check(self, what: str, ok: bool, why: str = "") -> None:
        """Record a correctness check that is not itself timed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{what}: {why}")


def cli_inprocess(args: list[str]) -> tuple[int, bytes]:
    """``repro.cli.main(args)`` in this process; returns (rc, stdout bytes)."""
    from repro.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(args)
    return rc, buf.getvalue().encode("utf-8")


def reap_children(timeout: float = 30.0) -> None:
    """Wait for (then kill) the pool workers in-process operations left.

    Engines that are dropped without ``close`` shut their pools down once
    garbage-collected; only ``multiprocessing`` children are waited for,
    so a daemon started with ``subprocess`` keeps running.
    """
    import multiprocessing

    gc.collect()
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            for child in multiprocessing.active_children():
                child.kill()
                child.join(5)
            return
        time.sleep(0.02)


class Workload:
    """One workload; subclasses fill in the operations."""

    name = ""
    setup_reps = 3

    def __init__(self, root: Path, work: Path, seed: int, scale: float) -> None:
        self.root = root
        self.work = work
        self.seed = seed
        self.scale = scale
        self.archive_bytes: dict[str, int] = {}
        self.n_events = 0

    def n(self, full: int, least: int = 20_000) -> int:
        return max(int(full * self.scale), least)

    # set-up: timed by the runner, repeated ``setup_reps`` times
    def setup(self) -> None:
        raise NotImplementedError

    def undo_setup(self) -> None:
        """Release what :meth:`setup` started before it runs again."""

    def reference(self) -> None:
        raise NotImplementedError

    def measure(self, run: Run, seconds: float) -> dict:
        raise NotImplementedError

    def close(self) -> None:
        self.undo_setup()

    # traced run
    def replay(self, run: Run, cache: Path) -> list[tuple[str, object]]:
        """In-process operations ``(kind, thunk)`` mirroring one measured pair."""
        raise NotImplementedError

    def pass_work(self):
        """``(events, sample_id, requests)`` units the per-pass timing scans."""
        raise NotImplementedError


class CliWorkload(Workload):
    """A workload whose operation is one ``memgaze`` CLI call."""

    #: warm calls after each cold one (more where a warm call is cheap)
    warm_per_cold = 1

    def out_dir(self) -> Path:
        return self.work / "out"

    def op_args(self, workers: str, cache: Path | None) -> list[str]:
        raise NotImplementedError

    def outputs(self, stdout: bytes) -> dict[str, bytes]:
        """The bytes an operation produced that must match the reference."""
        raise NotImplementedError

    def clear_outputs(self) -> None:
        shutil.rmtree(self.out_dir(), ignore_errors=True)
        self.out_dir().mkdir(parents=True)

    def reference(self) -> None:
        self.clear_outputs()
        rc, out = cli_inprocess(self.op_args("1", None))
        self.ref_rc = rc
        self.ref = self.outputs(out)

    def _verify(self, rc: int, stdout: bytes, stderr: bytes = b"") -> str:
        if rc != self.ref_rc:
            return f"exit code {rc} != {self.ref_rc}: {stderr.decode(errors='replace')[-300:]}"
        got = self.outputs(stdout)
        bad = [k for k in self.ref if got.get(k) != self.ref[k]]
        return f"output differs from reference: {', '.join(bad)}" if bad else ""

    def _cli_op(self, run: Run, kind: str, cache: Path | None, rss: list | None) -> None:
        self.clear_outputs()
        r = run_cli(self.op_args(WORKERS, cache), root=self.root, work=self.work,
                    sample_rss=rss is not None)
        why = self._verify(r.rc, r.stdout, r.stderr)
        run.op(kind, r.wall_s, not why, why)
        if rss is not None:
            rss.append(r.peak_rss_mb)

    def measure(self, run: Run, seconds: float) -> dict:
        cache = self.work / "cache"
        shutil.rmtree(cache, ignore_errors=True)
        self._cli_op(run, "populate", cache, None)
        rss: list[float] = []
        t0 = time.perf_counter()
        while True:
            self._cli_op(run, "cold", None, rss)
            for _ in range(self.warm_per_cold):
                self._cli_op(run, "warm", cache, None)
            if time.perf_counter() - t0 >= seconds and len(run.samples["cold"]) >= 2:
                break
        cold = float(np.median(run.samples["cold"]))
        return {
            "cold_s": cold,
            "warm_s": float(np.median(run.samples["warm"])),
            "events_per_s": self.n_events / cold,
            "peak_rss_mb": float(np.median(rss)),
        }

    def replay(self, run: Run, cache: Path) -> list[tuple[str, object]]:
        def op(kind, workers, cache_dir):
            def thunk():
                self.clear_outputs()
                rc, out = cli_inprocess(self.op_args(workers, cache_dir))
                why = self._verify(rc, out)
                run.check(f"traced {kind}", not why, why)

            return kind, thunk

        return [op("cold", WORKERS, None), op("populate", WORKERS, cache), op("warm", WORKERS, cache)]


class ReportWorkload(CliWorkload):
    """``memgaze report`` on one archive, ``self.archive``."""

    def pass_work(self):
        from repro.core.parallel import plan_shards
        from repro.trace.tracefile import read_trace

        ev, _, sid = read_trace(self.archive)
        for lo, hi in plan_shards(len(ev), sid, chunk_size=int(CHUNK)):
            yield ev[lo:hi], sid[lo:hi], ["diagnostics", "hotspot", "captures", "reuse", "windows"]


class ReportJson(ReportWorkload):
    name = "report-json"
    full_events = 1_000_000
    warm_per_cold = 3

    def setup(self) -> None:
        n = self.n(self.full_events)
        ev, sid = inputs.mixed_trace(n, self.seed)
        self.archive = self.work / "trace.npz"
        self.archive_bytes = {"trace.npz": inputs.write_archive(self.archive, "mixed", ev, sid)}
        self.n_events = n

    def op_args(self, workers, cache):
        args = ["report", str(self.archive), "--json", "--workers", workers]
        if workers != "1":
            args += ["--chunk-size", CHUNK]
        return args + (["--cache-dir", str(cache)] if cache else ["--no-cache"])

    def outputs(self, stdout):
        return {"stdout": stdout}



class ReportHtml(ReportWorkload):
    name = "report-html"
    full_events = 150_000

    def setup(self) -> None:
        n = self.n(self.full_events)
        ev, sid = inputs.phased_trace(n, self.seed)
        self.archive = self.work / "trace.npz"
        self.archive_bytes = {"trace.npz": inputs.write_archive(self.archive, "phased", ev, sid)}
        self.n_events = n

    def op_args(self, workers, cache):
        args = ["report", str(self.archive), "--html", str(self.out_dir() / "report.html")]
        args += ["--workers", workers]
        if workers != "1":
            args += ["--chunk-size", CHUNK]
        return args + (["--cache-dir", str(cache)] if cache else ["--no-cache"])

    def outputs(self, stdout):
        page = self.out_dir() / "report.html"
        return {"html": page.read_bytes() if page.exists() else b""}



class MatrixSweep(CliWorkload):
    name = "matrix-sweep"
    full_events = 150_000
    n_cells = 4
    warm_per_cold = 3

    def setup(self) -> None:
        n = self.n(self.full_events)
        cells = []
        self.archive_bytes = {}
        for i in range(self.n_cells):
            ev, sid = inputs.cell_trace(n, self.seed * 16 + i, irregular_bits=14 + i)
            path = self.work / f"cell{i}.npz"
            self.archive_bytes[path.name] = inputs.write_archive(path, f"cell{i}", ev, sid)
            cells.append({"label": f"cell{i}", "trace": str(path)})
        self.spec = self.work / "corpus.json"
        self.spec.write_text(json.dumps({"name": "bench", "baseline": "cell0", "cell": cells}))
        # a gate loose enough to pass: the verdict is computed but never trips
        self.gate = self.work / "gate.json"
        self.gate.write_text(json.dumps({"dF_irr": {"max_abs": 10.0}, "F": {"max_rel": 100.0}}))
        self.n_events = n * self.n_cells

    def op_args(self, workers, cache):
        out = self.out_dir()
        args = ["matrix", str(self.spec), "--cache-sweep", "--gate", str(self.gate)]
        args += ["--workers", workers, "-o", str(out / "corpus.json")]
        if workers != "1":
            # several chunks per cell, so both workers stream each cell
            args += ["--chunk-size", MATRIX_CHUNK]
        args += ["--verdict", str(out / "verdict.json"), "--json"]
        return args + (["--cache-dir", str(cache)] if cache else ["--no-cache"])

    def outputs(self, stdout):
        out = self.out_dir()
        files = {k: (out / k).read_bytes() if (out / k).exists() else b""
                 for k in ("corpus.json", "verdict.json")}
        return {"stdout": stdout, **files}

    def pass_work(self):
        from repro.core.reuse import _HIST_MAX_EXP
        from repro.trace.tracefile import iter_trace_chunks

        requests = [
            ("diagnostics", {"block": 1}),
            ("captures", {"block": 1}),
            ("reuse", {"block": 64, "max_exp": _HIST_MAX_EXP}),
            ("hotspot", {}),
            ("windows", {"block": 1}),
            ("cache_sweep", {}),
        ]
        for i in range(self.n_cells):
            path = self.work / f"cell{i}.npz"
            for chunk, csid in iter_trace_chunks(path, chunk_size=int(MATRIX_CHUNK)):
                yield chunk, csid, requests


class ServeStream(Workload):
    name = "serve-stream"
    chunk_events = 4 * inputs.SAMPLE_LEN
    full_appends = 32
    warm_queries = 8
    min_rounds = 2

    def setup(self) -> None:
        self.undo_setup()
        n_appends = max(2, int(self.full_appends * self.scale))
        n = n_appends * self.chunk_events
        self.sessions = []
        self.archive_bytes = {}
        for k in range(2):
            ev, sid = inputs.mixed_trace(n, self.seed * 16 + k)
            path = self.work / f"session{k}.npz"
            self.archive_bytes[path.name] = inputs.write_archive(path, f"conn{k}", ev, sid)
            chunks = [
                (ev[i : i + self.chunk_events], sid[i : i + self.chunk_events])
                for i in range(0, n, self.chunk_events)
            ]
            self.sessions.append({"archive": path, "chunks": chunks, "meta": inputs.session_meta(f"conn{k}", n)})
        self.n_events = 2 * n
        self._start_daemon()

    def _start_daemon(self) -> None:
        from repro.serve.client import ServeClient

        self.serve_root = self.work / "serve"
        shutil.rmtree(self.serve_root, ignore_errors=True)
        port_file = self.work / "port"
        port_file.unlink(missing_ok=True)
        (self.work / "tmp").mkdir(exist_ok=True)
        self.daemon = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--root", str(self.serve_root),
             "--port", "0", "--port-file", str(port_file), "--serve-workers", "2"],
            cwd=self.work,
            env=program_env(self.root, self.work),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        OWNED.add(self.daemon.pid)
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if self.daemon.poll() is not None:
                raise RuntimeError(f"memgaze serve exited with {self.daemon.returncode}")
            text = port_file.read_text() if port_file.exists() else ""
            if text.endswith("\n"):
                self.port = int(text)
                with ServeClient("127.0.0.1", self.port) as c:
                    c.ping()
                return
            time.sleep(0.01)
        raise RuntimeError("memgaze serve did not start within 60 s")

    def undo_setup(self) -> None:
        daemon = getattr(self, "daemon", None)
        if daemon is None:
            return
        self.daemon = None
        if daemon.poll() is None:
            from repro.serve.client import ServeClient

            with contextlib.suppress(Exception):
                with ServeClient("127.0.0.1", self.port, timeout=10) as c:
                    c.shutdown()
            try:
                daemon.wait(timeout=30)
            except subprocess.TimeoutExpired:
                kill_tree(daemon)
        daemon.wait()
        OWNED.discard(daemon.pid)

    def reference(self) -> None:
        self.ref = []
        for s in self.sessions:
            rc, out = cli_inprocess(["report", str(s["archive"]), "--json", "--workers", "1", "--no-cache"])
            self.ref.append(out)

    @staticmethod
    def session_name(round_no: int, k: int) -> str:
        """A session name that the daemon routes to shard worker ``k``."""
        from repro.serve.shard import route_session

        for j in range(1000):
            name = f"r{round_no}c{k}-{j}"
            if route_session(name, 2) == k:
                return name
        raise AssertionError("no session name routes to worker k")

    def _stream(self, client, k: int, name: str, out: dict, n_chunks: int | None) -> None:
        """One closed-loop session: append, then query, then the next append."""
        from repro.serve.client import ServeBusy

        s = self.sessions[k]
        chunks = s["chunks"][:n_chunks]
        client.open(name, s["meta"])
        fresh, acks, queries = [], [], []
        n_sent = 0
        bad = {}
        for events, sid in chunks:
            t0 = time.perf_counter()
            while True:
                try:
                    client.append(name, events, sid)
                    break
                except ServeBusy as busy:
                    out["shed"] += 1
                    time.sleep(busy.retry_ms / 1000)
            t1 = time.perf_counter()
            info, text = client.query(name, ["diagnostics"])
            t2 = time.perf_counter()
            n_sent += len(events)
            if info.get("n_events") != n_sent or json.loads(text)["n_events"] != n_sent:
                bad[len(fresh)] = f"query after {n_sent} events saw {info.get('n_events')}"
            fresh.append(t2 - t0)
            acks.append(t1 - t0)
            queries.append(t2 - t1)
        out["last_reply"] = time.perf_counter()
        _, final = client.query(name)
        warm = []
        warm_ok = True
        for _ in range(self.warm_queries):
            t0 = time.perf_counter()
            _, again = client.query(name)
            warm.append(time.perf_counter() - t0)
            warm_ok &= again == final
        client.close_session(name)
        out.update(fresh=fresh, acks=acks, queries=queries, warm=warm, bad=bad,
                   final=(final + "\n").encode("utf-8"), warm_ok=warm_ok,
                   appends=len(chunks))

    def _round(self, clients, round_no: int, n_chunks: int | None = None):
        """Both sessions streamed concurrently; returns (outs, start, last reply)."""
        outs = [{"shed": 0, "error": None} for _ in clients]
        names = [self.session_name(round_no, k) for k in range(len(clients))]

        def body(k):
            try:
                self._stream(clients[k], k, names[k], outs[k], n_chunks)
            except Exception as exc:  # a failed stream is counted, not fatal
                outs[k]["error"] = f"{type(exc).__name__}: {exc}"

        threads = [threading.Thread(target=body, args=(k,)) for k in range(len(clients))]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        last = max((o.get("last_reply", t0) for o in outs), default=t0)
        return outs, t0, last

    def measure(self, run: Run, seconds: float) -> dict:
        from repro.serve.client import ServeClient

        rates = []
        clients = [ServeClient("127.0.0.1", self.port, timeout=120) for _ in range(2)]
        last_names = []
        try:
            # one short untimed session per shard worker first, so lazy
            # imports and first-touch costs stay out of the samples
            warmup = Run()
            outs, _, _ = self._round(clients, -1, n_chunks=2)
            self._score_round(warmup, outs, reference=False)
            run.attempted += warmup.attempted
            run.failed += warmup.failed
            run.failures += warmup.failures
            with RssSampler(self.daemon.pid) as rss:
                t_start = time.perf_counter()
                round_no = 0
                while True:
                    outs, t0, last = self._round(clients, round_no)
                    self._score_round(run, outs)
                    rates.append(self.n_events / max(last - t0, 1e-9))
                    last_names = [self.session_name(round_no, k) for k in range(2)]
                    round_no += 1
                    if round_no >= self.min_rounds and time.perf_counter() - t_start >= seconds:
                        break
        finally:
            for c in clients:
                c.close()
        # live == offline: the CLI on the daemon's own session archive
        for k, name in enumerate(last_names):
            archive = self.serve_root / "sessions" / f"{name}.npz"
            r = run_cli(["report", str(archive), "--json", "--workers", WORKERS, "--chunk-size", CHUNK,
                         "--no-cache"], root=self.root, work=self.work)
            ok = r.rc == 0 and r.stdout == self.ref[k]
            run.op("offline", r.wall_s, ok, "offline report differs from the live query")
        return {
            "cold_s": float(np.median(run.samples["fresh"])),
            "warm_s": float(np.median(run.samples["warm"])),
            "events_per_s": float(np.median(rates)),
            "peak_rss_mb": rss.peak_mb,
            "rate_samples": len(rates),
            "rss_samples": 1,
        }

    def _score_round(self, run: Run, outs: list[dict], reference: bool = True) -> None:
        for k, o in enumerate(outs):
            run.shed += o["shed"]
            if o["error"] is not None:
                run.check(f"session {k}", False, o["error"])
                continue
            run.appends += o["appends"]
            for i, (f, a, q) in enumerate(zip(o["fresh"], o["acks"], o["queries"])):
                run.op("fresh", f, i not in o["bad"], o["bad"].get(i, ""))
                run.samples["append_ack"].append(a)
                run.samples["query"].append(q)
            if reference:
                run.check("live final query", o["final"] == self.ref[k],
                          "differs from offline report --json")
            for w in o["warm"]:
                run.op("warm", w, o["warm_ok"], "repeated query differs from the first")

    def replay(self, run: Run, cache: Path) -> list[tuple[str, object]]:
        """The same op sequence in process, through SessionManager/ServeSession."""

        def thunk():
            from repro.core.artifacts import ArtifactStore
            from repro.core.parallel import ParallelEngine
            from repro.core.report import payload_json
            from repro.serve.session import SessionManager

            store = ArtifactStore(cache / "store")
            engine = ParallelEngine(workers=1, chunk_size=None, store=store)
            manager = SessionManager(cache / "sessions")
            try:
                for k, s in enumerate(self.sessions):
                    session = manager.open(f"replay{k}", s["meta"])
                    for events, sid in s["chunks"]:
                        session.ingest(events, sid, engine)
                        payload_json(session.query(["diagnostics"], engine)[1])
                    final = payload_json(session.query(None, engine)[1]) + "\n"
                    run.check("traced live final query", final.encode() == self.ref[k],
                              "differs from offline report --json")
                    manager.close(session.name)
            finally:
                engine.close()

        return [("cold", thunk)]

    def pass_work(self):
        for s in self.sessions:
            for events, sid in s["chunks"]:
                yield events, sid, ["diagnostics", "captures", "reuse"]
            ev = np.concatenate([c[0] for c in s["chunks"]])
            sid = np.concatenate([c[1] for c in s["chunks"]])
            yield ev, sid, ["hotspot", "windows"]


WORKLOADS = {w.name: w for w in (ReportJson, ReportHtml, ServeStream, MatrixSweep)}
