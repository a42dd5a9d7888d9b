"""Streaming analysis service: live trace ingest + incremental analysis.

The batch pipeline waits for a finished archive; this package turns the
prefix-incremental analysis path (:mod:`repro.core.artifacts` +
:class:`repro.trace.tracefile.PrefixSkip`) into a long-lived daemon so a
trace can be *queried while it is still being written*:

* :mod:`repro.serve.protocol` — the length-prefixed wire format shared
  by daemon and client (JSON header + raw array payload);
* :mod:`repro.serve.session` — per-stream session state: the growing
  archive, its analysis snapshot, and the ingest/query paths;
* :mod:`repro.serve.shard` — the session-shard worker processes: each
  session is pinned to one worker (``crc32(name) % serve_workers``) so
  per-session ordering is preserved while independent sessions run
  concurrently;
* :mod:`repro.serve.daemon` — the asyncio server: per-worker dispatch
  queues, layered (per-session + global) load-shedding, worker-crash
  isolation, graceful drain-and-flush shutdown;
* :mod:`repro.serve.client` — a small blocking client library backing
  ``memgaze submit`` / ``memgaze query``.

The service contract is the same bit-identical one the parallel engine
honors: a live ``query`` response equals ``memgaze report --json
--passes ...`` run offline on an archive holding exactly the chunks
ingested so far, per session at any worker count (``docs/serving.md``).
"""

from repro._lazy import attach

# name -> defining module, imported on first access (PEP 562)
__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "repro.serve.client": ["ServeBusy", "ServeClient", "ServeError", "submit_archive"],
        "repro.serve.daemon": ["ServeConfig", "TraceServer"],
        "repro.serve.protocol": ["ProtocolError"],
        "repro.serve.session": ["SessionManager", "ServeSession"],
        "repro.serve.shard": ["ServeOpError", "WorkerCrashed", "route_session"],
    },
)
