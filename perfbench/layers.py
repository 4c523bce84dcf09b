"""Per-layer metrics of the traced run.

:func:`install` wraps each layer's public entry points (one module of
``repro`` per layer) with the span recorder; :func:`layer_table` turns the
finished spans into the per-layer table: for each metric its value, the
number of spans behind it, their median self time and their share of the
traced run's wall time.  Metric names and units match ``per_layer`` in
``BENCHMARK.json``.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
from typing import Any, Callable

from tracer import Recorder, Span, SpanIndex, union_seconds

DISCOVERERS = ("santos", "lsh_ensemble", "josie")

#: (metric, unit) in the order of BENCHMARK.json's per_layer list.
PER_LAYER: list[tuple[str, str]] = [
    ("protocol.wire_ms", "ms"),
    ("service.request_self_ms", "ms"),
    ("service.hit_ratio", "ratio"),
    ("service.batched_ratio", "ratio"),
    ("service.reload_ms", "ms"),
    ("core.open_ms", "ms"),
    ("core.discover_self_ms", "ms"),
    ("core.integrate_self_ms", "ms"),
    ("shard.search_self_ms", "ms"),
    ("shard.fit_ms", "ms"),
    ("candidates.retrieve_ms", "ms"),
    ("candidates.retrieved", "tables/query"),
    *[(f"discovery.{d}.search_self_ms", "ms") for d in DISCOVERERS],
    *[(f"discovery.{d}.fit_s", "s") for d in DISCOVERERS],
    ("datalake.index_build_s", "s"),
    ("alignment.align_ms", "ms"),
    ("alignment.columns", "columns/request"),
    ("integration.fd_ms", "ms"),
    ("integration.tuples_in", "count"),
    ("integration.facts_out", "count"),
    ("analysis.run_ms", "ms"),
    ("store.ingest_ms", "ms"),
    ("store.fsyncs", "count"),
    ("store.fsync_ms", "ms"),
    ("store.save_indexes_ms", "ms"),
    ("store.load_table_ms", "ms"),
    ("store.tables_loaded", "count"),
    ("process.cpu_ms_per_op", "ms"),
]

#: Metrics of layers that some workload does not cross, so read 0 there
#: on every run: the wire and the service (not in explore), their cache
#: and batcher (serve only), the shards (churn only), analysis (explore
#: only).  The layer table file keeps them; the result line, whose
#: metrics must move on every workload, leaves them out.
NOT_EVERY_WORKLOAD = {
    "protocol.wire_ms", "service.request_self_ms", "service.hit_ratio",
    "service.batched_ratio", "service.reload_ms", "shard.search_self_ms",
    "shard.fit_ms", "analysis.run_ms",
}
#: The per_layer list of BENCHMARK.json, in its order.
RESULT_LINE = [name for name, _unit in PER_LAYER if name not in NOT_EVERY_WORKLOAD]


def request_fingerprint(request: dict[str, Any]) -> str:
    """The same digest for a request document on both ends of the wire."""
    text = json.dumps(request, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha1(text.encode("utf-8")).hexdigest()


def install(recorder: Recorder) -> None:
    """Wrap every layer boundary the per-layer table reads."""
    from repro import Dialite
    from repro.alignment.aligner import HolisticAligner
    from repro.analysis.apps import AnalysisApp
    from repro.datalake.indexer import LakeIndex
    from repro.discovery import JosieJoinSearch, LSHEnsembleJoinSearch, SantosUnionSearch
    from repro.discovery.base import Discoverer
    from repro.integration.base import Integrator
    from repro.service.protocol import LakeServer, ServiceClient
    from repro.service.service import LakeService
    from repro.shard import ShardedLakeIndex, ShardedLakeStore
    from repro.shard import worker as shard_worker
    from repro.store.lakestore import LakeStore

    patch = recorder.patch

    def client_request(args: tuple, kwargs: dict) -> str:
        # Mirrors ServiceClient.call's envelope: None-valued params are
        # dropped before the document goes on the wire.
        return request_fingerprint(
            {"op": args[1], **{k: v for k, v in kwargs.items() if v is not None}}
        )

    def service_tag(args: tuple, kwargs: dict) -> tuple:
        params = args[2] if len(args) > 2 else kwargs.get("params")
        query = (params or {}).get("query")
        if query is None:
            return ()
        # The name the service gives the query before it reaches the
        # pipeline.
        return (LakeService._service_query(query).name,)

    def query_tag(args: tuple, kwargs: dict) -> tuple:
        query = args[1] if len(args) > 1 else kwargs.get("query")
        return (query.name,) if query is not None else ()

    def integrate_tag(args: tuple, kwargs: dict) -> tuple:
        tables = args[1] if len(args) > 1 else kwargs.get("tables")
        query = getattr(tables, "query", None)
        return (query.name,) if query is not None else ()

    def retrieved(args: tuple, kwargs: dict, result: Any) -> int:
        tables = getattr(result, "tables", None)
        return len(tables) if isinstance(tables, tuple) else 0

    patch(ServiceClient, "call", "client.call", meta=client_request)
    patch(LakeServer, "dispatch", "server.dispatch",
          meta=lambda a, k: request_fingerprint(a[1]))
    patch(LakeService, "request", "service.request", tags=service_tag)
    patch(LakeService, "ingest", "service.ingest")
    patch(LakeService, "reload_if_stale", "service.reload",
          count=lambda a, k, r: int(bool(r)))
    patch(Dialite, "open", "core.open", count=lambda a, k, r: id(r))
    patch(Dialite, "fit", "core.fit", meta=lambda a, k: id(a[0]))
    patch(Dialite, "discover", "core.discover", tags=query_tag)
    patch(Dialite, "discover_many", "core.discover",
          tags=lambda a, k: tuple(q.name for q in (a[1] if len(a) > 1 else k["queries"])))
    patch(Dialite, "integrate", "core.integrate", tags=integrate_tag)
    patch(ShardedLakeIndex, "search", "shard.search", tags=query_tag)
    patch(ShardedLakeIndex, "build", "shard.fit")
    patch(ShardedLakeIndex, "from_store", "shard.fit")
    # The discoverers' two documented phases: retrieval (_candidates) and
    # scoring (_search).  Discoverer.search runs them on an unsharded
    # index; the shard scatter calls them directly, so they are the one
    # boundary both paths cross.
    for cls in (Discoverer, SantosUnionSearch, LSHEnsembleJoinSearch, JosieJoinSearch):
        if "_candidates" in cls.__dict__:
            patch(cls, "_candidates", "candidates.retrieve", count=retrieved)
        if "_search" in cls.__dict__:
            patch(cls, "_search", lambda a: f"discovery.{a[0].name}.search")
    patch(Discoverer, "fit", lambda a: f"discovery.{a[0].name}.fit")
    for function in ("deferred_search", "fallback_search"):
        patch(shard_worker, function, "shard.local_search", tags=lambda a, k: (a[1].name,))
    patch(LakeIndex, "build", "datalake.index_build")
    patch(HolisticAligner, "align", "alignment.align",
          count=lambda a, k, r: sum(t.num_columns for t in (a[1] if len(a) > 1 else k["tables"])))
    patch(Integrator, "integrate", lambda a: f"integration.{a[0].name}",
          meta=lambda a, k: sum(t.num_rows for t in (a[1] if len(a) > 1 else k["tables"])),
          count=lambda a, k, r: r.num_rows)
    for app in AnalysisApp.__subclasses__():
        if "run" in app.__dict__:
            patch(app, "run", "analysis.run")
    patch(LakeStore, "ingest", "store.ingest", meta=lambda a, k: len(a[1]))
    patch(ShardedLakeStore, "ingest", "store.ingest", meta=lambda a, k: len(a[1]))
    patch(os, "fsync", "store.fsync")
    patch(LakeIndex, "save_to_store", "store.save_indexes")
    patch(LakeStore, "save_indexes", "store.save_indexes")
    patch(LakeStore, "load_table", "store.load_table")


def _p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_table(
    spans: list[Span], wall_s: float, extras: dict[str, float]
) -> dict[str, dict[str, Any]]:
    """The per-layer table.  *extras* holds the values the workload read
    from the program itself (service stats, process CPU per operation)."""
    index = SpanIndex(spans)
    table: dict[str, dict[str, Any]] = {}
    units = dict(PER_LAYER)

    def put(
        metric: str,
        value: float,
        rows: list[Span],
        self_s: Callable[[Span], float] | None = None,
        selves: list[float] | None = None,
    ) -> None:
        if selves is None:
            selves = [self_s(s) if self_s else s.duration for s in rows]
        table[metric] = {
            "value": value,
            "unit": units[metric],
            "count": len(rows),
            "p50_self_ms": _p50(selves) * 1000.0,
            "share_of_wall": (sum(selves) / wall_s) if wall_s > 0 else 0.0,
        }

    def durations_ms(rows: list[Span]) -> float:
        return _p50([s.duration for s in rows]) * 1000.0

    def pipeline_children_s(span: Span) -> float:
        children = [c for c in index.children.get(span.id, ()) if c.name.startswith("core.")]
        return span.duration - union_seconds(
            [(c.start, c.end) for c in children], span.start, span.end
        )

    # protocol: client round trip minus the server's request time -----
    clients: dict[str, list[Span]] = {}
    for span in index.named("client.call"):
        clients.setdefault(span.meta, []).append(span)
    wire: list[float] = []
    wire_spans: list[Span] = []
    for dispatch in index.named("server.dispatch"):
        served = [c for c in index.children.get(dispatch.id, ()) if c.name == "service.request"]
        callers = [
            c for c in clients.get(dispatch.meta, ())
            if c.start <= dispatch.start and dispatch.end <= c.end
        ]
        if served and callers:
            caller = max(callers, key=lambda c: c.start)
            wire.append(caller.duration - served[0].duration)
            wire_spans.append(caller)
    put("protocol.wire_ms", _p50(wire) * 1000.0, wire_spans, selves=wire)

    requests = index.named("service.request")
    put("service.request_self_ms", _p50([pipeline_children_s(s) for s in requests]) * 1000.0,
        requests, pipeline_children_s)
    put("service.hit_ratio", extras.get("service.hit_ratio", 0.0), requests)
    put("service.batched_ratio", extras.get("service.batched_ratio", 0.0), requests)
    reloads = [
        s for s in index.named("service.reload")
        if s.count and any(p.name == "service.ingest" for p in map(spans.__getitem__, s.parents))
    ]
    put("service.reload_ms", durations_ms(reloads), reloads)

    # core ------------------------------------------------------------
    opened = {s.count: s for s in index.named("core.open")}
    fits = index.named("core.fit")

    def open_seconds(span: Span) -> float:
        before = opened.get(span.meta)
        return span.duration + (before.duration if before is not None else 0.0)

    put("core.open_ms", _p50([open_seconds(s) for s in fits]) * 1000.0, fits, open_seconds)
    for metric, name in (
        ("core.discover_self_ms", "core.discover"),
        ("core.integrate_self_ms", "core.integrate"),
        ("shard.search_self_ms", "shard.search"),
    ):
        rows = index.named(name)
        put(metric, _p50([index.self_seconds(s) for s in rows]) * 1000.0, rows,
            index.self_seconds)
    shard_fits = index.named("shard.fit")
    put("shard.fit_ms", durations_ms(shard_fits), shard_fits)

    # candidates: retrieval per discoverer call, tables per discover ----
    retrievals = index.outermost(index.named("candidates.retrieve"))
    put("candidates.retrieve_ms", durations_ms(retrievals), retrievals)
    discovers = index.named("core.discover")
    retrieved_ids = {s.id for s in retrievals}
    per_query = [
        float(sum(d.count for d in index.descendants(s) if d.id in retrieved_ids))
        for s in discovers
    ]
    put("candidates.retrieved", _p50(per_query), discovers, index.self_seconds)

    # discovery -------------------------------------------------------
    for name in DISCOVERERS:
        rows = index.named(f"discovery.{name}.search")
        put(f"discovery.{name}.search_self_ms", durations_ms(rows), rows)
    for name in DISCOVERERS:
        rows = index.named(f"discovery.{name}.fit")
        put(f"discovery.{name}.fit_s", _p50([s.duration for s in rows]), rows)
    builds = index.named("datalake.index_build")
    put("datalake.index_build_s", _p50([s.duration for s in builds]), builds)

    # alignment, integration, analysis --------------------------------
    aligns = index.named("alignment.align")
    put("alignment.align_ms", durations_ms(aligns), aligns)
    put("alignment.columns", _p50([float(s.count) for s in aligns]), aligns)
    fds = index.named("integration.alite_fd")
    put("integration.fd_ms", durations_ms(fds), fds)
    put("integration.tuples_in", _p50([float(s.meta) for s in fds]), fds)
    put("integration.facts_out", _p50([float(s.count) for s in fds]), fds)
    runs = index.named("analysis.run")
    put("analysis.run_ms", durations_ms(runs), runs)

    # store -------------------------------------------------------------
    ingests = index.outermost(index.named("store.ingest"))
    put("store.ingest_ms", durations_ms(ingests), ingests)
    under_ingest: set[int] = set()
    for span in ingests:
        under_ingest.update(d.id for d in index.descendants(span))
    fsyncs = [s for s in index.named("store.fsync") if s.id in under_ingest]
    put("store.fsyncs", float(len(fsyncs)), fsyncs)
    put("store.fsync_ms", durations_ms(fsyncs), fsyncs)
    saves = index.outermost(index.named("store.save_indexes"))
    put("store.save_indexes_ms", durations_ms(saves), saves)
    loads = index.named("store.load_table")
    put("store.load_table_ms", durations_ms(loads), loads)
    put("store.tables_loaded", float(len(loads)), loads)

    table["process.cpu_ms_per_op"] = {
        "value": extras.get("process.cpu_ms_per_op", 0.0),
        "unit": "ms",
        "count": int(extras.get("ops", 0)),
        "p50_self_ms": extras.get("process.cpu_ms_per_op", 0.0),
        "share_of_wall": 0.0,
    }
    return {metric: table[metric] for metric, _unit in PER_LAYER}
