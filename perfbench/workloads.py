"""The three workloads: ``explore``, ``serve`` and ``churn``.

Each workload has a set-up (inputs, store, index, warm open), a timed
phase, and a phase after it that is not part of the timed clock (the
checks that need the whole run, the ingests of ``explore`` and
``serve``, and ``churn``'s integrates).  Every operation is checked as
it completes; an operation whose check fails is counted as failed and
its reason kept.

Load comes from this one process: ``explore`` and ``churn`` use the
calling thread, ``serve`` two closed-loop client threads (the host's two
cores).  No workload starts a process.
"""

from __future__ import annotations

import contextlib
import random
import shutil
import statistics
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import checks
import lakegen
from repro import DataLake, Dialite, LakeServer, LakeService, LakeStore, ServiceClient
from repro.datalake.indexer import LakeIndex
from repro.service.service import oracle_discover_payload
from repro.shard import ShardedLakeIndex, ShardedLakeStore
from repro.store.codec import decode_table, encode_table

K = 8
COLUMN = "key"
#: Fewest samples of each latency a run takes, whatever --seconds says:
#: a percentile over fewer is not reported.
MIN_SAMPLES = 100
#: Ingests after the timed phase of explore and serve.
PHASE_INGESTS = 4
#: Fewest ingests (rounds) of a churn run.
MIN_CHURN_ROUNDS = 7

#: The unsharded lake of explore and serve, and churn's sharded one.
LAKE = lakegen.LakeSpec(queries=150, planted=2, background=50)
CHURN_LAKE = lakegen.LakeSpec(queries=100, planted=2, background=100)

SERVE_CLIENTS = 2
SERVE_WORKERS = 2
SERVE_HOT = 8
SERVE_HOT_SHARE = 0.8
#: Discovers are 3/4 of all requests; unique requests are all discovers,
#: so integrates (1/4 of all) are drawn from the hot queries.
SERVE_HOT_DISCOVER_SHARE = 1.0 - 0.25 / SERVE_HOT_SHARE
#: Requests per client between two looks at the clock.
SERVE_ROUND = 20

CHURN_SHARDS = 2
CHURN_DISCOVERS = 32
#: Discoverers whose sharded answers at the end of churn must equal a
#: fresh unsharded build's.  SANTOS is left out: the sharded index keeps
#: the knowledge base it synthesized over the whole lake at build time
#: and reuses it after ingests (documented in repro.shard.index), so its
#: answers drift from a fresh build's once ingests replace tables.
FINAL_DISCOVERERS = ("lsh_ensemble", "josie")


def roster() -> list:
    """The pipeline's default discoverers, fresh."""
    return Dialite().discoverers.components()


@dataclass
class Tally:
    """Operations attempted and failed per type, and their latencies."""

    attempted: Counter = field(default_factory=Counter)
    failed: Counter = field(default_factory=Counter)
    reasons: list[str] = field(default_factory=list)
    latencies: dict[str, list[float]] = field(default_factory=dict)
    lock: threading.Lock = field(default_factory=threading.Lock)

    def record(self, op: str, seconds: float | None, error: str | None) -> None:
        with self.lock:
            self.attempted[op] += 1
            if error is not None:
                self.failed[op] += 1
                if len(self.reasons) < 20:
                    self.reasons.append(f"{op}: {error}")
            if seconds is not None:
                self.latencies.setdefault(op, []).append(seconds)

    def fail_more(self, op: str, count: int, error: str) -> None:
        """Turn *count* already-counted successes of *op* into failures."""
        with self.lock:
            self.failed[op] += count
            if len(self.reasons) < 20:
                self.reasons.append(f"{op}: {error}")

    def samples(self, op: str) -> int:
        return len(self.latencies.get(op, ()))


@dataclass
class Context:
    seed: int
    seconds: float
    work: Path
    recorder: Any = None

    def mark(self, op: Any) -> None:
        if self.recorder is not None:
            self.recorder.set_op(op)

    @contextlib.contextmanager
    def unrecorded(self):
        """Calls the checks make into the program leave no spans."""
        if self.recorder is None:
            yield
            return
        self.recorder.paused = True
        try:
            yield
        finally:
            self.recorder.paused = False


@dataclass
class Timed:
    """What the timed phase measured."""

    ops: int
    seconds: float
    cpu_seconds: float
    service_stats: dict[str, Any] | None = None


def key_sets(tables: dict[str, Any]) -> dict[str, set[str]]:
    return {name: checks.key_set(table) for name, table in tables.items()}


def found_tables(payload: dict[str, Any]) -> list[str]:
    return [result["table"] for result in payload["results"]]


def integrate_payload(pipeline: Dialite, query) -> dict[str, Any]:
    """What an integrate-by-query request returns, computed in-process
    with ``Dialite.discover`` + ``Dialite.integrate``."""
    outcome = pipeline.discover(LakeService._service_query(query), k=K, query_column=COLUMN)
    result = pipeline.integrate(outcome)
    return {
        "integration_set": [t.name for t in outcome.integration_set[1:]],
        "table": encode_table(result.to_display_table()),
    }


def check_integrate_payload(
    pipeline: Dialite, payload: dict[str, Any], query, tables: dict[str, Any]
) -> str | None:
    """Full Disjunction properties of a served integrate result, over the
    inputs aligned by the serving pipeline's own aligner."""
    inputs = [LakeService._service_query(query)] + [
        tables[name] for name in payload["integration_set"]
    ]
    aligned = pipeline.align(inputs).apply(inputs)
    display = decode_table(payload["table"])
    header = display.columns[2:]  # after the OID and TIDs columns
    return checks.check_full_disjunction(aligned, header, [row[2:] for row in display.rows])


def build_unsharded(path: Path, lake: lakegen.Lake) -> None:
    """Store ingest, discoverer fits and persisted indexes."""
    store = LakeStore.create(path)
    store.ingest(lake.tables)
    LakeIndex(store.lake(), roster()).build().save_to_store(store)


def churn_delta(
    rng: random.Random, lake: lakegen.Lake, query, serial: int, background: list[str]
) -> tuple[dict[str, Any], list[str]]:
    """Two new joinables planted for *query* and two replaced background
    tables; returns (tables by name, names of the new joinables)."""
    keys = [row[0] for row in query.rows]
    added = [f"late_{serial:03d}_{p}" for p in range(2)]
    delta = {
        name: lake.facts.table(
            name, lakegen.joinable_keys(rng, lake.facts, keys),
            rng.randrange(len(lakegen.METRICS)), rng,
        )
        for name in added
    }
    for name in rng.sample(background, 2):
        delta[name] = lakegen.background_table(rng, lake.facts, name)
    return delta, added


def background_names(lake: lakegen.Lake) -> list[str]:
    return sorted(name for name in lake.tables if name.startswith("bg_"))


# ----------------------------------------------------------------------
# explore: one analyst, in-process, discover -> integrate -> analyze
# ----------------------------------------------------------------------
class Explore:
    name = "explore"

    def setup(self, ctx: Context, path: Path) -> dict[str, Any]:
        lake = lakegen.generate(ctx.seed, LAKE)
        build_unsharded(path, lake)
        pipeline = Dialite.open(path).fit()
        return {"lake": lake, "path": path, "pipeline": pipeline}

    def teardown(self, state: dict[str, Any]) -> None:
        state.clear()

    def timed(self, ctx: Context, state: dict[str, Any], tally: Tally) -> Timed:
        lake: lakegen.Lake = state["lake"]
        pipeline: Dialite = state["pipeline"]
        keys = key_sets(lake.tables)
        order = list(lake.queries)
        random.Random(ctx.seed).shuffle(order)
        clock = 0.0
        passes = 0
        cpu_start = time.process_time()
        cpu_checks = 0.0
        while clock < ctx.seconds or passes < MIN_SAMPLES:
            query = order[passes % len(order)]
            ctx.mark(f"explore-{passes}")
            t0 = time.perf_counter()
            outcome = pipeline.discover(query, k=K, query_column=COLUMN)
            t1 = time.perf_counter()
            alignment = pipeline.align(outcome.integration_set)
            aligned = alignment.apply(outcome.integration_set)
            integrated = pipeline.integrate(aligned, align=False)
            t2 = time.perf_counter()
            summary = pipeline.analyze(integrated, "describe")
            t3 = time.perf_counter()
            clock += t3 - t0
            passes += 1
            c0 = time.process_time()
            found = [r.table_name for r in outcome.merged]
            tally.record(
                "discover", t1 - t0,
                checks.check_josie(outcome.per_discoverer["josie"], query, keys, K)
                or checks.check_planted(found, lake.planted[query.name], query.name),
            )
            tally.record(
                "integrate", t2 - t1,
                checks.check_full_disjunction(aligned, integrated.columns, integrated.rows),
            )
            tally.record(
                "analyze", t3 - t2,
                None if summary["rows"] == integrated.num_rows
                else f"describe counted {summary['rows']} rows of {integrated.num_rows}",
            )
            cpu_checks += time.process_time() - c0
        cpu = time.process_time() - cpu_start - cpu_checks
        return Timed(ops=passes, seconds=clock, cpu_seconds=cpu)

    def after(self, ctx: Context, state: dict[str, Any], tally: Tally) -> None:
        """Ingests: from the store write until a freshly opened pipeline
        answers the planted query at the new version."""
        lake: lakegen.Lake = state["lake"]
        path: Path = state["path"]
        rng = random.Random(ctx.seed + 1)
        background = background_names(lake)
        for serial in range(PHASE_INGESTS):
            query = lake.queries[serial]
            delta, added = churn_delta(rng, lake, query, serial, background)
            ctx.mark(f"ingest-{serial}")
            t0 = time.perf_counter()
            store = LakeStore.open(path)
            before = store.lake_version
            report = store.ingest(delta, prune=False)
            pipeline = Dialite.open(path).fit()
            outcome = pipeline.discover(query, k=K, query_column=COLUMN)
            seconds = time.perf_counter() - t0
            tally.record(
                "ingest", seconds,
                checks.check_ingest_visible(
                    before, report.lake_version,
                    [r.table_name for r in outcome.merged], added,
                ),
            )


# ----------------------------------------------------------------------
# serve: a LakeServer driven by two closed-loop wire clients
# ----------------------------------------------------------------------
class Serve:
    name = "serve"

    def setup(self, ctx: Context, path: Path) -> dict[str, Any]:
        lake = lakegen.generate(ctx.seed, LAKE)
        build_unsharded(path, lake)
        service = LakeService(store=path, workers=SERVE_WORKERS)
        server = LakeServer(service)
        server.start()
        return {"lake": lake, "path": path, "server": server, "service": service}

    def teardown(self, state: dict[str, Any]) -> None:
        server = state.get("server")
        if server is not None:
            server.close()
        state.clear()

    def requests(self, ctx: Context, lake: lakegen.Lake, client: int):
        """Client *client*'s endless request stream: (op, query)."""
        rng = random.Random(ctx.seed * 1000 + client)
        hot = random.Random(ctx.seed).sample(lake.queries, SERVE_HOT)
        serial = client
        while True:
            if rng.random() < SERVE_HOT_SHARE:
                op = "discover" if rng.random() < SERVE_HOT_DISCOVER_SHARE else "integrate"
                yield op, rng.choice(hot)
            else:
                base = rng.choice(lake.queries)
                yield "discover", lakegen.variant(rng, lake.facts, base, serial)
                serial += SERVE_CLIENTS

    def timed(self, ctx: Context, state: dict[str, Any], tally: Tally) -> Timed:
        lake: lakegen.Lake = state["lake"]
        host, port = state["server"].address
        served: dict[tuple, dict[str, Any]] = {}
        state["served"] = served
        stop = threading.Event()
        started = time.perf_counter()
        errors: list[BaseException] = []

        def drive(client_id: int) -> None:
            client = ServiceClient((host, port))
            stream = self.requests(ctx, lake, client_id)
            sent = 0
            try:
                while not stop.is_set():
                    for _ in range(SERVE_ROUND):
                        op, query = next(stream)
                        ctx.mark(f"serve-{client_id}-{sent}")
                        sent += 1
                        t0 = time.perf_counter()
                        try:
                            if op == "discover":
                                response = client.discover(query, k=K, column=COLUMN)
                            else:
                                response = client.integrate(query=query, k=K, column=COLUMN)
                        except Exception as error:  # noqa: BLE001 - counted, run goes on
                            tally.record(op, None, f"{type(error).__name__}: {error}")
                            continue
                        seconds = time.perf_counter() - t0
                        key = (op, query.name, response["lake_version"])
                        with tally.lock:
                            entry = served.setdefault(
                                key, {"query": query, "payload": response["payload"], "count": 0}
                            )
                            entry["count"] += 1
                        error = checks.check_payload(
                            response["payload"], entry["payload"], f"repeat of {key}"
                        )
                        tally.record(op, seconds, error)
                    if (
                        time.perf_counter() - started >= ctx.seconds
                        and tally.samples("discover") >= MIN_SAMPLES
                        and tally.samples("integrate") >= MIN_SAMPLES
                    ):
                        stop.set()
            except BaseException as error:  # noqa: BLE001 - re-raised by the caller
                errors.append(error)
                stop.set()

        cpu_start = time.process_time()
        threads = [
            threading.Thread(target=drive, args=(i,), name=f"perfbench-client-{i}")
            for i in range(SERVE_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        seconds = time.perf_counter() - started
        cpu = time.process_time() - cpu_start
        if errors:
            raise errors[0]
        ops = sum(len(v) for v in tally.latencies.values())
        return Timed(
            ops=ops, seconds=seconds, cpu_seconds=cpu,
            service_stats=state["service"].stats_snapshot(),
        )

    def after(self, ctx: Context, state: dict[str, Any], tally: Tally) -> None:
        """Every distinct served answer against the in-process answer at
        its version, then ingests over the wire."""
        with ctx.unrecorded():
            self.check_served(state, tally)
        lake: lakegen.Lake = state["lake"]
        client = ServiceClient(state["server"].address)
        rng = random.Random(ctx.seed + 1)
        background = background_names(lake)
        for serial in range(PHASE_INGESTS):
            query = lake.queries[serial]
            delta, added = churn_delta(rng, lake, query, serial, background)
            ctx.mark(f"ingest-{serial}")
            before = client.version()
            t0 = time.perf_counter()
            client.ingest(list(delta.values()))
            response = client.discover(query, k=K, column=COLUMN)
            seconds = time.perf_counter() - t0
            tally.record(
                "ingest", seconds,
                checks.check_ingest_visible(
                    before, response["lake_version"], found_tables(response["payload"]), added
                ),
            )

    def check_served(self, state: dict[str, Any], tally: Tally) -> None:
        path: Path = state["path"]
        oracle = Dialite.open(path).fit()
        version = LakeStore.open(path).lake_version
        for (op, name, served_version), entry in state["served"].items():
            query = entry["query"]
            if served_version != version:
                error = f"{op} {name} stamped v{served_version}, lake is v{version}"
            elif op == "discover":
                want = oracle_discover_payload(oracle, query, k=K, query_column=COLUMN)
                error = checks.check_payload(entry["payload"], want, f"discover {name}")
            else:
                want = integrate_payload(oracle, query)
                error = checks.check_payload(entry["payload"], want, f"integrate {name}")
            if error is not None:
                tally.fail_more(op, entry["count"], error)


# ----------------------------------------------------------------------
# churn: ingests beside reads on a 2-shard lake, one in-process service
# ----------------------------------------------------------------------
class Churn:
    name = "churn"

    def setup(self, ctx: Context, path: Path) -> dict[str, Any]:
        lake = lakegen.generate(ctx.seed, CHURN_LAKE)
        store = ShardedLakeStore.create(path, num_shards=CHURN_SHARDS)
        store.ingest(lake.tables)
        ShardedLakeIndex(store, roster()).build()
        service = LakeService(store=path, workers=SERVE_WORKERS)
        return {"lake": lake, "path": path, "service": service,
                "tables": dict(lake.tables), "planted": dict(lake.planted)}

    def teardown(self, state: dict[str, Any]) -> None:
        service = state.get("service")
        if service is not None:
            service.close()
        state.clear()

    def timed(self, ctx: Context, state: dict[str, Any], tally: Tally) -> Timed:
        lake: lakegen.Lake = state["lake"]
        service: LakeService = state["service"]
        tables: dict[str, Any] = state["tables"]
        planted: dict[str, list[str]] = state["planted"]
        rng = random.Random(ctx.seed + 1)
        order = list(lake.queries)
        rng.shuffle(order)
        background = background_names(lake)
        clock = 0.0
        ops = 0
        rounds = 0
        cpu_start = time.process_time()
        cpu_checks = 0.0
        while (
            clock < ctx.seconds
            or rounds < MIN_CHURN_ROUNDS
            or tally.samples("discover") < MIN_SAMPLES
        ):
            query = order[rounds % len(order)]
            delta, added = churn_delta(rng, lake, query, rounds, background)
            ctx.mark(f"churn-ingest-{rounds}")
            before = service.version
            t0 = time.perf_counter()
            service.ingest(delta)
            response = service.discover(query, k=K, query_column=COLUMN)
            t2 = time.perf_counter()
            clock += t2 - t0
            ops += 1
            c0 = time.process_time()
            tables.update(delta)
            planted[query.name] = planted[query.name] + added
            found = found_tables(response.payload)
            # The answer at the new version belongs to the ingest: that
            # first discover pays the swap-in, so it is not a discover sample.
            tally.record(
                "ingest", t2 - t0,
                checks.check_ingest_visible(before, response.lake_version, found, added)
                or checks.check_planted(found, planted[query.name], query.name),
            )
            cpu_checks += time.process_time() - c0
            others = [q for q in rng.sample(lake.queries, CHURN_DISCOVERS) if q is not query]
            for n, other in enumerate(others[: CHURN_DISCOVERS - 1]):
                ctx.mark(f"churn-discover-{rounds}-{n}")
                t0 = time.perf_counter()
                response = service.discover(other, k=K, query_column=COLUMN)
                seconds = time.perf_counter() - t0
                clock += seconds
                ops += 1
                tally.record(
                    "discover", seconds,
                    checks.check_planted(
                        found_tables(response.payload), planted[other.name], other.name
                    ),
                )
            rounds += 1
        cpu = time.process_time() - cpu_start - cpu_checks
        return Timed(
            ops=ops, seconds=clock, cpu_seconds=cpu,
            service_stats=service.stats_snapshot(),
        )

    def after(self, ctx: Context, state: dict[str, Any], tally: Tally) -> None:
        """One integrate-by-query per query at the final version, off the
        timed clock (churn's throughput stays ingest plus discover); then
        every query's sharded answer (``FINAL_DISCOVERERS``) against a
        fresh unsharded build over the same content, and JOSIE's answers
        there against brute force."""
        lake: lakegen.Lake = state["lake"]
        service: LakeService = state["service"]
        tables: dict[str, Any] = state["tables"]
        planted: dict[str, list[str]] = state["planted"]
        for query in lake.queries:
            ctx.mark(f"churn-integrate-{query.name}")
            t0 = time.perf_counter()
            payload = service.integrate(query=query, k=K, query_column=COLUMN).payload
            seconds = time.perf_counter() - t0
            with ctx.unrecorded():
                error = checks.check_planted(
                    payload["integration_set"], planted[query.name], query.name
                ) or check_integrate_payload(service.pipeline, payload, query, tables)
            tally.record("integrate", seconds, error)
        with ctx.unrecorded():
            self.check_final(ctx, state, tally)

    def check_final(self, ctx: Context, state: dict[str, Any], tally: Tally) -> None:
        lake: lakegen.Lake = state["lake"]
        service: LakeService = state["service"]
        tables: dict[str, Any] = state["tables"]
        fresh = Dialite(DataLake.from_tables(tables.values())).fit()
        keys = key_sets(tables)
        for query in lake.queries:
            ctx.mark(f"final-{query.name}")
            got = service.discover(
                query, k=K, query_column=COLUMN, discoverers=FINAL_DISCOVERERS
            ).payload
            want = oracle_discover_payload(
                fresh, query, k=K, query_column=COLUMN, discoverers=FINAL_DISCOVERERS
            )
            josie = fresh.index.search(
                query, k=K, query_column=COLUMN, discoverer_names=["josie"]
            )["josie"]
            tally.record(
                "final_discover", None,
                checks.check_payload(got, want, f"final discover {query.name}")
                or checks.check_josie(josie, query, keys, K),
            )


WORKLOADS = {w.name: w for w in (Explore(), Serve(), Churn())}


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (``statistics.quantiles``)."""
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[int(round(q * 100)) - 1]


def directory_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def remove_tree(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
