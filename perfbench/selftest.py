"""Self-test of the correctness checks: each accepts the program's real
answer and rejects a deliberately corrupted one.

Run with ``python3 perfbench/run.py --self-test``; exits 0 only if every
check both accepts the true answer and rejects every corruption.
"""

from __future__ import annotations

import copy
from pathlib import Path

import checks
import lakegen
from repro import MISSING, PRODUCED, Dialite, LakeService
from repro.discovery.base import DiscoveryResult
from repro.service.service import oracle_discover_payload
from workloads import (
    COLUMN, K, build_unsharded, check_integrate_payload, key_sets, remove_tree,
)

SPEC = lakegen.LakeSpec(queries=4, planted=2, background=12, vocab=400)


def cases(work: Path):
    """Yield (check name, answer is true, reason or None)."""
    lake = lakegen.generate(7, SPEC)
    pipeline = Dialite(list(lake.tables.values())).fit()
    query = lake.queries[0]
    keys = key_sets(lake.tables)
    outcome = pipeline.discover(query, k=K, query_column=COLUMN)
    josie = outcome.per_discoverer["josie"]

    yield "josie top-k", True, checks.check_josie(josie, query, keys, K)
    bumped = [DiscoveryResult(josie[0].table_name, josie[0].score + 1, "josie")] + josie[1:]
    yield "josie top-k, a score off by one", False, checks.check_josie(bumped, query, keys, K)
    yield "josie top-k, a result dropped", False, checks.check_josie(josie[1:], query, keys, K)

    found = [r.table_name for r in outcome.merged]
    planted = lake.planted[query.name]
    yield "planted tables", True, checks.check_planted(found, planted, query.name)
    yield "planted tables, one missing", False, checks.check_planted(
        [name for name in found if name != planted[0]], planted, query.name
    )

    aligned = pipeline.align(outcome.integration_set).apply(outcome.integration_set)
    integrated = pipeline.integrate(aligned, align=False)
    header, facts = integrated.columns, [list(row) for row in integrated.rows]
    yield "full disjunction", True, checks.check_full_disjunction(aligned, header, facts)

    subsumed = list(facts[0])
    last = max(i for i, cell in enumerate(subsumed) if not checks.is_null(cell))
    subsumed[last] = PRODUCED
    yield "full disjunction, a subsumed fact added", False, checks.check_full_disjunction(
        aligned, header, facts + [subsumed]
    )
    first = [(header.index(c), v) for c, v in zip(aligned[0].columns, aligned[0].rows[0])
             if not checks.is_null(v)]
    uncovering = [f for f in facts if not all(f[i] == v for i, v in first)]
    yield "full disjunction, a tuple's facts removed", False, checks.check_full_disjunction(
        aligned, header, uncovering
    )
    foreign = [MISSING] * len(header)
    foreign[header.index("key")] = "k99999-not-an-input"
    yield "full disjunction, a foreign value", False, checks.check_full_disjunction(
        aligned, header, facts + [foreign]
    )

    want = oracle_discover_payload(pipeline, query, k=K, query_column=COLUMN)
    yield "served payload", True, checks.check_payload(copy.deepcopy(want), want, "discover")
    swapped = copy.deepcopy(want)
    swapped["results"][0], swapped["results"][1] = swapped["results"][1], swapped["results"][0]
    yield "served payload, two results swapped", False, checks.check_payload(
        swapped, want, "discover"
    )

    added = [planted[0]]
    yield "ingest visible", True, checks.check_ingest_visible(3, 4, found, added)
    yield "ingest visible, version unchanged", False, checks.check_ingest_visible(
        4, 4, found, added
    )
    yield "ingest visible, new table absent", False, checks.check_ingest_visible(
        3, 4, [n for n in found if n not in added], added
    )

    path = work / "store"
    build_unsharded(path, lake)
    with LakeService(store=path, workers=1) as service:
        payload = service.integrate(query=query, k=K, query_column=COLUMN).payload
        yield "served integrate", True, check_integrate_payload(
            service.pipeline, payload, query, lake.tables
        )
        corrupt = copy.deepcopy(payload)
        display = corrupt["table"]
        forged = list(display["rows"][0])
        key_at = display["columns"].index("key")
        forged[key_at] = "k99999-not-an-input"
        display["rows"].append(forged)
        yield "served integrate, a forged fact", False, check_integrate_payload(
            service.pipeline, corrupt, query, lake.tables
        )


def main(work: Path) -> int:
    remove_tree(work)
    work.mkdir(parents=True)
    bad = 0
    try:
        for name, truthful, reason in cases(work):
            ok = (reason is None) if truthful else (reason is not None)
            bad += not ok
            verdict = "accepted" if reason is None else f"rejected: {reason}"
            print(f"{'ok  ' if ok else 'FAIL'} {name}: {verdict}")
    finally:
        remove_tree(work)
    print(f"self-test: {'all checks behave' if not bad else f'{bad} check(s) misbehave'}")
    return 1 if bad else 0
