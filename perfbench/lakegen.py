"""Seeded input generator for the end-to-end benchmark.

Every lake is drawn from one *fact base*: a vocabulary of entity keys, each
with a fixed city and fixed metric values.  A table is a sample of keys
projected onto ``key``, ``city`` and one metric, so two tables that share a
key always agree on its city -- integration really merges facts.

Each query has ``planted`` joinable tables that share 60 % of its keys;
everything else in the lake is background drawn uniformly from the
vocabulary.  Only this module decides what the inputs look like; the
program under test receives the generated tables and nothing else.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro import MISSING, Table

CITIES = (
    "Aberdeen", "Antwerp", "Bergen", "Bologna", "Bordeaux", "Bremen",
    "Brno", "Cork", "Debrecen", "Dresden", "Gdansk", "Geneva", "Ghent",
    "Graz", "Leeds", "Lille", "Linz", "Lyon", "Malaga", "Malmo",
    "Nantes", "Porto", "Riga", "Seville", "Tampere", "Toulouse",
    "Turin", "Utrecht", "Valencia", "Zagreb",
)
METRICS = (
    "population", "area_km2", "median_age", "income", "rainfall_mm",
    "elevation_m", "schools", "hospitals",
)
#: Keys per query / per table, and the share of a query's keys that each
#: planted joinable carries.
ROWS = 20
SHARED = 12
#: Share of metric cells left missing in lake tables (exercises the
#: missing-null kind through integration).
MISSING_RATE = 0.05


@dataclass
class LakeSpec:
    """The make-up of one generated lake."""

    queries: int
    planted: int
    background: int
    vocab: int = 4000


@dataclass
class Lake:
    """Generated inputs: lake tables, queries and the planted ground truth."""

    facts: "FactBase"
    tables: dict[str, Table] = field(default_factory=dict)
    queries: list[Table] = field(default_factory=list)
    #: query name -> names of the tables planted as its joinables.
    planted: dict[str, list[str]] = field(default_factory=dict)


class FactBase:
    """The key vocabulary and every key's city and metric values."""

    def __init__(self, rng: random.Random, vocab: int):
        self.keys = [f"k{n:05d}" for n in range(vocab)]
        self.city = {key: rng.choice(CITIES) for key in self.keys}
        self.metric = {
            key: tuple(rng.randrange(1, 100_000) for _ in METRICS)
            for key in self.keys
        }

    def table(
        self,
        name: str,
        keys: list[str],
        metric: int,
        rng: random.Random | None = None,
    ) -> Table:
        """*keys* projected onto (key, city, METRICS[metric]); with *rng*,
        about ``MISSING_RATE`` of the metric cells are missing."""
        rows = []
        for key in keys:
            value = self.metric[key][metric]
            if rng is not None and rng.random() < MISSING_RATE:
                value = MISSING
            rows.append((key, self.city[key], value))
        return Table(["key", "city", METRICS[metric]], rows, name=name)


def joinable_keys(
    rng: random.Random,
    facts: FactBase,
    query_keys: list[str],
    partner: list[str] | None = None,
) -> list[str]:
    """``SHARED`` of the query's keys plus fresh ones, in random order.

    With *partner*, the keys of the query's previous planted joinable,
    all but one of the shared keys are the partner's: the two tables then
    share 11 of their 20 keys (Jaccard 0.38), above the 0.35 at which
    SANTOS synthesizes a knowledge-base type from overlapping columns.
    So every query's key column has a type and SANTOS takes part in every
    discover.  Drawn apart, a pair crosses that threshold only by chance;
    whether a lake held one decided whether SANTOS found anything in it,
    and integrate p90 differed up to twofold between seeds.
    """
    if partner is None:
        shared = rng.sample(query_keys, SHARED)
    else:
        query_set = set(query_keys)
        own = [key for key in partner if key in query_set]
        rest = [key for key in query_keys if key not in set(own)]
        shared = rng.sample(own, SHARED - 1) + [rng.choice(rest)]
    taken = set(query_keys)
    extra: list[str] = []
    while len(extra) < ROWS - SHARED:
        key = rng.choice(facts.keys)
        if key not in taken:
            taken.add(key)
            extra.append(key)
    keys = shared + extra
    rng.shuffle(keys)
    return keys


def generate(seed: int, spec: LakeSpec) -> Lake:
    """The lake for *seed*: same seed, same tables, byte for byte."""
    rng = random.Random(seed)
    facts = FactBase(rng, spec.vocab)
    lake = Lake(facts=facts)
    for q in range(spec.queries):
        query_keys = rng.sample(facts.keys, ROWS)
        query = facts.table(f"query_{q:03d}", query_keys, q % len(METRICS))
        lake.queries.append(query)
        names = []
        keys = None
        for p in range(spec.planted):
            name = f"join_{q:03d}_{p}"
            metric = (q + 1 + p) % len(METRICS)
            keys = joinable_keys(rng, facts, query_keys, keys)
            lake.tables[name] = facts.table(name, keys, metric, rng)
            names.append(name)
        lake.planted[query.name] = names
    for b in range(spec.background):
        lake.tables[f"bg_{b:04d}"] = background_table(rng, facts, f"bg_{b:04d}")
    return lake


def background_table(rng: random.Random, facts: FactBase, name: str) -> Table:
    return facts.table(
        name, rng.sample(facts.keys, ROWS), rng.randrange(len(METRICS)), rng
    )


def variant(rng: random.Random, facts: FactBase, query: Table, serial: int) -> Table:
    """A query that differs from *query* in a few keys: new content, so it
    misses every cache, but it still finds the original's joinables."""
    keys = [row[0] for row in query.rows]
    taken = set(keys)
    for slot in rng.sample(range(len(keys)), 3):
        key = rng.choice(facts.keys)
        while key in taken:
            key = rng.choice(facts.keys)
        taken.add(key)
        keys[slot] = key
    metric = METRICS.index(query.columns[2])
    return facts.table(f"{query.name}_v{serial}", keys, metric)
