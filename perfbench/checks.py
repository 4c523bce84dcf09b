"""Correctness checks, computed apart from the program under test.

Each check returns ``None`` when the answer is right and a one-line
reason when it is wrong; the workloads count an operation with a reason
as failed.  The references are rebuilt from the generator's own tables
(brute-force overlaps, Full Disjunction properties checked directly on
the cells), never from the program's indexes.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

from repro import MISSING, PRODUCED, Table


def is_null(cell: Any) -> bool:
    return cell is MISSING or cell is PRODUCED or cell is None


def key_set(table: Table) -> set[str]:
    """The lowercase key tokens of a generated table's ``key`` column."""
    return {str(row[0]).lower() for row in table.rows if not is_null(row[0])}


def brute_force_topk(
    query: Table, keys: Mapping[str, set[str]], k: int
) -> list[tuple[str, float]]:
    """Exact top-*k* ``(table, overlap)`` by set intersection of the query's
    key column with each table's (*keys*: table name -> :func:`key_set`),
    ties broken by table name.

    Generated keys never collide with city or metric tokens, so the key
    column is every table's best-overlapping column."""
    probe = key_set(query)
    scored = [(name, float(len(probe & table_keys))) for name, table_keys in keys.items()]
    scored = [pair for pair in scored if pair[1] >= 1]
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:k]


def check_josie(
    results: Sequence[Any], query: Table, keys: Mapping[str, set[str]], k: int
) -> str | None:
    """JOSIE's top-k equals the brute-force overlap top-k, score for score."""
    got = [(r.table_name, float(r.score)) for r in results]
    want = brute_force_topk(query, keys, k)
    if got != want:
        return f"josie top-{k} for {query.name}: got {got[:3]}..., want {want[:3]}..."
    return None


def check_planted(found: Iterable[str], planted: Iterable[str], query: str) -> str | None:
    """Every planted joinable appears in the merged discover result."""
    missing = sorted(set(planted) - set(found))
    if missing:
        return f"planted tables {missing} missing from the answer for {query}"
    return None


def check_full_disjunction(
    aligned: Sequence[Table], header: Sequence[str], facts: Sequence[Sequence[Any]]
) -> str | None:
    """The Full Disjunction properties of *facts* over the *aligned* inputs.

    * no fact is subsumed by (or duplicates) another fact;
    * every aligned input tuple is covered by some fact, i.e. some fact
      agrees with it on all of its non-null cells;
    * no fact holds a value that no input holds in the same column.
    """
    position = {column: i for i, column in enumerate(header)}
    postings: dict[tuple[int, Any], set[int]] = {}
    for f, cells in enumerate(facts):
        if len(cells) != len(header):
            return f"fact {f} has {len(cells)} cells for {len(header)} columns"
        for i, cell in enumerate(cells):
            if not is_null(cell):
                postings.setdefault((i, cell), set()).add(f)

    def supersets(cells: Iterable[tuple[int, Any]]) -> set[int]:
        """Facts holding every given (column, value) cell."""
        result: set[int] | None = None
        for cell in cells:
            holders = postings.get(cell, set())
            result = set(holders) if result is None else result & holders
            if not result:
                return set()
        return result if result is not None else set()

    for f, cells in enumerate(facts):
        own = [(i, c) for i, c in enumerate(cells) if not is_null(c)]
        if not own:
            return f"fact {f} is all nulls"
        if supersets(own) - {f}:
            return f"fact {f} is subsumed by another fact"

    input_values: set[tuple[int, Any]] = set()
    for table in aligned:
        try:
            columns = [position[c] for c in table.columns]
        except KeyError as error:
            return f"aligned column {error} of {table.name} not in the result"
        for row in table.rows:
            cells = [(i, c) for i, c in zip(columns, row) if not is_null(c)]
            input_values.update(cells)
            if cells and not supersets(cells):
                return f"a tuple of {table.name} is covered by no fact"
    foreign = set(postings) - input_values
    if foreign:
        i, value = sorted(foreign, key=repr)[0]
        return f"fact value {value!r} in {header[i]} appears in no input"
    return None


def check_payload(got: Any, want: Any, what: str) -> str | None:
    """A served payload equals the in-process answer at its version."""
    if got != want:
        return f"{what}: served payload differs from the in-process answer"
    return None


def check_ingest_visible(
    before: int, after: int, found: Iterable[str], added: Iterable[str]
) -> str | None:
    """Right after an ingest the version has risen and the planted query's
    answer contains the new tables."""
    if after <= before:
        return f"lake version did not rise on ingest ({before} -> {after})"
    return check_planted(found, added, "the ingested query")
