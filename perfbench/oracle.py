"""Reference answers from an independent engine: stdlib ``sqlite3``.

The generated tables are loaded into in-memory SQLite, and each SQL
text of the repository's dialect is translated into plain SQL:

- implicit FK joins (``FROM lineitem, orders``) become explicit
  equalities taken from the catalog's declared foreign keys;
- ``DATE`` literals (``'1997-07-01'``) become the proleptic ordinals the
  engine stores dates as; SQLite would otherwise compare integers
  against text without complaint;
- a trailing ``OPTION (...)`` hint is stripped.

Answers are compared row by row within :data:`REL_TOL`. The engine's
empty-input conventions are normalised rather than counted as
failures: a SQLite ``NULL`` aggregate equals the engine's ``0.0``
(``SUM`` and ``COUNT`` of nothing) or ``NaN`` (``MIN``/``MAX``/``AVG``
of nothing), and ``COUNT`` compares numerically although the engine
returns it as a float.
"""

from __future__ import annotations

import datetime
import math
import re
import sqlite3

#: Relative tolerance of float comparisons. The engine and SQLite sum
#: in different orders; sums of up to 10^6 values of 10^5 differ in the
#: last few of 16 digits, far inside this bound.
REL_TOL = 1e-9
ABS_TOL = 1e-6

_DATE = re.compile(r"'(\d{4}-\d{2}-\d{2})'")
_OPTION = re.compile(r"\s+OPTION\s*\([^)]*\)\s*$", re.IGNORECASE)
_FROM = re.compile(
    r"\bFROM\s+(?P<tables>.+?)(?=\s+(?:WHERE|GROUP|ORDER|LIMIT)\b|$)",
    re.IGNORECASE | re.DOTALL,
)
_WHERE = re.compile(r"\bWHERE\b", re.IGNORECASE)


def translate(sql: str, database) -> str:
    """The SQLite form of one dialect SQL text."""
    sql = _OPTION.sub("", sql)
    sql = _DATE.sub(
        lambda m: str(datetime.date.fromisoformat(m.group(1)).toordinal()), sql
    )
    match = _FROM.search(sql)
    tables = [name.strip() for name in match.group("tables").split(",")]
    joins = [
        f"{table}.{fk.column} = {fk.parent_table}.{fk.parent_column}"
        for table in tables
        for fk in database.table(table).schema.foreign_keys
        if fk.parent_table in tables
    ]
    if not joins:
        return sql
    clause = " AND ".join(joins)
    if _WHERE.search(sql):
        return _WHERE.sub(f"WHERE {clause} AND", sql, count=1)
    end = match.end("tables")
    return f"{sql[:end]} WHERE {clause}{sql[end:]}"


def load(database) -> sqlite3.Connection:
    """An in-memory SQLite copy of ``database``, keys indexed."""
    connection = sqlite3.connect(":memory:", check_same_thread=False)
    connection.execute("PRAGMA case_sensitive_like = ON")
    for name in database.table_names:
        table = database.table(name)
        columns = table.schema.column_names
        connection.execute(f"CREATE TABLE {name} ({', '.join(columns)})")
        connection.executemany(
            f"INSERT INTO {name} VALUES ({', '.join('?' * len(columns))})",
            zip(*(table.column(column).tolist() for column in columns)),
        )
        # Keys only: SQLite would take an index on a range column even
        # for wide ranges, which makes the scale-10 answers several times
        # slower than full scans.
        keys = [table.schema.primary_key] + [
            fk.column for fk in table.schema.foreign_keys
        ]
        for column in filter(None, keys):
            connection.execute(
                f"CREATE INDEX {name}_{column} ON {name} ({column})"
            )
    return connection


def frame_rows(frame) -> list[tuple]:
    """The rows of an engine result frame, as Python values."""
    columns = [frame.column(name).tolist() for name in frame.column_names]
    return list(zip(*columns))


def _same_value(engine, reference) -> bool:
    if reference is None:
        return engine is None or engine == 0.0 or (
            isinstance(engine, float) and math.isnan(engine)
        )
    if isinstance(reference, str) or isinstance(engine, str):
        return engine == reference
    return math.isclose(engine, reference, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def _sort_key(row) -> tuple:
    return tuple(
        (0, "") if value is None
        else (1, value) if isinstance(value, str)
        else (2, round(float(value), 6))
        for value in row
    )


def same_answer(engine: list[tuple], reference: list[tuple], ordered: bool) -> bool:
    """Whether two result row lists match (as multisets unless ordered)."""
    if len(engine) != len(reference):
        return False
    if not ordered:
        engine = sorted(engine, key=_sort_key)
        reference = sorted(reference, key=_sort_key)
    return all(
        len(mine) == len(theirs)
        and all(_same_value(a, b) for a, b in zip(mine, theirs))
        for mine, theirs in zip(engine, reference)
    )


class Oracle:
    """Memoized reference answers over one set of named databases."""

    def __init__(self, databases: dict) -> None:
        self._databases = databases
        self._connections = {key: load(db) for key, db in databases.items()}
        self._answers: dict = {}

    def answer(self, db: str, sql: str) -> list[tuple]:
        key = (db, sql)
        if key not in self._answers:
            translated = translate(sql, self._databases[db])
            self._answers[key] = self._connections[db].execute(translated).fetchall()
        return self._answers[key]

    def check(self, db: str, sql: str, frame) -> bool:
        """Whether the engine's ``frame`` is the right answer to ``sql``."""
        ordered = re.search(r"\bORDER\s+BY\b", sql, re.IGNORECASE) is not None
        return same_answer(frame_rows(frame), self.answer(db, sql), ordered)

    def close(self) -> None:
        for connection in self._connections.values():
            connection.close()
