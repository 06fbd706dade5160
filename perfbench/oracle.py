"""An oracle for serving queries, independent of the program's engines.

Loads the generated rows straight into stdlib ``sqlite3`` (no
``repro.backends`` or ``repro.storage`` code on the way) and answers
each query there.  A response matches when its column names equal the
oracle's and its rows match position by position (the queries order by
their full group key): integers exactly, floats within
:data:`perfbench.common.FLOAT_RTOL`.
"""

from __future__ import annotations

import sqlite3

from perfbench.common import same_rows


class SqliteOracle:
    def __init__(self, table: str, rows: list[dict]) -> None:
        self._connection = sqlite3.connect(":memory:")
        columns = list(rows[0])
        quoted = ", ".join(f'"{name}"' for name in columns)
        self._connection.execute(f'CREATE TABLE "{table}" ({quoted})')
        self._connection.executemany(
            f'INSERT INTO "{table}" VALUES ({", ".join("?" * len(columns))})',
            [tuple(row[name] for name in columns) for row in rows],
        )
        self._answers: dict[str, tuple[list[str], list[tuple]]] = {}

    def answer(self, sql: str) -> tuple[list[str], list[tuple]]:
        if sql not in self._answers:
            cursor = self._connection.execute(sql)
            self._answers[sql] = ([d[0] for d in cursor.description], cursor.fetchall())
        return self._answers[sql]

    def matches(self, sql: str, rows: list[dict]) -> bool:
        """Whether ``rows`` (row dicts in result order) answer ``sql``."""
        columns, expected = self.answer(sql)
        if rows and list(rows[0]) != columns:
            return False
        return same_rows([tuple(row.values()) for row in rows], expected)

    def close(self) -> None:
        self._connection.close()
