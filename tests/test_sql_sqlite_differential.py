"""Differential tests: the SQL engine vs stdlib ``sqlite3``.

SQLite is an oracle independent of the engine under test. Each test
loads the same random rows into both and compares result multisets.
The shapes here are the two the engine once got wrong:

* HAVING on an aggregate that is not in the select list;
* LEFT JOIN whose right-hand input is empty (both join strategies).
"""

import sqlite3
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.metering import CostMeter
from repro.storage.relational import Database

T_ROWS = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(min_value=-6, max_value=6)),
        st.sampled_from(["x", "y", "z", None]),
    ),
    max_size=14,
)
U_ROWS = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(min_value=-6, max_value=6)),
        st.sampled_from(["p", "q", None]),
    ),
    max_size=8,
)


def _load(t_rows, u_rows):
    db = Database(meter=CostMeter())
    db.execute("CREATE TABLE t (a INT, b TEXT)")
    db.execute("CREATE TABLE u (c INT, d TEXT)")
    for row in t_rows:
        db.table("t").insert(row)
    for row in u_rows:
        db.table("u").insert(row)
    lite = sqlite3.connect(":memory:")
    lite.execute("CREATE TABLE t (a INTEGER, b TEXT)")
    lite.execute("CREATE TABLE u (c INTEGER, d TEXT)")
    lite.executemany("INSERT INTO t VALUES (?, ?)", t_rows)
    lite.executemany("INSERT INTO u VALUES (?, ?)", u_rows)
    return db, lite


def _canon(value):
    return round(value, 9) if isinstance(value, float) else value


def _multiset(rows):
    return Counter(tuple(_canon(v) for v in row) for row in rows)


def assert_same_result(db, lite, sql):
    got = db.execute(sql)
    expected = lite.execute(sql).fetchall()
    assert _multiset(got.rows) == _multiset(expected), sql


HAVING_ONLY = (
    "SELECT b, AVG(a) FROM t GROUP BY b HAVING COUNT(*) > {k}",
    "SELECT b, COUNT(*) FROM t GROUP BY b HAVING SUM(a) > {k}",
    "SELECT b, MAX(a) FROM t GROUP BY b HAVING MIN(a) < {k}",
    "SELECT b FROM t GROUP BY b HAVING COUNT(a) >= {k} AND MAX(a) > 0",
    "SELECT b, AVG(a) FROM t GROUP BY b HAVING COUNT(*) > {k} "
    "AND AVG(a) > 0",
)


class TestHavingOnlyAggregates:
    def test_issue_shape(self):
        db, lite = _load([(1, "x"), (2, "x"), (3, "y")], [])
        sql = "SELECT b, AVG(a) FROM t GROUP BY b HAVING COUNT(*) > 1"
        assert db.execute(sql).rows == [("x", 1.5)]
        assert_same_result(db, lite, sql)

    @settings(max_examples=60)
    @given(t_rows=T_ROWS, k=st.integers(min_value=-3, max_value=3),
           shape=st.sampled_from(HAVING_ONLY))
    def test_matches_sqlite(self, t_rows, k, shape):
        db, lite = _load(t_rows, [])
        assert_same_result(db, lite, shape.format(k=k))


#: (join condition, the plan operator it must run through)
JOINS = (
    ("t.a = u.c", "HashJoin[left]"),
    ("t.a < u.c", "NestedLoopJoin[left]"),
)


class TestLeftJoinEmptyRight:
    @pytest.mark.parametrize("condition,operator", JOINS)
    def test_empty_right_pads_with_null(self, condition, operator):
        db, lite = _load([(1, "x"), (None, "y")], [])
        sql = "SELECT t.a, u.d FROM t LEFT JOIN u ON %s" % condition
        assert operator in db.explain(sql)
        assert sorted(db.execute(sql).rows, key=repr) == [
            (1, None), (None, None),
        ]
        assert_same_result(db, lite, sql)
        star = "SELECT * FROM t LEFT JOIN u ON %s" % condition
        assert db.execute(star).columns == ["a", "b", "c", "d"]
        assert_same_result(db, lite, star)

    @settings(max_examples=60)
    @given(t_rows=T_ROWS, u_rows=U_ROWS, join=st.sampled_from(JOINS))
    def test_matches_sqlite(self, t_rows, u_rows, join):
        condition, operator = join
        db, lite = _load(t_rows, u_rows)
        sql = "SELECT t.a, t.b, u.c, u.d FROM t LEFT JOIN u ON %s" % condition
        assert operator in db.explain(sql)
        assert_same_result(db, lite, sql)
