"""Physical execution of logical plans (iterator model).

Rows flow between operators as dicts keyed by *qualified* column names
("alias.column"); unqualified lookups resolve through the suffix
fallback in :class:`~.expressions.ColumnRef`. The executor charges
``rows_scanned`` via the tables it reads, so benchmark cost accounting
reflects real work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ...errors import ExecutionError, PlanError
from ...obs import span
from ..types import sort_key
from .expressions import (
    BinaryOp, ColumnRef, Expression, FunctionCall, Literal, UnaryOp,
    predicate_matches,
)
from .planner import (
    AggregateNode, DistinctNode, FilterNode, HashJoinNode, IndexScanNode,
    LimitNode, NestedLoopJoinNode, PlanNode, ProjectNode, ScanNode, SortNode,
)
from .sql_parser import AggregateCall
from .table import Table


@dataclass
class ResultSet:
    """Materialized query result: ordered column names plus row tuples."""

    columns: List[str]
    rows: List[Tuple[Any, ...]]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def to_dicts(self) -> List[Dict[str, Any]]:
        """Rows as column→value dicts."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    def column(self, name: str) -> List[Any]:
        """All values of one output column."""
        try:
            pos = self.columns.index(name)
        except ValueError:
            raise ExecutionError(
                "no output column %r (has: %s)"
                % (name, ", ".join(self.columns))
            ) from None
        return [row[pos] for row in self.rows]

    def scalar(self) -> Any:
        """The single value of a 1x1 result."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise ExecutionError(
                "scalar() needs a 1x1 result, got %dx%d"
                % (len(self.rows), len(self.columns))
            )
        return self.rows[0][0]

    def pretty(self, max_rows: int = 20) -> str:
        """Fixed-width text rendering (for examples and reports)."""
        headers = [str(c) for c in self.columns]
        shown = self.rows[:max_rows]
        cells = [[_fmt(v) for v in row] for row in shown]
        widths = [
            max([len(h)] + [len(row[i]) for row in cells])
            for i, h in enumerate(headers)
        ]
        sep = "-+-".join("-" * w for w in widths)
        lines = [
            " | ".join(h.ljust(w) for h, w in zip(headers, widths)), sep
        ]
        for row in cells:
            lines.append(
                " | ".join(c.ljust(w) for c, w in zip(row, widths))
            )
        if len(self.rows) > max_rows:
            lines.append("... (%d more rows)" % (len(self.rows) - max_rows))
        return "\n".join(lines)


def _fmt(value: Any) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, float):
        return "%.4g" % value
    return str(value)


class _Aggregator:
    """Incremental state for one AggregateCall."""

    def __init__(self, call: AggregateCall):
        self._call = call
        self._count = 0
        self._sum = 0.0
        self._min: Any = None
        self._max: Any = None
        self._distinct: set = set()
        self._any_numeric = False

    def update(self, row: Dict[str, Any]) -> None:
        call = self._call
        if call.arg is None:  # COUNT(*)
            self._count += 1
            return
        value = call.arg.evaluate(row)
        if value is None:
            return
        if call.distinct:
            self._distinct.add(value)
            return
        self._count += 1
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            self._sum += value
            self._any_numeric = True
        if self._min is None or sort_key(value) < sort_key(self._min):
            self._min = value
        if self._max is None or sort_key(value) > sort_key(self._max):
            self._max = value

    def result(self) -> Any:
        func = self._call.func
        if self._call.distinct:
            if func == "count":
                return len(self._distinct)
            values = sorted(self._distinct, key=sort_key)
            if not values:
                return None
            if func == "sum":
                return sum(values)
            if func == "avg":
                return sum(values) / len(values)
            if func == "min":
                return values[0]
            if func == "max":
                return values[-1]
            raise PlanError("unknown aggregate %r" % func)
        if func == "count":
            return self._count
        if self._count == 0:
            return None
        if func == "sum":
            if not self._any_numeric:
                raise ExecutionError("SUM over non-numeric values")
            return self._sum
        if func == "avg":
            if not self._any_numeric:
                raise ExecutionError("AVG over non-numeric values")
            return self._sum / self._count
        if func == "min":
            return self._min
        if func == "max":
            return self._max
        raise PlanError("unknown aggregate %r" % func)


class Executor:
    """Execute plan trees against a catalog of named tables."""

    def __init__(self, tables: Dict[str, Table]):
        self._tables = tables

    # ------------------------------------------------------------------
    def _table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise ExecutionError("unknown table %r" % name) from None

    @staticmethod
    def _row_dict(alias: str, schema_cols: List[str],
                  row: Tuple[Any, ...]) -> Dict[str, Any]:
        return {
            "%s.%s" % (alias, col): value
            for col, value in zip(schema_cols, row)
        }

    def _iter(self, node: PlanNode) -> Iterator[Dict[str, Any]]:
        if isinstance(node, ScanNode):
            table = self._table(node.table)
            cols = table.schema.column_names()
            for _, row in table.scan():
                yield self._row_dict(node.alias, cols, row)
        elif isinstance(node, IndexScanNode):
            table = self._table(node.table)
            cols = table.schema.column_names()
            for row in table.lookup(node.column, node.value):
                yield self._row_dict(node.alias, cols, row)
        elif isinstance(node, FilterNode):
            if isinstance(node.child, ScanNode):
                yield from self._filtered_scan(node)
            else:
                for row in self._iter(node.child):
                    if predicate_matches(node.predicate, row):
                        yield row
        elif isinstance(node, NestedLoopJoinNode):
            yield from self._nested_loop(node)
        elif isinstance(node, HashJoinNode):
            yield from self._hash_join(node)
        else:
            raise PlanError("cannot iterate node %r" % node.label())

    def _filtered_scan(self, node: FilterNode):
        """Filter fused into its base scan, pushing the predicate down.

        Semantically identical to scan-then-filter — same rows, order
        and ``rows_scanned`` charges — but the table sees the filter's
        equality conjuncts, so a partitioned table can prune to the
        shard owning a bound entity key.
        """
        child = node.child
        table = self._table(child.table)
        cols = table.schema.column_names()
        alias = child.alias

        def test(raw: Tuple[Any, ...]) -> bool:
            return bool(predicate_matches(
                node.predicate, self._row_dict(alias, cols, raw)
            ))

        equals = _equality_conjuncts(node.predicate, alias, cols)
        for _, raw in table.scan_matching(test, equals=equals):
            yield self._row_dict(alias, cols, raw)

    def _columns(self, node: PlanNode) -> List[str]:
        """Qualified column names of the rows :meth:`_iter` yields.

        Known from the plan alone, so LEFT JOIN pads unmatched rows with
        every right-hand column even when the right input is empty.
        """
        if isinstance(node, (ScanNode, IndexScanNode)):
            cols = self._table(node.table).schema.column_names()
            return ["%s.%s" % (node.alias, col) for col in cols]
        if isinstance(node, FilterNode):
            return self._columns(node.child)
        if isinstance(node, (NestedLoopJoinNode, HashJoinNode)):
            # Joined rows are {**left, **right}: left keys keep their place.
            return list(dict.fromkeys(
                self._columns(node.left) + self._columns(node.right)
            ))
        raise PlanError("cannot iterate node %r" % node.label())

    def _nested_loop(self, node: NestedLoopJoinNode):
        right_rows = list(self._iter(node.right))
        nulls = {k: None for k in self._columns(node.right)}
        for left_row in self._iter(node.left):
            matched = False
            for right_row in right_rows:
                combined = {**left_row, **right_row}
                if predicate_matches(node.condition, combined):
                    matched = True
                    yield combined
            if node.kind == "left" and not matched:
                yield {**left_row, **nulls}

    def _hash_join(self, node: HashJoinNode):
        build: Dict[Any, List[Dict[str, Any]]] = {}
        right_rows = list(self._iter(node.right))
        nulls = {k: None for k in self._columns(node.right)}
        for right_row in right_rows:
            key = node.right_key.evaluate(right_row)
            if key is None:
                continue
            build.setdefault(key, []).append(right_row)
        for left_row in self._iter(node.left):
            key = node.left_key.evaluate(left_row)
            matches = build.get(key, []) if key is not None else []
            matched = False
            for right_row in matches:
                combined = {**left_row, **right_row}
                if node.residual is not None and not predicate_matches(
                    node.residual, combined
                ):
                    continue
                matched = True
                yield combined
            if node.kind == "left" and not matched:
                yield {**left_row, **nulls}

    # ------------------------------------------------------------------
    def execute(self, node: PlanNode) -> ResultSet:
        """Run the plan to a materialized :class:`ResultSet`.

        Each recursive step opens an ``sql.exec`` span, so a traced
        query yields a span tree mirroring the plan's operator tree.
        """
        with span("sql.exec", node=type(node).__name__) as sp:
            result = self._execute_node(node)
            sp.set("rows", len(result.rows))
        return result

    def _execute_node(self, node: PlanNode) -> ResultSet:
        if isinstance(node, LimitNode):
            inner = self.execute(node.child)
            start = node.offset
            end = None if node.limit is None else start + node.limit
            return ResultSet(inner.columns, inner.rows[start:end])
        if isinstance(node, SortNode):
            child = node.child
            if isinstance(child, ProjectNode) and not child.star:
                return self._sort_then_project(node, child)
            result = self.execute(child)
            return self._sort(node, result)
        if isinstance(node, DistinctNode):
            inner = self.execute(node.child)
            seen = set()
            rows = []
            for row in inner.rows:
                key = tuple(sort_key(v) for v in row)
                if key not in seen:
                    seen.add(key)
                    rows.append(row)
            return ResultSet(inner.columns, rows)
        if isinstance(node, ProjectNode):
            return self._project(node)
        if isinstance(node, AggregateNode):
            return self._aggregate(node)
        # Bare relational node: expose qualified columns as-is.
        rows_out: List[Tuple[Any, ...]] = []
        columns: List[str] = []
        for row in self._iter(node):
            if not columns:
                columns = list(row.keys())
            rows_out.append(tuple(row.get(c) for c in columns))
        return ResultSet(columns, rows_out)

    def _sort_then_project(self, sort_node: SortNode,
                           project: ProjectNode) -> ResultSet:
        """Sort with access to pre-projection columns, then project.

        Lets ORDER BY reference base-table columns that are not in the
        select list (e.g. ``SELECT name ... ORDER BY price``).
        """
        columns = [item.output_name() for item in project.items]
        pairs = []  # (context, output_tuple)
        for row in self._iter(project.child):
            out = tuple(item.expr.evaluate(row) for item in project.items)
            ctx = dict(row)
            ctx.update(zip(columns, out))
            pairs.append((ctx, out))
        for item in reversed(sort_node.order_by):
            def key(pair, _item=item):
                return sort_key(_item.expr.evaluate(pair[0]))
            pairs.sort(key=key, reverse=item.descending)
        return ResultSet(columns, [out for _, out in pairs])

    def _project(self, node: ProjectNode) -> ResultSet:
        rows_out: List[Tuple[Any, ...]] = []
        columns: List[str] = []
        if node.star:
            for row in self._iter(node.child):
                if not columns:
                    columns = [k.split(".", 1)[-1] for k in row]
                    if len(set(columns)) != len(columns):
                        columns = list(row.keys())
                    full_keys = list(row.keys())
                rows_out.append(tuple(row[k] for k in full_keys))
            return ResultSet(columns or [], rows_out)
        columns = [item.output_name() for item in node.items]
        for row in self._iter(node.child):
            rows_out.append(
                tuple(item.expr.evaluate(row) for item in node.items)
            )
        return ResultSet(columns, rows_out)

    def _aggregate(self, node: AggregateNode) -> ResultSet:
        groups: Dict[tuple, Dict[str, Any]] = {}
        aggs: Dict[tuple, List[_Aggregator]] = {}
        # Select-list aggregates first, then those only HAVING names.
        calls = [item.expr for item in node.items if item.is_aggregate]
        if node.having is not None:
            known = {_having_key(call) for call in calls}
            for call in _aggregate_calls(node.having):
                if _having_key(call) not in known:
                    known.add(_having_key(call))
                    calls.append(call)
        saw_rows = False
        for row in self._iter(node.child):
            saw_rows = True
            key = tuple(
                sort_key(c.evaluate(row)) for c in node.group_by
            )
            if key not in groups:
                groups[key] = row
                aggs[key] = [_Aggregator(call) for call in calls]
            for agg in aggs[key]:
                agg.update(row)
        if not node.group_by and not saw_rows:
            # Global aggregate over empty input still yields one row.
            groups[()] = {}
            aggs[()] = [_Aggregator(call) for call in calls]

        columns = [item.output_name() for item in node.items]
        rows_out: List[Tuple[Any, ...]] = []
        for key in groups:
            sample = groups[key]
            agg_values = [a.result() for a in aggs[key]]
            agg_iter = iter(agg_values)  # select-list aggregates lead
            out_row = []
            extended = dict(sample)
            for item in node.items:
                if item.is_aggregate:
                    value = next(agg_iter)
                else:
                    value = item.expr.evaluate(sample) if sample else None
                out_row.append(value)
                extended[item.output_name()] = value
            if node.having is not None:
                if not self._having_matches(node.having, extended,
                                            calls, agg_values):
                    continue
            rows_out.append(tuple(out_row))
        rows_out.sort(key=lambda r: tuple(sort_key(v) for v in r))
        return ResultSet(columns, rows_out)

    def _having_matches(self, having: Expression, extended: Dict[str, Any],
                        calls: List[AggregateCall],
                        values: List[Any]) -> bool:
        # HAVING may reference aggregates directly (e.g. COUNT(*) > 2):
        # each aggregate call becomes a column named by its canonical
        # sql text, bound to the group's computed value.
        ctx = dict(extended)
        for call, value in zip(calls, values):
            ctx[_having_key(call)] = value
        return predicate_matches(_rewrite_having(having), ctx)


def _conjuncts(expr: Expression, out: List[Expression]) -> None:
    if isinstance(expr, BinaryOp) and expr.op.upper() == "AND":
        _conjuncts(expr.left, out)
        _conjuncts(expr.right, out)
    else:
        out.append(expr)


def _equality_conjuncts(
    predicate: Expression, alias: str, cols: List[str],
) -> Optional[List[Tuple[str, Any]]]:
    """(column, value) pairs every row matching *predicate* satisfies.

    Recognizes top-level AND conjuncts of the shapes ``col = literal``
    and ``LOWER(col) = literal`` (the shape synthesized SQL emits for
    entity matches; shard routing canonicalizes strings to lowercase,
    so the lowered literal routes with the raw stored value). Anything
    else contributes no hint.
    """
    parts: List[Expression] = []
    _conjuncts(predicate, parts)
    hints: List[Tuple[str, Any]] = []
    for part in parts:
        if not (isinstance(part, BinaryOp) and part.op == "="):
            continue
        for lhs, rhs in ((part.left, part.right), (part.right, part.left)):
            if not isinstance(rhs, Literal):
                continue
            column = _hinted_column(lhs, alias, cols)
            if column is not None:
                hints.append((column, rhs.value))
                break
    return hints or None


def _hinted_column(expr: Expression, alias: str,
                   cols: List[str]) -> Optional[str]:
    if (isinstance(expr, FunctionCall) and expr.name.lower() == "lower"
            and len(expr.args) == 1):
        expr = expr.args[0]
    if not isinstance(expr, ColumnRef):
        return None
    if expr.table and expr.table.lower() != alias.lower():
        return None
    name = expr.name.lower()
    return name if name in cols else None


def _having_key(call: AggregateCall) -> str:
    """The column name HAVING evaluation binds an aggregate call to."""
    return call.sql().lower().replace(" ", "")


def _aggregate_calls(expr: Expression) -> List[AggregateCall]:
    """AggregateCall leaves of *expr*, in the order they appear."""
    if isinstance(expr, AggregateCall):
        return [expr]
    if isinstance(expr, BinaryOp):
        return _aggregate_calls(expr.left) + _aggregate_calls(expr.right)
    if isinstance(expr, UnaryOp):
        return _aggregate_calls(expr.operand)
    return []


def _rewrite_having(expr: Expression) -> Expression:
    """Replace AggregateCall leaves with column refs named by sql text."""
    if isinstance(expr, AggregateCall):
        return ColumnRef(_having_key(expr))
    if isinstance(expr, BinaryOp):
        return BinaryOp(
            expr.op, _rewrite_having(expr.left),
            _rewrite_having(expr.right),
        )
    if isinstance(expr, UnaryOp):
        return UnaryOp(expr.op, _rewrite_having(expr.operand))
    return expr


def _sort_result(result: ResultSet, order_by) -> ResultSet:
    """Multi-key stable sort of a materialized result.

    Applies one stable pass per key, last key first, reversing for
    DESC — this avoids negating non-numeric sort keys.
    """
    rows = list(result.rows)
    for item in reversed(order_by):
        def key(row, _item=item):
            ctx = dict(zip(result.columns, row))
            return sort_key(_item.expr.evaluate(ctx))
        rows.sort(key=key, reverse=item.descending)
    return ResultSet(result.columns, rows)


def _executor_sort(self, node: SortNode, result: ResultSet) -> ResultSet:
    # ORDER BY references output column names of the materialized child.
    return _sort_result(result, node.order_by)


Executor._sort = _executor_sort
