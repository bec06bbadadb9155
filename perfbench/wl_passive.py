"""``passive_sql``: the gateway with no ECA rules.

One client through the gateway.  Point reads draw customer ids from a
key space four times the plan cache's 512 entries, so most reads miss
the cache; scans are three-table joins and grouped aggregates over a
table of thousands of rows; writes insert and delete orders (balanced)
and update customers.  No rule exists, so notifier, LED and action
handler must see nothing.

Every statement is also replayed, outside the timed window, into stdlib
``sqlite3``; each read's rows and the final tables must agree.  The
statement text is the same for both engines.  Documented differences
between the T-SQL engine and sqlite that the comparison allows:

- rows of a query without ORDER BY are compared as multisets;
- floats are compared to 1e-9 relative (SUM order differs);
- the native trigger DDL and the atomicity probes below are T-SQL only
  and are not replayed.

The atomicity probes: one op in a hundred, at fixed positions, inserts
into ``side``, whose native (non-ECA) trigger inserts NULL into a NOT
NULL column.  The statement fails with an integrity error; atomicity
requires the triggering row to be absent afterwards.  Today the row
stays applied, so each probe counts as failed.
"""

from __future__ import annotations

import sqlite3

from repro.agent import EcaAgent
from repro.sqlengine import SqlServer

from harness import ATOMIC, READ, SCAN, WRITE, Op, Workload, rows_equal, strata

CUSTOMERS = 2048   # 4x the plan cache's 512 entries
PRODUCTS = 64
ORDERS = 2000
REGIONS = 8

TIMED = {"read": 620, "join": 70, "join_orders_first": 6, "agg_region": 8,
         "agg_having": 6, "agg_product": 10, "insert": 100, "delete": 100,
         "update": 90}
WARMUP = {"read": 60, "join": 8, "join_orders_first": 1, "agg_region": 2,
          "agg_having": 1, "agg_product": 2, "insert": 15, "delete": 15,
          "update": 10}
#: One atomicity probe every this many timed ops, at fixed positions.
ATOMIC_EVERY = 100

SCHEMA = [
    "create table customers (id int not null, name varchar(20) not null, "
    "region varchar(8) not null, credit int not null)",
    "create table products (id int not null, name varchar(20) not null, "
    "price float not null)",
    "create table orders (id int not null, cust_id int not null, "
    "product_id int not null, qty int not null)",
    "create index ix_customers_id on customers (id)",
    "create index ix_products_id on products (id)",
    "create index ix_orders_id on orders (id)",
    "create index ix_orders_cust on orders (cust_id)",
]
SIDE_SCHEMA = [
    "create table side (k int not null)",
    "create table side_audit (v int not null)",
    "create trigger t_side on side for insert "
    "as insert into side_audit values (null)",
]
TABLES = {"customers": "id, name, region, credit",
          "products": "id, name, price",
          "orders": "id, cust_id, product_id, qty"}


class PassiveSql(Workload):
    name = "passive_sql"

    def __init__(self, rng):
        super().__init__(rng)
        self.preload = (
            [f"insert into customers values ({i}, 'c{i}', 'r{i % REGIONS}', "
             f"{rng.randrange(1000)})" for i in range(CUSTOMERS)]
            + [f"insert into products values ({i}, 'p{i}', "
               f"{rng.randrange(100, 10000) / 100!r})" for i in range(PRODUCTS)]
            + [f"insert into orders values ({i}, {rng.randrange(CUSTOMERS)}, "
               f"{rng.randrange(PRODUCTS)}, {rng.randrange(1, 20)})"
               for i in range(ORDERS)])
        self.live_orders = list(range(ORDERS))
        self.next_order = ORDERS
        self.warmup = self._stream(WARMUP)
        timed = self._stream(TIMED)
        # Atomicity probes at fixed positions with seed-free keys.
        self.timed = []
        for op in timed:
            if len(self.timed) % ATOMIC_EVERY == ATOMIC_EVERY // 2:
                key = len(self.timed)
                self.timed.append(Op(ATOMIC, f"insert into side values ({key})",
                                     meta=key, label="atomic"))
            self.timed.append(op)

    def _stream(self, counts) -> list[Op]:
        rng = self.rng
        kinds = [k for k, n in counts.items() for _ in range(n)]
        rng.shuffle(kinds)
        ops = []
        having = strata(rng, 20, 40, counts["agg_having"])
        for kind in kinds:
            if kind == "read":
                ops.append(Op(READ, "select name, region, credit from customers "
                                    f"where id = {rng.randrange(CUSTOMERS)}"))
            elif kind == "join":
                ops.append(Op(SCAN, "select c.name, p.name, o.qty "
                                    "from customers c, orders o, products p "
                                    f"where c.id = {rng.randrange(CUSTOMERS)} "
                                    "and o.cust_id = c.id "
                                    "and p.id = o.product_id"))
            elif kind == "join_orders_first":
                ops.append(Op(SCAN, "select c.name, p.name, o.qty "
                                    "from orders o, customers c, products p "
                                    "where o.cust_id = c.id "
                                    "and o.product_id = p.id "
                                    f"and c.id = {rng.randrange(CUSTOMERS)}"))
            elif kind == "agg_region":
                ops.append(Op(SCAN, "select c.region, count(*), sum(o.qty) "
                                    "from customers c, orders o "
                                    "where o.cust_id = c.id and o.product_id = "
                                    f"{rng.randrange(PRODUCTS)} group by c.region"))
            elif kind == "agg_having":
                ops.append(Op(SCAN, "select product_id, count(*), sum(qty), "
                                    "min(qty), max(qty) from orders "
                                    "group by product_id having count(*) > "
                                    f"{having.pop()}"))
            elif kind == "agg_product":
                ops.append(Op(SCAN, "select cust_id, count(*), sum(qty) "
                                    "from orders where product_id = "
                                    f"{rng.randrange(PRODUCTS)} group by cust_id"))
            elif kind == "insert":
                ops.append(Op(WRITE, f"insert into orders values "
                                     f"({self.next_order}, "
                                     f"{rng.randrange(CUSTOMERS)}, "
                                     f"{rng.randrange(PRODUCTS)}, "
                                     f"{rng.randrange(1, 20)})"))
                self.live_orders.append(self.next_order)
                self.next_order += 1
            elif kind == "delete":
                victim = self.live_orders.pop(rng.randrange(len(self.live_orders)))
                ops.append(Op(WRITE, f"delete from orders where id = {victim}"))
            else:  # update
                ops.append(Op(WRITE, "update customers set credit = credit + "
                                     f"{rng.randrange(1, 50)} where id = "
                                     f"{rng.randrange(CUSTOMERS)}"))
            ops[-1].label = kind
        return ops

    def setup(self) -> None:
        self.server = SqlServer(default_database="shop")
        self.agent = EcaAgent(self.server)
        self.conn = self.agent.connect(user="app", database="shop")
        for statement in SCHEMA + SIDE_SCHEMA:
            self.conn.execute(statement)
        for start in range(0, len(self.preload), 500):
            self.conn.execute("\n".join(self.preload[start:start + 500]))

    def execute(self, op: Op):
        return self.conn.execute(op.sql)

    def check(self, warm, log) -> list[str]:
        errors = []
        lite = sqlite3.connect(":memory:")
        try:
            for statement in SCHEMA + self.preload:
                lite.execute(statement)
            for part in (warm, log):
                for op, result, error in zip(part.ops, part.results,
                                             part.errors):
                    if op.kind == ATOMIC:
                        continue
                    if error is not None:
                        errors.append(f"{op.sql}: {error!r}")
                        continue
                    rows = lite.execute(op.sql).fetchall()
                    if op.kind in (READ, SCAN) and not rows_equal(
                            result.result_sets[0].rows, rows):
                        errors.append(f"{op.sql}: got "
                                      f"{result.result_sets[0].rows[:3]} "
                                      f"sqlite3 says {rows[:3]}")
            for table, columns in TABLES.items():
                mine = self.conn.execute(
                    f"select {columns} from {table}").last.rows
                theirs = lite.execute(f"select {columns} from {table}").fetchall()
                if not rows_equal(mine, theirs):
                    errors.append(f"final {table} table differs from sqlite3")
        finally:
            lite.close()
        self._present = {row[0] for row in
                         self.conn.execute("select k from side").last.rows}
        return errors

    def failed_ops(self, log) -> int:
        """An atomicity probe fails when its row survived the error."""
        return sum(1 for op in log.ops
                   if op.kind == ATOMIC and op.meta in self._present)

    def servers(self) -> list:
        return [self.server]

    def close(self) -> None:
        self.agent.close()
