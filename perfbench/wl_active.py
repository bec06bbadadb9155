"""``active_stock``: the paper's stock example on the active path.

One client through the gateway on the synchronous notification channel.
Rules: Example 1 (``t_addStk`` on the primitive ``addStk``), Example 2
(``t_delStk`` on ``delStk`` and ``t_and`` on ``addDel = delStk ^ addStk``
in RECENT) and a CHRONICLE SEQ rule ``t_seq`` on
``addUpd = addStk SEQ updStk`` (with ``t_updStk`` defining ``updStk``).
Every rule action records its firing in ``firings`` so the checks can
count them.

The op mix is inserts, updates and deletes on ``stock`` (inserts and
deletes balanced, so the live rows stay near their preload count),
point reads of a hot symbol set that fits the plan cache, and a few
aggregate scans of ``stock`` and group-by scans of ``portfolio``.
"""

from __future__ import annotations

from repro.agent import EcaAgent
from repro.sqlengine import SqlServer

from harness import (READ, SCAN, WRITE, Op, Workload, balanced_kinds,
                     check_against_model, rows_equal, strata)

#: Symbols that are always live: point reads and most updates hit them.
HOT = 64
#: Symbols that come and go with the inserts and deletes.
COLD = 336
#: Cold symbols live after the preload.
COLD_LIVE = 100
OWNERS = 12
PORTFOLIO_ROWS = 300

#: Timed ops per round, by class.
TIMED = {"insert": 170, "delete": 170, "update": 170, "read": 560,
         "scan_stock": 55, "scan_portfolio": 25}
#: Warm-up ops per round (same mix, scaled down).
WARMUP = {"insert": 30, "delete": 30, "update": 30, "read": 60,
          "scan_stock": 8, "scan_portfolio": 8}

RULES = """
create trigger t_addStk on stock for insert
event addStk
as print 'trigger t_addStk on primitive event addStk occurs'
insert firings values ('t_addStk')
;;
create trigger t_delStk on stock for delete
event delStk
as print 'trigger t_delStk on primitive event delStk occurs'
insert firings values ('t_delStk')
;;
create trigger t_and
event addDel = delStk ^ addStk
RECENT
as print 'trigger t_and on composite event addDel = delStk ^ addStk'
select symbol, price from stock.inserted
insert firings values ('t_and')
;;
create trigger t_updStk on stock for update
event updStk
as insert firings values ('t_updStk')
;;
create trigger t_seq
event addUpd = addStk SEQ updStk
CHRONICLE
as insert firings values ('t_seq')
"""


def _symbol(i: int) -> str:
    return f"S{i:03d}"


class ActiveStock(Workload):
    name = "active_stock"

    def __init__(self, rng):
        super().__init__(rng)
        self.stock = {}
        for i in range(HOT):
            self.stock[_symbol(i)] = self._quote()
        cold = list(range(HOT, HOT + COLD))
        rng.shuffle(cold)
        for i in cold[:COLD_LIVE]:
            self.stock[_symbol(i)] = self._quote()
        self.dead = [_symbol(i) for i in cold[COLD_LIVE:]]
        self.preload_stock = dict(self.stock)
        self.portfolio = [
            (f"o{rng.randrange(OWNERS):02d}", _symbol(rng.randrange(HOT)),
             rng.randrange(1, 1000))
            for _ in range(PORTFOLIO_ROWS)]
        #: firing counts a correct stack must produce (model of the LED)
        self.expected_firings = {"t_addStk": 0, "t_delStk": 0, "t_and": 0,
                                 "t_updStk": 0, "t_seq": 0}
        self._seen = {"addStk": 0, "delStk": 0}
        self._seq_pending = 0
        self.warmup = self._stream(WARMUP)
        self.timed = self._stream(TIMED)

    def _quote(self):
        rng = self.rng
        return [round(rng.uniform(1.0, 500.0), 2), rng.randrange(1, 10000)]

    # -- the op stream and its model ------------------------------------

    def _raise(self, event: str) -> None:
        """Advance the model of the rules by one primitive occurrence."""
        fired = self.expected_firings
        if event == "addStk":
            fired["t_addStk"] += 1
            # RECENT AND: fires once the other constituent has occurred;
            # initiators are never consumed.
            if self._seen["delStk"]:
                fired["t_and"] += 1
            self._seen["addStk"] += 1
            self._seq_pending += 1
        elif event == "delStk":
            fired["t_delStk"] += 1
            if self._seen["addStk"]:
                fired["t_and"] += 1
            self._seen["delStk"] += 1
        else:  # updStk
            fired["t_updStk"] += 1
            # CHRONICLE SEQ: pairs with the oldest unconsumed addStk.
            if self._seq_pending:
                fired["t_seq"] += 1
                self._seq_pending -= 1

    def _stream(self, counts) -> list[Op]:
        rng = self.rng
        stock = self.stock
        live_cold = len(stock) - HOT
        ops = []
        stock_floors = strata(rng, 0, 400, counts["scan_stock"])
        portfolio_floors = strata(rng, 0, 900, counts["scan_portfolio"])
        for kind in balanced_kinds(rng, counts, live_cold, "insert", "delete"):
            if kind == "insert":
                symbol = self.dead.pop(rng.randrange(len(self.dead)))
                price, qty = stock[symbol] = self._quote()
                ops.append(Op(WRITE, f"insert stock values ('{symbol}', "
                                     f"{price!r}, {qty})"))
                self._raise("addStk")
            elif kind == "delete":
                cold = [s for s in stock if int(s[1:]) >= HOT]
                symbol = cold[rng.randrange(len(cold))]
                del stock[symbol]
                self.dead.append(symbol)
                ops.append(Op(WRITE, f"delete stock where symbol = '{symbol}'"))
                self._raise("delStk")
            elif kind == "update":
                symbols = list(stock)
                symbol = symbols[rng.randrange(len(symbols))]
                price, qty = stock[symbol] = self._quote()
                ops.append(Op(WRITE, f"update stock set price = {price!r}, "
                                     f"qty = {qty} where symbol = '{symbol}'"))
                self._raise("updStk")
            elif kind == "read":
                symbol = _symbol(rng.randrange(HOT))
                ops.append(Op(READ, "select price, qty from stock "
                                    f"where symbol = '{symbol}'",
                              meta=[stock[symbol]]))
            elif kind == "scan_stock":
                floor = stock_floors.pop()
                rows = [v for v in stock.values() if v[0] > floor]
                expected = [[len(rows),
                             sum(v[1] for v in rows) if rows else None,
                             max(v[0] for v in rows) if rows else None]]
                ops.append(Op(SCAN, "select count(*), sum(qty), max(price) "
                                    f"from stock where price > {floor}",
                              meta=expected))
            else:  # scan_portfolio
                floor = portfolio_floors.pop()
                groups = {}
                for owner, _held, shares in self.portfolio:
                    if shares > floor:
                        g = groups.setdefault(owner, [0, 0])
                        g[0] += 1
                        g[1] += shares
                ops.append(Op(SCAN, "select owner, count(*), sum(shares) "
                                    "from portfolio where shares > "
                                    f"{floor} group by owner",
                              meta=[[o, c, s] for o, (c, s) in groups.items()]))
            ops[-1].label = kind
        return ops

    # -- the stack ------------------------------------------------------

    def setup(self) -> None:
        self.server = SqlServer(default_database="sentineldb")
        self.agent = EcaAgent(self.server)
        self.conn = self.agent.connect(user="sharma", database="sentineldb")
        run = self.conn.execute
        run("create table stock (symbol varchar(10) not null, "
            "price float null, qty int null)")
        run("create index ix_stock_symbol on stock (symbol)")
        run("create table portfolio (owner varchar(10) not null, "
            "symbol varchar(10) not null, shares int not null)")
        run("create table firings (rule varchar(12) not null)")
        run("\n".join(f"insert stock values ('{s}', {p!r}, {q})"
                      for s, (p, q) in self.preload_stock.items()))
        run("\n".join(f"insert portfolio values ('{o}', '{s}', {n})"
                      for o, s, n in self.portfolio))
        for rule in RULES.split(";;"):
            run(rule.strip())

    def execute(self, op: Op):
        return self.conn.execute(op.sql)

    def check(self, warm, log) -> list[str]:
        errors = check_against_model(warm, log)
        run = self.conn.execute
        table = run("select symbol, price, qty from stock").last.rows
        if not rows_equal(table, [[s, p, q] for s, (p, q) in self.stock.items()]):
            errors.append("final stock table differs from the model")
        counts = dict(run("select rule, count(*) from firings "
                          "group by rule").last.rows)
        for rule, want in self.expected_firings.items():
            if counts.get(rule, 0) != want:
                errors.append(f"{rule} fired {counts.get(rule, 0)} times, "
                              f"the model says {want}")
        return errors

    def servers(self) -> list:
        return [self.server]

    def close(self) -> None:
        self.agent.close()
