"""``two_sites``: two agents joined by a sharded Global Event Detector.

Two autonomous sites (``nyc``, ``tokyo``), each an ``EcaAgent`` over its
own ``SqlServer`` with a ``trades`` table and two primitive rules
(``addT`` on insert, ``delT`` on delete).  All four primitives are
imported into a ``ShardedGed``, which hosts two cross-site global
composites: ``g_seq = nyc.addT SEQ tokyo.addT`` in CHRONICLE and
``g_and = nyc.delT ^ tokyo.delT`` in RECENT.  One connection per site;
one thread issues an interleaved stream to both.  This is the only
workload in which the GED router, its journal, the transport and remote
LED nodes run.

The checks: per-site tables equal a model, each local rule fired once
per triggering statement, and the global firings equal the SEQ/AND
pairings computed here from the interleaved stream.
"""

from __future__ import annotations

from repro.agent import EcaAgent
from repro.ged import ShardedGed
from repro.sqlengine import SqlServer

from harness import (READ, SCAN, WRITE, Op, Workload, balanced_kinds,
                     check_against_model, rows_equal, strata)

SITES = ("nyc", "tokyo")
SYMBOLS = 24
LIVE = 120
#: The first HOT trades of a site are never deleted; point reads draw
#: from them, so read text repeats and hits the plan cache.
HOT = 40

#: Timed ops per site and round, by class.
TIMED = {"insert": 110, "delete": 110, "update": 40, "read": 240, "scan": 40}
WARMUP = {"insert": 15, "delete": 15, "update": 5, "read": 30, "scan": 5}

RULES = [
    "create trigger t_addT on trades for insert event addT "
    "as insert fired values ('t_addT')",
    "create trigger t_delT on trades for delete event delT "
    "as insert fired values ('t_delT')",
]


class TwoSites(Workload):
    name = "two_sites"

    def __init__(self, rng):
        super().__init__(rng)
        self.trades = [{} for _ in SITES]
        self.next_id = [0 for _ in SITES]
        for s in range(len(SITES)):
            for _ in range(LIVE):
                self._new_trade(s)
        self.preload = [{i: tuple(row) for i, row in t.items()}
                        for t in self.trades]
        self.local = [{"t_addT": 0, "t_delT": 0} for _ in SITES]
        self.expected_global = {"g_seq": 0, "g_and": 0}
        self._seq_pending = 0
        self._del_seen = [0, 0]
        self.warmup = self._interleave(WARMUP)
        self.timed = self._interleave(TIMED)

    def _new_trade(self, s: int) -> int:
        trade_id = self.next_id[s]
        self.next_id[s] += 1
        self.trades[s][trade_id] = [f"Z{self.rng.randrange(SYMBOLS):02d}",
                                    self.rng.randrange(1, 1000)]
        return trade_id

    def _raise(self, s: int, event: str) -> None:
        """Advance the model of the local and global rules."""
        self.local[s]["t_" + event] += 1
        if event == "addT":
            if s == 0:
                self._seq_pending += 1
            elif self._seq_pending:
                # CHRONICLE SEQ: a tokyo insert pairs with the oldest
                # unconsumed nyc insert.
                self.expected_global["g_seq"] += 1
                self._seq_pending -= 1
        else:
            # RECENT AND: fires once the other site's delete has occurred.
            if self._del_seen[1 - s]:
                self.expected_global["g_and"] += 1
            self._del_seen[s] += 1

    def _interleave(self, counts) -> list[Op]:
        """Both sites' op kinds, shuffled into one stream."""
        rng = self.rng
        kinds = []
        self._floors = []
        for s in range(len(SITES)):
            kinds.extend((s, k) for k in balanced_kinds(
                rng, counts, len(self.trades[s]) - HOT, "insert", "delete"))
            self._floors.append(strata(rng, 0, 900, counts["scan"]))
        # Interleave while keeping each site's (balanced) order.
        order = [s for s, _ in kinds]
        rng.shuffle(order)
        per_site = [[k for s2, k in kinds if s2 == s] for s in range(len(SITES))]
        cursor = [0] * len(SITES)
        ops = []
        for s in order:
            kind = per_site[s][cursor[s]]
            cursor[s] += 1
            ops.append(self._op(s, kind))
            ops[-1].label = kind
        return ops

    def _op(self, s: int, kind: str) -> Op:
        rng = self.rng
        mine = self.trades[s]
        if kind == "insert":
            trade_id = self._new_trade(s)
            sym, qty = mine[trade_id]
            self._raise(s, "addT")
            return Op(WRITE, f"insert trades values ({trade_id}, '{sym}', "
                             f"{qty})", target=s)
        if kind == "delete":
            ids = list(mine)[HOT:]
            victim = ids[rng.randrange(len(ids))]
            del mine[victim]
            self._raise(s, "delT")
            return Op(WRITE, f"delete trades where id = {victim}", target=s)
        if kind == "update":
            ids = list(mine)
            trade_id = ids[rng.randrange(len(ids))]
            qty = mine[trade_id][1] = rng.randrange(1, 1000)
            return Op(WRITE, f"update trades set qty = {qty} "
                             f"where id = {trade_id}", target=s)
        if kind == "read":
            trade_id = list(mine)[rng.randrange(HOT)]
            return Op(READ, f"select sym, qty from trades where id = {trade_id}",
                      target=s, meta=[list(mine[trade_id])])
        floor = self._floors[s].pop()
        groups = {}
        for sym, qty in mine.values():
            if qty > floor:
                g = groups.setdefault(sym, [0, 0])
                g[0] += 1
                g[1] += qty
        return Op(SCAN, "select sym, count(*), sum(qty) from trades "
                        f"where qty > {floor} group by sym", target=s,
                  meta=[[k, c, q] for k, (c, q) in groups.items()])

    def setup(self) -> None:
        self.agents = []
        self.conns = []
        for s, site in enumerate(SITES):
            server = SqlServer(default_database=f"{site}db")
            agent = EcaAgent(server)
            conn = agent.connect(user="trader", database=f"{site}db")
            conn.execute("create table trades (id int not null, "
                         "sym varchar(8) not null, qty int not null)")
            conn.execute("create index ix_trades_id on trades (id)")
            conn.execute("create table fired (rule varchar(8) not null)")
            conn.execute("\n".join(
                f"insert trades values ({i}, '{sym}', {qty})"
                for i, (sym, qty) in self.preload[s].items()))
            for rule in RULES:
                conn.execute(rule)
            self.agents.append(agent)
            self.conns.append(conn)
        self.ged_ = ShardedGed()
        for site, agent in zip(SITES, self.agents):
            self.ged_.add_site(site, agent)
        names = {(site, event): self.ged_.import_event(
                     site, f"{site}db.trader.{event}")
                 for site in SITES for event in ("addT", "delT")}
        self.ged_.define_global_event(
            "g_seq", f"({names['nyc', 'addT']} SEQ {names['tokyo', 'addT']})")
        self.ged_.define_global_event(
            "g_and", f"({names['nyc', 'delT']} AND {names['tokyo', 'delT']})")
        self.ged_.add_global_rule("r_seq", "g_seq", context="CHRONICLE")
        self.ged_.add_global_rule("r_and", "g_and", context="RECENT")

    def execute(self, op: Op):
        return self.conns[op.target].execute(op.sql)

    def check(self, warm, log) -> list[str]:
        errors = check_against_model(warm, log)
        for s, conn in enumerate(self.conns):
            table = conn.execute("select id, sym, qty from trades").last.rows
            model = [[i, sym, qty] for i, (sym, qty) in self.trades[s].items()]
            if not rows_equal(table, model):
                errors.append(f"final {SITES[s]} trades differ from the model")
            counts = dict(conn.execute("select rule, count(*) from fired "
                                       "group by rule").last.rows)
            for rule, want in self.local[s].items():
                if counts.get(rule, 0) != want:
                    errors.append(f"{SITES[s]} {rule} fired "
                                  f"{counts.get(rule, 0)} times, expected {want}")
        fired = {"g_seq": 0, "g_and": 0}
        for firing in self.ged_.firings:
            fired[firing.event_name] += 1
        if fired != self.expected_global:
            errors.append(f"global firings {fired}, the stream's pairings "
                          f"give {self.expected_global}")
        return errors

    def servers(self) -> list:
        return [agent.server for agent in self.agents]

    def ged(self):
        return self.ged_

    def close(self) -> None:
        self.ged_.close()
        for agent in self.agents:
            agent.close()
