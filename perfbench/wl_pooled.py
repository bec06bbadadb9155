"""``pooled_sessions``: two sessions into a 2-worker gateway pool.

One load thread feeds two gateway sessions with ``submit_for``, one
command in flight per session, into a pool of two workers.  Both
sessions write ``trades``, which carries an IMMEDIATE rule (``t_book``,
books every new trade) and a DETACHED rule (``t_notify``, one action
thread per new trade) on the same primitive event.  This is the only
workload that runs session queues, the ``WorkerPool``, the engine's
shared/exclusive lock gate and DETACHED action threads.

Each session reads and scans only its own rows (and a static
``instruments`` table), so every result is fixed by its own FIFO stream
whatever the interleaving; the final tables and the firing counts are
checked against a model of both streams.
"""

from __future__ import annotations

from repro.agent import EcaAgent
from repro.sqlengine import SqlServer

from harness import (READ, SCAN, WRITE, Op, Workload, balanced_kinds,
                     check_against_model, rows_equal, strata)

SESSIONS = 2
SYMBOLS = 16
INSTRUMENTS = 200
SECTORS = 10
#: Live trades per session after the preload.
LIVE = 150
#: The first HOT trades of a session are never deleted; point reads
#: draw from them, so read text repeats and hits the plan cache.
HOT = 32

#: Timed ops per session and round, by class.
TIMED = {"insert": 85, "delete": 85, "update": 50, "read": 230,
         "scan_own": 15, "scan_instruments": 35}
WARMUP = {"insert": 10, "delete": 10, "update": 5, "read": 20,
          "scan_own": 3, "scan_instruments": 3}

RULES = [
    "create trigger t_book on trades for insert event newTrade "
    "as insert booked values (1)",
    "create trigger t_notify event newTrade DETACHED "
    "as insert notified values (1)",
]


class PooledSessions(Workload):
    name = "pooled_sessions"
    sessions = SESSIONS

    def __init__(self, rng):
        super().__init__(rng)
        self.instruments = [(i, f"sec{rng.randrange(SECTORS)}",
                             rng.randrange(1, 500)) for i in range(INSTRUMENTS)]
        #: per session: trade id -> [sym, qty]
        self.trades = [{} for _ in range(SESSIONS)]
        self.next_id = [s * 1_000_000 for s in range(SESSIONS)]
        for s in range(SESSIONS):
            for _ in range(LIVE):
                self._new_trade(s)
        self.preload = {s: {i: tuple(row) for i, row in t.items()}
                        for s, t in enumerate(self.trades)}
        self.inserts = 0
        self.warmup = self._interleave(WARMUP)
        self.timed = self._interleave(TIMED)

    def _new_trade(self, s: int) -> int:
        trade_id = self.next_id[s]
        self.next_id[s] += 1
        self.trades[s][trade_id] = [f"Y{self.rng.randrange(SYMBOLS):02d}",
                                    self.rng.randrange(1, 1000)]
        return trade_id

    def _interleave(self, counts) -> list[Op]:
        """Each session's stream, generated apart; the drive keeps one op
        of each in flight, so the list order only fixes per-session
        order."""
        streams = [self._stream(s, counts) for s in range(SESSIONS)]
        return [op for pair in zip(*streams) for op in pair]

    def _stream(self, s: int, counts) -> list[Op]:
        rng = self.rng
        mine = self.trades[s]
        ops = []
        hot = list(mine)[:HOT]
        floors = strata(rng, 0, 450, counts["scan_instruments"])
        for kind in balanced_kinds(rng, counts, len(mine) - HOT,
                                   "insert", "delete"):
            if kind == "insert":
                trade_id = self._new_trade(s)
                sym, qty = mine[trade_id]
                ops.append(Op(WRITE, f"insert trades values ({trade_id}, {s}, "
                                     f"'{sym}', {qty})", target=s))
                self.inserts += 1
            elif kind == "delete":
                ids = list(mine)[HOT:]
                victim = ids[rng.randrange(len(ids))]
                del mine[victim]
                ops.append(Op(WRITE, f"delete trades where id = {victim}",
                              target=s))
            elif kind == "update":
                ids = list(mine)
                trade_id = ids[rng.randrange(len(ids))]
                qty = mine[trade_id][1] = rng.randrange(1, 1000)
                ops.append(Op(WRITE, f"update trades set qty = {qty} "
                                     f"where id = {trade_id}", target=s))
            elif kind == "read":
                trade_id = hot[rng.randrange(HOT)]
                ops.append(Op(READ, "select sym, qty from trades "
                                    f"where id = {trade_id}", target=s,
                              meta=[list(mine[trade_id])]))
            elif kind == "scan_own":
                groups = {}
                for sym, qty in mine.values():
                    g = groups.setdefault(sym, [0, 0])
                    g[0] += 1
                    g[1] += qty
                ops.append(Op(SCAN, "select sym, count(*), sum(qty) from trades "
                                    f"where sess = {s} group by sym", target=s,
                              meta=[[k, c, q] for k, (c, q) in groups.items()]))
            else:  # scan_instruments
                floor = floors.pop()
                groups = {}
                for _i, sector, lot in self.instruments:
                    if lot > floor:
                        groups[sector] = groups.get(sector, 0) + lot
                ops.append(Op(SCAN, "select sector, sum(lot) from instruments "
                                    f"where lot > {floor} group by sector",
                              target=s,
                              meta=[[k, v] for k, v in groups.items()]))
            ops[-1].label = kind
        return ops

    def setup(self) -> None:
        self.server = SqlServer(default_database="desk")
        self.agent = EcaAgent(self.server, workers=2)
        gateway = self.agent.gateway
        self.handles = [gateway.open_session("trader", "desk")
                        for s in range(SESSIONS)]
        run = self.execute_on(0)
        run("create table trades (id int not null, sess int not null, "
            "sym varchar(8) not null, qty int not null)")
        run("create index ix_trades_id on trades (id)")
        run("create table instruments (id int not null, "
            "sector varchar(8) not null, lot int not null)")
        run("create table booked (n int not null)")
        run("create table notified (n int not null)")
        run("\n".join(f"insert instruments values ({i}, '{sec}', {lot})"
                      for i, sec, lot in self.instruments))
        for s, rows in self.preload.items():
            run("\n".join(f"insert trades values ({i}, {s}, '{sym}', {qty})"
                          for i, (sym, qty) in rows.items()))
        for rule in RULES:
            run(rule)

    def execute_on(self, s: int):
        gateway = self.agent.gateway
        session = self.handles[s]
        return lambda sql: gateway.execute_for(session, sql)

    def submit(self, op: Op):
        return self.agent.gateway.submit_for(self.handles[op.target], op.sql)

    def quiesce(self) -> None:
        self.agent.action_handler.join_detached(timeout=30.0)

    def check(self, warm, log) -> list[str]:
        errors = check_against_model(warm, log)
        run = self.execute_on(0)
        table = run("select id, sess, sym, qty from trades").last.rows
        model = [[i, s, sym, qty] for s, rows in enumerate(self.trades)
                 for i, (sym, qty) in rows.items()]
        if not rows_equal(table, model):
            errors.append("final trades table differs from the model")
        for table_name in ("booked", "notified"):
            count = run(f"select count(*) from {table_name}").last.rows[0][0]
            if count != self.inserts:
                errors.append(f"{table_name} has {count} rows for "
                              f"{self.inserts} triggering inserts")
        return errors

    def servers(self) -> list:
        return [self.server]

    def close(self) -> None:
        self.agent.close()
