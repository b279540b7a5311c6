"""``campaign_serve``: cold sweep, cached replay, then ``repro serve``.

Three phases on one result store and run cache:

1. a cold ``CampaignEngine.run_sweep`` over Frontier grids
   {8,16,32,48,64,96} x the 5 broadcasts x {no scenario, the straggler
   fleet}, 60 jobs, run inline by one worker; untraced, it runs
   ``COLD_SWEEPS`` times, each on a fresh store and cache, and the last
   one's store and cache serve the next phases;
2. cached replays of the same sweep through a fresh queue, which must be
   100% cache hits and leave ``ResultStore.snapshot()`` unchanged;
3. ``repro serve`` as its own process on loopback, fed by an open-loop
   client at a fixed rate: cache-hit ``POST /run`` and
   ``GET /results/<key>``, plus a seeded share of new jobs the server
   must compute.

The sweep is a fixed matrix, so its results are pinned; the seed draws
the serve traffic (which keys, which endpoint, which requests are new
jobs, and the new jobs themselves).  The analytic ``model`` does almost
all of the cold sweep; no DES runs.  A new job's model computation holds
the server's interpreter lock, which is what makes cache-hit tail
latency depend on the miss share.
"""

from __future__ import annotations

import dataclasses
import hashlib
import http.client
import json
import os
import queue
import random
import re
import select
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from perfbench import harness, layers
from perfbench.harness import Context, Outcome
from perfbench.stats import median, percentile, summarize
from perfbench.trace import SpanRecorder

INPUTS = Path(__file__).resolve().parents[1] / "inputs"
GRIDS = (8, 16, 32, 48, 64, 96)
BCASTS = ("bcast", "ibcast", "ring1", "ring1m", "ring2m")
#: open-loop request rate and the share of requests that are new jobs.
#: This is the mix that showed a new job's model computation holding the
#: server's interpreter lock: on a 2-vCPU VM, hits alone at 100 req/s
#: had a p99 of 2.6-7 ms, and at 20 req/s with 20% new jobs the hits'
#: p99 rose to 62-185 ms.  Splitting the hits evenly between
#: ``POST /run`` and ``GET /results/<key>`` is an assumption.
RATE_PER_S = 20.0
MISS_SHARE = 0.2
#: client connections in flight at once (never more than the CPUs)
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
#: the sweep runs inline: one process gives steadier timings on a small
#: shared machine than a pool, and lets the traced run's wrappers see
#: every call
WORKERS = 1
REPLAYS = 3
#: cold sweeps per untraced run; run_wall_s is their median wall
COLD_SWEEPS = 3
#: server start-ups timed during set-up; one more is the serving one
SERVER_STARTS = 4
#: computed rows re-derived in this process to check the server's body
RECOMPUTE_SAMPLE = 2
MIN_SERVE_S = 6.0


def sweep_jobs():
    from repro.campaign import SweepSpec

    return SweepSpec(
        machine="frontier", grids=list(GRIDS), bcasts=list(BCASTS),
        scenarios=[None, str(INPUTS / "straggler_fleet.json")],
    ).expand()


def sweep_digest(store) -> str:
    """Hash of every row's deterministic body, keyed by job label.

    Leaves out the key and code version (which change with the package
    version) and the volatile ``meta`` block.
    """
    body = sorted(
        (row["label"], {k: v for k, v in row.items()
                        if k not in ("key", "code", "meta")})
        for row in store.snapshot().values()
    )
    blob = json.dumps(body, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# -- the server process --------------------------------------------------------

class Server:
    """``repro serve --port 0`` in its own unbuffered interpreter."""

    def __init__(self, store: Path, cache: Path, log: Path) -> None:
        self._log = open(log, "ab")
        t0 = time.perf_counter()
        # -u: the serve command prints its bound address and then blocks
        # without flushing.
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.cli", "serve",
             "--host", "127.0.0.1", "--port", "0",
             "--store", str(store), "--cache-dir", str(cache)],
            cwd=harness.ROOT, env=harness.child_env(),
            stdout=subprocess.PIPE, stderr=self._log,
        )
        try:
            self.port = self._read_port(deadline=time.monotonic() + 60)
            status, _h, _b = request(self.port, "GET", "/healthz")
            if status != 200:
                raise RuntimeError(f"/healthz answered {status}")
        except BaseException:
            self.stop()
            raise
        self.start_s = time.perf_counter() - t0

    def _read_port(self, deadline: float) -> int:
        buf = b""
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    break
                buf += chunk
                m = re.search(rb"http://127\.0\.0\.1:(\d+)", buf)
                if m:
                    return int(m.group(1))
            elif self.proc.poll() is not None:
                break
        raise RuntimeError(f"repro serve did not report its port: {buf!r}")

    def peak_rss_mb(self) -> float:
        return harness.peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """Terminate the server, wait for it, and free its port.

        SIGTERM, not SIGINT: a process started from a background shell
        job inherits SIGINT ignored, and the serve command would never
        see the interrupt.  Every store write is already durable.
        """
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        self.proc.stdout.close()
        self._log.close()


def request(port: int, method: str, path: str, body: Optional[dict] = None,
            timeout: float = 60.0) -> Tuple[int, Dict[str, str], bytes]:
    """One HTTP request on a fresh connection (the server speaks 1.0)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        data = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if data else {}
        conn.request(method, path, body=data, headers=headers)
        resp = conn.getresponse()
        return resp.status, dict(resp.getheaders()), resp.read()
    finally:
        conn.close()


# -- the open-loop client ------------------------------------------------------

@dataclass
class Sent:
    """One planned request and what came back."""

    due: float
    kind: str  # "run_hit", "get_hit" or "miss"
    key: str
    job: Optional[dict] = None
    queued: float = 0.0
    done: float = 0.0
    status: int = 0
    source: str = ""
    body: Optional[dict] = None
    error: str = ""


def plan_requests(seed: int, duration: float, hit_keys: List[str],
                  jobs_by_key: Dict[str, dict], code: str) -> List[Sent]:
    """The seeded request schedule for one serve window.

    A new job is a seeded draw from the sweep's own jobs with a job seed
    no stored row has, so it costs the server what a sweep job costs.
    """
    rng = random.Random(seed)
    jobs = sweep_jobs()
    plan = []
    for i in range(int(duration * RATE_PER_S)):
        due = i / RATE_PER_S
        if rng.random() < MISS_SHARE:
            job = dataclasses.replace(rng.choice(jobs),
                                      seed=1_000_000 + seed * 10_000 + i)
            plan.append(Sent(due, "miss", job.key(code), job.to_dict()))
        else:
            key = rng.choice(hit_keys)
            kind = "run_hit" if rng.random() < 0.5 else "get_hit"
            plan.append(Sent(due, kind, key, jobs_by_key[key]))
    return plan


def drive(port: int, plan: List[Sent]) -> float:
    """Send ``plan`` on schedule over ``CONNECTIONS`` connections.

    Returns the schedule's start on the ``perf_counter`` clock.  Each
    request's latency runs from when it was due, so a stalled server
    delays the requests queued behind it as well.
    """
    work: "queue.Queue[Optional[Sent]]" = queue.Queue()

    def worker():
        while True:
            item = work.get()
            if item is None:
                return
            try:
                if item.kind == "get_hit":
                    status, headers, raw = request(
                        port, "GET", f"/results/{item.key}")
                else:
                    status, headers, raw = request(
                        port, "POST", "/run", item.job)
                item.status = status
                item.source = headers.get("X-Repro-Source", "")
                item.body = json.loads(raw)
            except (OSError, ValueError, http.client.HTTPException) as exc:
                item.error = repr(exc)
            item.done = time.perf_counter()

    threads = [threading.Thread(target=worker, daemon=True)
               for _ in range(CONNECTIONS)]
    for th in threads:
        th.start()
    t0 = time.perf_counter()
    for item in plan:
        delay = t0 + item.due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        item.queued = time.perf_counter()
        work.put(item)
    for _ in threads:
        work.put(None)
    for th in threads:
        th.join(timeout=120)
        if th.is_alive():
            raise RuntimeError("serve client did not finish within 120 s")
    return t0


def check_responses(ctx: Context, plan: List[Sent],
                    rows: Dict[str, dict]) -> None:
    """Every response is 2xx, from the expected source, with the right row."""
    from repro.campaign.store import check_result_row

    t = ctx.tally
    for item in plan:
        where = f"{item.kind} {item.key}"
        if item.error or not 200 <= item.status < 300:
            t.record(False, "http", f"{where}: {item.status} {item.error}")
            continue
        if item.kind == "get_hit":
            t.record(item.body == rows[item.key], "row_body",
                     f"{where}: body differs from the stored row")
            continue
        result = item.body.get("result")
        want = "cache" if item.kind == "run_hit" else "computed"
        ok = item.source == want and item.body.get("source") == want
        if item.kind == "run_hit":
            ok = ok and result == rows[item.key]
        else:
            ok = (ok and isinstance(result, dict)
                  and result.get("key") == item.key
                  and not check_result_row(result))
        t.record(ok, "run_response",
                 f"{where}: source {item.source!r}, want {want!r}")


def scrape(port: int) -> Tuple[Dict[str, float], Dict[str, Tuple], dict]:
    """Server-side p50 and (sum, count) per endpoint, plus ``/stats``."""
    status, _h, raw = request(port, "GET", "/metrics")
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    p50: Dict[str, float] = {}
    sums: Dict[str, list] = {}
    for line in raw.decode().splitlines():
        m = re.match(r'serve_latency_s(_sum|_count)?\{endpoint="([^"]+)"'
                     r'(?:,quantile="([^"]+)")?\} (\S+)$', line)
        if not m:
            continue
        suffix, endpoint, q, value = m.groups()
        if suffix:
            sums.setdefault(endpoint, [0.0, 0.0])[suffix == "_count"] = \
                float(value)
        elif q == "0.5":
            p50[endpoint] = float(value)
    status, _h, raw = request(port, "GET", "/stats")
    if status != 200:
        raise RuntimeError(f"/stats answered {status}")
    return p50, {k: tuple(v) for k, v in sums.items()}, json.loads(raw)


# -- the workload --------------------------------------------------------------

def _cold_sweep(ctx: Context, jobs, where: Path, code: str, pin: str,
                rec: Optional[SpanRecorder],
                probe: Optional[harness.SpeedProbe]) -> float:
    """Phase 1: one cold sweep into a fresh store and cache under
    ``where`` (traced as unit 1); returns its wall time.

    Untraced, ``probe`` calibrates after every job, and the sweep's time
    is the sum of its stretches between calibrations, each scaled by the
    calibrations around it (``harness.SpeedProbe``); the calibrations'
    own time is not in it.
    """
    from repro.campaign import CampaignEngine, JobQueue, ResultStore, RunCache

    where.mkdir()
    store = ResultStore(where / "store.jsonl")
    scaled = 0.0
    mark = 0.0

    def stretch() -> None:
        """Scale the stretch since ``mark``; restart it after calibrating."""
        nonlocal scaled, mark
        scaled += probe.scale(time.perf_counter() - mark)
        mark = time.perf_counter()

    def on_complete(_key, _row):
        if probe is not None:
            stretch()

    patcher = layers.install(rec) if rec is not None else None
    try:
        if rec is not None:
            rec.current_unit = 1
        engine = CampaignEngine(store, RunCache(where / "cache"),
                                log=lambda _m: None, workers=WORKERS)
        t0 = mark = time.perf_counter()
        outcome = engine.run_sweep(jobs, JobQueue(where / "queue.json"),
                                   code=code, on_complete=on_complete)
        wall = time.perf_counter() - t0
        if probe is not None:
            stretch()
            wall = scaled
    finally:
        if rec is not None:
            rec.current_unit = 0
        if patcher is not None:
            patcher.undo()
    t = ctx.tally
    for i in range(outcome.total):
        t.record(i >= outcome.failed, "sweep_job",
                 "; ".join(e for _k, e in outcome.errors[:3]))
    t.check("sweep_jobs", outcome.total, len(jobs))
    t.check("sweep_digest", sweep_digest(store), pin)
    return wall


def _replay(ctx: Context, jobs, store, cache, code: str, i: int) -> float:
    """Phase 2: one cached replay through a fresh queue; returns its wall."""
    from repro.campaign import CampaignEngine, JobQueue

    before = store.snapshot()
    engine = CampaignEngine(store, cache, log=lambda _m: None, workers=1)
    t0 = time.perf_counter()
    out = engine.run_sweep(jobs, JobQueue(ctx.work / f"replay-{i}.json"),
                           code=code)
    wall = time.perf_counter() - t0
    ctx.tally.check("replay_hit_ratio", out.cache_hit_ratio, 1.0)
    ctx.tally.record(store.snapshot() == before, "replay_snapshot",
                     "replay changed the store snapshot")
    return wall


@dataclass
class ServeRun:
    """What the serve phase measured."""

    start_s: float
    plan: List[Sent]
    t_sched: float
    server_p50: Dict[str, float]
    server_sums: Dict[str, Tuple]
    stats: dict
    rss_mb: float

    def latencies_ms(self, *kinds: str) -> List[float]:
        """Latency of each answered request of ``kinds``, from when due."""
        return [(p.done - (self.t_sched + p.due)) * 1e3 for p in self.plan
                if p.kind in kinds and p.done]


def _serve(ctx: Context, store_path: Path, cache_dir: Path,
           rows: Dict[str, dict], code: str, duration: float,
           scale: Callable[[float], float]) -> ServeRun:
    """Phase 3: ``repro serve`` on the filled store under open-loop load;
    its start-up time is passed through ``scale``."""
    from repro.campaign.runner import execute_job

    t = ctx.tally
    jobs_by_key = {row["key"]: row["job"] for row in rows.values()}
    srv = Server(store_path, cache_dir, ctx.work / "serve.log")
    try:
        start_s = scale(srv.start_s)
        plan = plan_requests(ctx.seed, duration, sorted(rows), jobs_by_key,
                             code)
        t_sched = drive(srv.port, plan)
        check_responses(ctx, plan, rows)
        computed = [p for p in plan if p.kind == "miss" and p.body
                    and p.status == 200]
        for item in computed:
            status, _h, raw = request(srv.port, "GET", f"/results/{item.key}")
            t.record(status == 200 and json.loads(raw) == item.body["result"],
                     "stored_computed_row",
                     f"{item.key}: stored row differs from the response")
        server_p50, server_sums, stats = scrape(srv.port)
        rss = srv.peak_rss_mb()
    finally:
        srv.stop()
    volatile = ("key", "code", "meta")
    for item in computed[:RECOMPUTE_SAMPLE]:
        local = json.loads(json.dumps(execute_job(item.job, code=code)))
        got = item.body["result"]
        t.record(
            {k: v for k, v in got.items() if k not in volatile}
            == {k: v for k, v in local.items() if k not in volatile},
            "recomputed_row",
            f"{item.key}: server row differs from a local execute_job",
        )
    return ServeRun(start_s, plan, t_sched, server_p50, server_sums,
                    stats, rss)


def run(ctx: Context, pins: Dict) -> Outcome:
    from repro.campaign import ResultStore, RunCache
    from repro.obs.provenance import code_version

    code = code_version()
    work = ctx.work

    # Untraced, times are scaled by the machine's speed around them
    # (harness.SpeedProbe); traced, they are reported as measured.
    probe = None if ctx.trace else harness.SpeedProbe()
    scale = probe.scale if probe is not None else (lambda seconds: seconds)

    # Set-up: start-to-ready of the server, measured on an empty store.
    setup_s = []
    for i in range(SERVER_STARTS):
        srv = Server(work / f"empty-{i}.jsonl", work / f"empty-cache-{i}",
                     work / "serve.log")
        setup_s.append(scale(srv.start_s))
        srv.stop()

    t_window = time.perf_counter()
    jobs = sweep_jobs()
    pin = pins["campaign_serve"]["sweep_digest"]
    rec = SpanRecorder() if ctx.trace else None
    sweep_s = [_cold_sweep(ctx, jobs, work / f"sweep-{i}", code, pin, rec,
                           probe)
               for i in range(1 if rec is not None else COLD_SWEEPS)]
    where = work / f"sweep-{len(sweep_s) - 1}"
    store_path, cache_dir = where / "store.jsonl", where / "cache"
    store, cache = ResultStore(store_path), RunCache(cache_dir)
    replay_s = [scale(_replay(ctx, jobs, store, cache, code, i))
                for i in range(REPLAYS)]
    traced_replay_s: List[float] = []
    if rec is not None:
        patcher = layers.install(rec)
        try:
            for i in range(REPLAYS):
                rec.current_unit = 2 + i
                traced_replay_s.append(
                    _replay(ctx, jobs, store, cache, code, REPLAYS + i))
            rec.current_unit = 0
        finally:
            patcher.undo()

    # The serving server starts on the filled store and is fed for the
    # rest of the window (at least MIN_SERVE_S).
    rows = {k: json.loads(json.dumps(store.get(k))) for k in store.keys()}
    duration = max(MIN_SERVE_S, ctx.seconds - (time.perf_counter() - t_window))
    sv = _serve(ctx, store_path, cache_dir, rows, code, duration, scale)
    setup_s.append(sv.start_s)

    hit_ms = sv.latencies_ms("run_hit", "get_hit")
    hits = summarize(hit_ms)
    misses = sv.latencies_ms("miss")
    ctx.note(f"cold sweeps of {len(jobs)} jobs ({WORKERS} worker) "
             + ", ".join(f"{w:.3f}" for w in sweep_s) + " s; replays "
             + ", ".join(f"{w:.3f}" for w in replay_s) + " s")
    if probe is not None:
        ctx.note(probe.describe())
    ctx.note(f"serve: {len(sv.plan)} requests over {duration:.1f} s at "
             f"{RATE_PER_S:g}/s, {CONNECTIONS} connection(s); hits "
             f"{hits.describe('ms')}; misses n={len(misses)}")
    figures = {
        "sweep_jobs_per_s": (len(jobs) / median(sweep_s), "jobs/s"),
        "cached_jobs_per_s": (len(jobs) / median(replay_s), "jobs/s"),
        "serve_hit_p50_ms": (hits.p50, "ms"),
        "serve_hit_p99_ms": (percentile(hit_ms, 99), "ms"),
        "serve_miss_p50_ms": (median(misses) if misses else 0.0, "ms"),
    }
    out = Outcome()
    if rec is None:
        out.end_to_end = {
            "setup_s": (median(setup_s), "s"),
            "run_wall_s": (median(sweep_s), "s"),
            "peak_rss_mb": (sv.rss_mb, "MB"),
        }
        out.extra = figures
        return out

    table = layers.unit_table(rec, 1 + REPLAYS)
    replays = list(range(2, 2 + REPLAYS))
    gets = sv.latencies_ms("get_hit")
    results_sum, results_count = sv.server_sums.get("/results/{key}",
                                                    (0.0, 0))
    late = [(p.queued - (sv.t_sched + p.due)) * 1e3 for p in sv.plan]
    counters = sv.stats["counters"]
    facts = {
        "campaign.sweep_jobs_per_s": figures["sweep_jobs_per_s"][0],
        "campaign.cached_jobs_per_s": figures["cached_jobs_per_s"][0],
        "campaign.cache_get_s": table.value(replays, "campaign.cache_get",
                                            "incl"),
        "campaign.cache_hit_ratio": (
            table.work_value(replays, "campaign.cache_hits")
            / max(table.work_value(replays, "campaign.cache_lookups"), 1.0)
        ),
        "serve.hit_p50_ms": hits.p50,
        "serve.hit_p99_ms": figures["serve_hit_p99_ms"][0],
        "serve.miss_p50_ms": figures["serve_miss_p50_ms"][0],
        "serve.server_run_p50_ms": sv.server_p50.get("/run", 0.0) * 1e3,
        "serve.server_results_p50_ms":
            sv.server_p50.get("/results/{key}", 0.0) * 1e3,
        # client mean minus server mean over the same /results requests
        "serve.client_overhead_ms": (
            sum(gets) / len(gets) - results_sum / results_count * 1e3
            if gets and results_count else 0.0
        ),
        "serve.generator_late_ms": percentile(late, 99),
        "serve.source_cache": float(counters["cache_hits"]),
        "serve.source_computed": float(counters["computed"]),
        "serve.source_joined": float(counters["joined"]),
        "trace_overhead_ratio": median(traced_replay_s) / median(replay_s),
    }
    out.per_layer = layers.layer_metrics(table, [1], facts)
    path = rec.write(harness.OUT_DIR / f"spans-{ctx.workload}-{ctx.seed}.npz",
                     f"{ctx.workload}/{ctx.seed}")
    ctx.note(f"{len(rec)} spans (sweep + {REPLAYS} traced replays) -> {path}")
    return out
