"""Load generators for the three workloads.

All three run in the benchmark's own process, apart from the host
process under test, and speak the v3 binary framing: the closed loops
through ``repro.connect()`` (which negotiates it), the open loop
through a small pipelined client built on ``repro.service.protocol``.

Every generator calls ``window.start()`` and ``window.stop()`` around
its timed phase (after any warm-up) and returns a :class:`LoadResult`:
what was sent and answered per series (for the oracle), request
latencies, and the timed window in ``time.perf_counter()`` seconds, a
clock shared by every process on the host.
"""

from __future__ import annotations

import asyncio
import collections
import math
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

import repro
from repro.service import protocol
from repro.service.client import ServiceError

from inputs import SeriesSource, to_wire_rows, values_map

_now = time.perf_counter


class LoadResult:
    """What one workload sent, what came back, and how long it took."""

    def __init__(self, modules: List[str]):
        self.modules = modules
        #: series -> accepted rows, in the order the series voted them.
        self.rows: Dict[str, List[np.ndarray]] = collections.defaultdict(list)
        #: series -> answered values (None for a missing result), same order.
        self.values: Dict[str, List[Optional[float]]] = collections.defaultdict(list)
        self.latencies: List[float] = []  # seconds, timed requests
        self.rounds = 0  # rounds answered in the timed window
        self.attempted = 0  # requests sent in the timed window
        self.failed = 0  # requests that failed (not stop-signal refusals)
        self.window = (0.0, 0.0)
        self.extra: Dict[str, object] = {}

    @property
    def elapsed(self) -> float:
        return self.window[1] - self.window[0]

    def accept(self, series: str, row: np.ndarray, result: Dict) -> None:
        self.rows[series].append(row)
        self.values[series].append(result["value"])


#: The traced run's ``fuse.rounds_per_s`` fuses a fixed slice of the
#: workload's own series: the first 400 rounds of its first 64 series.
#: Short series would time engine construction per call instead of the
#: kernel, and that swings twice as much between runs on a shared host.
FUSE_SERIES, FUSE_ROUNDS = 64, 400


def fuse_inputs(workload: str, seed: int) -> Tuple[List[np.ndarray], List[str]]:
    """The matrices of the workload's ``repro.fuse()`` baseline."""
    source = SeriesSource(seed, SOURCE_SERIES[workload])
    matrices = [source.rows(k, 0, FUSE_ROUNDS) for k in range(FUSE_SERIES)]
    return matrices, source.modules


# -- closed loops over one gateway connection --------------------------------


def _closed_loop(addr, result: LoadResult, requests, warmup: int,
                 seconds: float, window):
    """Send ``requests`` one at a time; the first ``warmup`` are untimed."""
    with repro.connect(tuple(addr)) as client:
        started = None
        deadline = math.inf
        for index, (batches, rows) in enumerate(requests):
            if index == warmup:
                window.start()
                started = _now()
                deadline = started + seconds
            elif index > warmup and _now() >= deadline:
                break
            timed = started is not None
            t0 = _now()
            try:
                answers = client.vote_batch(batches)
            except ServiceError:
                result.failed += 1
                if timed:
                    result.attempted += 1
                continue
            t1 = _now()
            for batch, answer, batch_rows in zip(batches, answers, rows):
                for row, entry in zip(batch_rows, answer["results"]):
                    result.accept(batch["series"], row, entry)
            if timed:
                result.attempted += 1
                result.latencies.append(t1 - t0)
                result.rounds += sum(len(b["rounds"]) for b in batches)
        result.window = (started, _now())
        window.stop()
    return result


def batch_replay(addr, gateway, seed: int, seconds: float, window) -> LoadResult:
    """64 resident series of 400-round windows, 16 series x 50 rounds
    per ``vote_batch``; later passes continue the same series."""
    n_series, pass_rounds, chunk, per_request = 64, 400, 50, 16
    source = SeriesSource(seed, SOURCE_SERIES["batch_replay"])
    result = LoadResult(source.modules)
    names = [f"replay-{k}" for k in range(n_series)]

    def requests():
        start = 0
        while True:
            rows = {k: source.rows(k, start, pass_rounds) for k in range(n_series)}
            for lo in range(0, pass_rounds, chunk):
                rounds = list(range(start + lo, start + lo + chunk))
                for g in range(0, n_series, per_request):
                    members = range(g, g + per_request)
                    batches = [
                        {"series": names[k], "rounds": rounds,
                         "modules": source.modules,
                         "rows": to_wire_rows(rows[k][lo:lo + chunk])}
                        for k in members
                    ]
                    yield batches, [rows[k][lo:lo + chunk] for k in members]
            start += pass_rounds

    # The first chunk of every series is the warm-up: engines and
    # store entries are created before timing starts.
    return _closed_loop(
        addr, result, requests(), n_series // per_request, seconds, window
    )


#: fleet_churn geometry.
FLEET_SERIES = 4096
FLEET_PER_REQUEST = 64
FLEET_ZIPF = 1.2
FLEET_HOT_BOUND = 256


def fleet_churn(addr, gateway, seed: int, seconds: float, window) -> LoadResult:
    """4096 series with Zipf(1.2) popularity, 64 distinct series x 1
    round per ``vote_batch``; shards keep only 256 series resident."""
    source = SeriesSource(seed, FLEET_SERIES)
    result = LoadResult(source.modules)
    rng = np.random.default_rng([seed, 0xF1EE7])
    weights = 1.0 / np.arange(1, FLEET_SERIES + 1) ** FLEET_ZIPF
    popularity = weights / weights.sum()
    rank = rng.permutation(FLEET_SERIES)  # which series is how popular
    next_round = np.zeros(FLEET_SERIES, dtype=int)
    warm = rng.permutation(FLEET_SERIES)
    warmup = FLEET_SERIES // FLEET_PER_REQUEST

    def build(members):
        batches, rows = [], []
        for k in members:
            row = source.rows(int(k), int(next_round[k]), 1)
            batches.append(
                {"series": f"fleet-{k}", "rounds": [int(next_round[k])],
                 "modules": source.modules, "rows": to_wire_rows(row)}
            )
            rows.append(row)
            next_round[k] += 1
        return batches, rows

    def requests():
        # Warm-up: every series votes once, so each shard knows all of
        # them and the timed phase sees rehydrates, not first votes.
        for lo in range(0, FLEET_SERIES, FLEET_PER_REQUEST):
            yield build(warm[lo:lo + FLEET_PER_REQUEST])
        while True:
            picks = rng.choice(
                FLEET_SERIES, FLEET_PER_REQUEST, replace=False, p=popularity
            )
            yield build(rank[picks])

    return _closed_loop(addr, result, requests(), warmup, seconds, window)


# -- open loop of single votes into the ingest tier -------------------------

#: UC-1 sampling rate: each series votes every 125 ms.
SENSOR_HZ = 8.0
#: Latency limit on the ladder: p99 <= one sampling period.
LIMIT_S = 1.0 / SENSOR_HZ
#: Series of the fixed-rate latency probe (256 votes/s).
PROBE_SERIES = 32
#: Series counts of the ladder: 64 * 2**(k/3), ~1.26x steps from 512 votes/s.
LADDER = [int(round(64 * 2 ** (k / 3))) for k in range(10)]
#: Geometric refinement steps between the last passing and the first
#: failing ladder step (two halve the 1.26x gap to ~1.06x).
REFINE_STEPS = 2
#: Sensors of the closed-loop phase, each awaiting its reply; the phase
#: runs for ``--seconds``.
CLOSED_SENSORS = 112
#: The open-loop steps that follow (probe, ladder, retries, refinement:
#: about ten) last ``seconds / STEP_DIVISOR`` each.
STEP_DIVISOR = 20
#: Connections the generator opens (at most nproc on the reference host).
SENSOR_CONNECTIONS = 2


class _Conn:
    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer
        self.outstanding: "collections.deque" = collections.deque()


async def _read_frame(reader) -> Dict:
    header = await reader.readexactly(protocol.FRAME_HEADER.size)
    length = protocol.decode_frame_header(header)
    return protocol.decode_frame_payload(await reader.readexactly(length))


async def _open(addr) -> _Conn:
    reader, writer = await asyncio.open_connection(addr[0], addr[1])
    # The same handshake repro.connect() makes: hello as a JSON line,
    # then binary frames once the peer advertises them.
    writer.write(protocol.encode_message({"op": "hello", "version": 3}))
    reply = protocol.decode_message(await reader.readline())
    if not (reply.get("ok") and reply.get("binary_framing")):
        raise RuntimeError(f"ingest tier refused the v3 handshake: {reply}")
    return _Conn(reader, writer)


class Step:
    """One stretch of sensor load: the closed loop, or one fixed-rate
    open-loop step."""

    def __init__(self, n_series: int, kind: str):
        self.n_series = n_series
        self.kind = kind  # "closed" | "probe" | "ladder" | "retry" | "refine"
        self.rate = n_series * SENSOR_HZ
        self.latencies: List[float] = []
        self.lags: List[float] = []
        self.refused = 0
        self.errors = 0
        self.sent = 0
        self.backlog = 0
        self.window = (0.0, 0.0)

    def passed(self) -> bool:
        """p99 within the limit, nothing refused, no growing backlog."""
        if self.refused or self.errors or not self.latencies:
            return False
        if self.backlog > self.rate * LIMIT_S:
            return False
        return float(np.percentile(self.latencies, 99)) <= LIMIT_S


def _warm_up(gateway, source: SeriesSource, result: LoadResult, next_round):
    """Round 0 of every series, straight to the gateway, untimed: the
    timed phases then measure voting, not first-vote engine creation."""
    rows = [source.rows(k, 0, 1) for k in range(len(next_round))]
    batches = [
        {"series": f"sensor-{k}", "rounds": [0], "modules": source.modules,
         "rows": to_wire_rows(row)}
        for k, row in enumerate(rows)
    ]
    with repro.connect(tuple(gateway)) as client:
        answers = client.vote_batch(batches)
    for k, (answer, row) in enumerate(zip(answers, rows)):
        result.accept(f"sensor-{k}", row, answer["results"][0])
        next_round[k] = 1


class _SensorLoad:
    """Sensors voting single rounds over the generator's connections."""

    def __init__(self, source: SeriesSource, seed: int, closed_seconds: float,
                 step_seconds: float, result: LoadResult):
        self.source = source
        self.closed_seconds = closed_seconds
        self.step_seconds = step_seconds
        self.result = result
        rng = np.random.default_rng([seed, 0x5E45])
        self.phases = rng.random(LADDER[-1]) / SENSOR_HZ  # independent sensors
        self.next_round = [0] * LADDER[-1]
        self.sent_at: Dict[Tuple[str, int], float] = {}
        self.steps: List[Step] = []
        self.conns: List[_Conn] = []

    async def reader_loop(self, conn: _Conn) -> None:
        while True:
            try:
                reply = await _read_frame(conn.reader)
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            done = _now()
            step, series, row, due, waiter = conn.outstanding.popleft()
            if reply.get("ok"):
                step.latencies.append(done - due)
                self.result.accept(series, row, reply["result"])
            elif reply.get("code") == protocol.ErrorCode.BACKPRESSURE.value:
                step.refused += 1
            else:
                step.errors += 1
            if waiter is not None:
                waiter.set_result(None)

    async def run_step(self, n_series: int, kind: str) -> Step:
        step = Step(n_series, kind)
        self.steps.append(step)
        # Build this step's schedule and frames before it starts.
        schedule = []
        for k in range(n_series):
            phase = self.phases[k]
            count = int(math.ceil((self.step_seconds - phase) * SENSOR_HZ))
            rows = self.source.rows(k, self.next_round[k], count)
            for j in range(count):
                number = self.next_round[k] + j
                frame = protocol.encode_frame(
                    {"op": "vote", "series": f"sensor-{k}", "round": number,
                     "values": values_map(self.source.modules, rows[j])}
                )
                schedule.append((phase + j / SENSOR_HZ, k, number, rows[j], frame))
            self.next_round[k] += count
        schedule.sort(key=lambda item: item[0])
        t0 = _now()
        for due_offset, k, number, row, frame in schedule:
            due = t0 + due_offset
            delay = due - _now()
            if delay > 0:
                await asyncio.sleep(delay)
            conn = self.conns[k % SENSOR_CONNECTIONS]
            series = f"sensor-{k}"
            conn.outstanding.append((step, series, row, due, None))
            conn.writer.write(frame)
            sent = _now()
            step.lags.append(sent - due)
            self.sent_at[(series, number)] = sent
            step.sent += 1
        # Backlog at the end of the step: votes still unanswered.
        await asyncio.sleep(max(0.0, t0 + self.step_seconds - _now()))
        step.backlog = sum(len(c.outstanding) for c in self.conns)
        deadline = _now() + 30.0
        while any(c.outstanding for c in self.conns) and _now() < deadline:
            await asyncio.sleep(0.005)
        return step

    async def run_closed(self, n_clients: int, seconds: float) -> Step:
        """Each of ``n_clients`` sensors sends its next reading as soon
        as its previous one is answered, for ``seconds``."""
        step = Step(n_clients, "closed")
        self.steps.append(step)
        loop = asyncio.get_running_loop()
        deadline = _now() + seconds

        async def sensor(k: int) -> None:
            conn = self.conns[k % SENSOR_CONNECTIONS]
            series = f"sensor-{k}"
            while _now() < deadline:
                number = self.next_round[k]
                self.next_round[k] += 1
                row = self.source.rows(k, number, 1)[0]
                frame = protocol.encode_frame(
                    {"op": "vote", "series": series, "round": number,
                     "values": values_map(self.source.modules, row)}
                )
                waiter = loop.create_future()
                sent = _now()
                conn.outstanding.append((step, series, row, sent, waiter))
                conn.writer.write(frame)
                self.sent_at[(series, number)] = sent
                step.sent += 1
                await waiter

        started = _now()
        await asyncio.gather(*(sensor(k) for k in range(n_clients)))
        step.window = (started, _now())
        return step

    async def confirmed(self, n_series: int, kind: str) -> bool:
        """Run a step; a failing step is run once more before it counts,
        so one transient stall does not end the search."""
        if (await self.run_step(n_series, kind)).passed():
            return True
        return (await self.run_step(n_series, "retry")).passed()

    async def search(self, best: int) -> int:
        """Highest passing series count above ``best``: ladder, then
        refinement."""
        index = 0
        while index < len(LADDER) and await self.confirmed(LADDER[index], "ladder"):
            best, index = LADDER[index], index + 1
        if index == len(LADDER):
            return best
        low = best or PROBE_SERIES
        high = LADDER[index]
        for _ in range(REFINE_STEPS):
            middle = int(round(math.sqrt(low * high)))
            if middle in (low, high):
                break
            if await self.confirmed(middle, "refine"):
                low = best = middle
            else:
                high = middle
        return best


async def _sensor_stream(addr, gateway, loop: _SensorLoad, window) -> LoadResult:
    result = loop.result
    loop.conns = [await _open(addr) for _ in range(SENSOR_CONNECTIONS)]
    readers = [asyncio.ensure_future(loop.reader_loop(c)) for c in loop.conns]
    _warm_up(gateway, loop.source, result, loop.next_round)
    window.start()
    started = _now()
    closed = await loop.run_closed(CLOSED_SENSORS, loop.closed_seconds)
    probe = await loop.run_step(PROBE_SERIES, "probe")
    # A passing probe is the floor should even the first ladder step fail.
    sustained = await loop.search(PROBE_SERIES if probe.passed() else 0)
    result.window = (started, _now())
    window.stop()
    for conn in loop.conns:
        conn.writer.close()
    for task in readers:
        task.cancel()
    await asyncio.gather(*readers, return_exceptions=True)

    steps = loop.steps
    result.extra = {
        "steps": steps,
        "closed": closed,
        "probe": probe,
        "first": next(s for s in steps if s.kind == "ladder"),
        "sustained_votes_per_s": sustained * SENSOR_HZ,
        "sent_at": loop.sent_at,
    }
    result.attempted = sum(s.sent for s in steps)
    result.rounds = sum(len(s.latencies) for s in steps)
    # Refusals on a failing step are its stop signal; any other error is
    # a failure (a passing step has no refusals by definition).
    result.failed = sum(s.errors for s in steps) + closed.refused
    result.latencies = closed.latencies
    return result


def sensor_stream(addr, gateway, seed: int, seconds: float, window) -> LoadResult:
    """Single votes into the ingest tier.  First a closed loop: 64
    sensors, each sending its next reading when the last is answered
    (the end-to-end metrics).  Then an open loop, each series at 8 Hz:
    a fixed-rate latency probe and a ladder of series counts until p99
    exceeds 125 ms, a vote is refused, or the backlog grows (reported
    per layer: on a shared 2-vCPU host its rates swing too far between
    runs to hold a bound)."""
    source = SeriesSource(seed, LADDER[-1])
    result = LoadResult(source.modules)
    loop = _SensorLoad(source, seed, seconds, seconds / STEP_DIVISOR, result)
    return asyncio.run(_sensor_stream(addr, gateway, loop, window))


#: Series each workload's input source is built for.
SOURCE_SERIES = {
    "batch_replay": 64,
    "sensor_stream": LADDER[-1],
    "fleet_churn": FLEET_SERIES,
}
