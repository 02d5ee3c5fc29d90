"""Per-layer metrics of a traced run.

Reads the span files the host and its shards wrote (``tracer.py``), the
generator's own spans, and the load result, and reduces them to the
per-layer metrics listed in ``BENCHMARK.json``.  Everything counts only
inside the workload's timed window (span start within it), so warm-up
and the oracle's queries afterwards are left out.

Every latency comes with its sample count (a ``*_samples`` metric, or
a count metric of the same layer).  A layer the workload does not
exercise reports zeros: ``ingest.*`` outside ``sensor_stream``, for
instance, and ``load.batch_*`` on the open loop.
"""

from __future__ import annotations

import bisect
import glob
import json
import os
from typing import Dict, List, Tuple

import numpy as np

import tracer


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


class Trace:
    """Spans and events of every process, restricted to one window."""

    def __init__(self, dumps: List[Dict], window: Tuple[float, float]):
        self.window = window
        self.spans: Dict[str, List] = {}
        self.events: Dict[str, List[np.ndarray]] = {}
        self.flush_keys: List = []
        self.extra: Dict[str, float] = {}
        for dump in dumps:
            for name, spans in dump["spans"].items():
                self.spans.setdefault(name, []).extend(
                    s for s in spans if self.inside(s[0])
                )
            for name, (t0, seconds, amount) in dump["events"].items():
                t0 = np.asarray(t0)
                keep = (t0 >= window[0]) & (t0 <= window[1])
                parts = self.events.setdefault(name, [[], [], []])
                parts[0].append(t0[keep])
                parts[1].append(np.asarray(seconds)[keep])
                parts[2].append(np.asarray(amount)[keep])
            self.flush_keys.extend(
                k for k in dump.get("flush_keys", ()) if self.inside(k[0])
            )
            for key, value in dump.get("extra", {}).items():
                self.extra[key] = self.extra.get(key, 0) + value

    def inside(self, t: float) -> bool:
        return self.window[0] <= t <= self.window[1]

    def span(self, name: str, **match) -> List:
        return [
            s for s in self.spans.get(name, ())
            if all(s[2].get(k) == v for k, v in match.items())
        ]

    def event(self, name: str) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        parts = self.events.get(name)
        if parts is None:
            empty = np.zeros(0)
            return empty, empty, empty
        return tuple(np.concatenate(p) for p in parts)  # type: ignore


def _durations_ms(spans) -> List[float]:
    return [(s[1] - s[0]) * 1e3 for s in spans]


def _union(intervals: List[Tuple[float, float]]) -> Tuple[List[float], List[float]]:
    starts, ends = [], []
    for a, b in sorted(intervals):
        if starts and a <= ends[-1]:
            ends[-1] = max(ends[-1], b)
        else:
            starts.append(a)
            ends.append(b)
    return starts, ends


def _covered(starts, ends, a: float, b: float) -> float:
    """Length of [a, b] covered by the disjoint sorted intervals."""
    total = 0.0
    index = max(0, bisect.bisect_right(starts, a) - 1)
    while index < len(starts) and starts[index] < b:
        total += max(0.0, min(b, ends[index]) - max(a, starts[index]))
        index += 1
    return total


def load_dumps(trace_dir: str) -> Tuple[List[Dict], List[Dict]]:
    hosts, shards = [], []
    for path in sorted(glob.glob(os.path.join(trace_dir, "*.json"))):
        with open(path, encoding="utf-8") as handle:
            dump = json.load(handle)
        (hosts if os.path.basename(path).startswith("host-") else shards).append(dump)
    return hosts, shards


def per_layer(result, trace_dir: str, host, cpu,
              traced_e2e: Dict[str, Dict], fuse_rate: float) -> Dict[str, Dict]:
    hosts, shards = load_dumps(trace_dir)
    window = result.window
    own = [tracer.RECORDER.to_dict({})]
    generator = Trace(own, window)
    host_trace = Trace(hosts, window)
    shard_trace = Trace(shards, window)
    # The fuse() baseline runs after the window; take all of its spans.
    baseline = Trace(own, (0.0, float("inf")))
    rounds = max(1, result.rounds)
    elapsed = result.elapsed
    m: Dict[str, Dict] = {}

    def put(name: str, value: float, unit: str) -> None:
        m[name] = {"value": float(value), "unit": unit}

    # -- load (generator) ----------------------------------------------------
    steps = result.extra.get("steps", [])
    lags = [lag for step in steps for lag in step.lags]
    first = result.extra.get("first")
    first_lat = first.latencies if first is not None else []
    batch_lat = [] if steps else result.latencies
    probe = result.extra.get("probe")
    probe_lat = probe.latencies if probe is not None else []
    put("load.sustained_votes_per_s",
        result.extra.get("sustained_votes_per_s", 0.0), "votes/s")
    put("load.probe_p50_ms", percentile(probe_lat, 50) * 1e3, "ms")
    put("load.generator_lag_ms", percentile(lags, 99) * 1e3, "ms")
    put("load.vote_p50_ms", percentile(first_lat, 50) * 1e3, "ms")
    put("load.vote_p99_ms", percentile(first_lat, 99) * 1e3, "ms")
    put("load.vote_samples", len(first_lat), "count")
    put("load.batch_p90_ms", percentile(batch_lat, 90) * 1e3, "ms")
    put("load.batch_samples", len(batch_lat), "count")
    put("load.error_rate", _ratio(result.failed, result.attempted), "share")

    # -- proc ------------------------------------------------------------------
    busy = cpu.busy
    shard_pids = list(host.shard_pids.values())
    put("proc.generator_cpu_share", cpu.generator / elapsed, "cpu/s")
    put("proc.host_cpu_share", busy[host.proc.pid] / elapsed, "cpu/s")
    put("proc.shard_cpu_share",
        float(np.mean([busy[p] for p in shard_pids])) / elapsed, "cpu/s")

    # -- ingest ----------------------------------------------------------------
    flushes = host_trace.span("ingest.flush")
    flushed_votes = sum(s[2]["rounds"] for s in flushes)
    submitted = {}
    for t0, batches in host_trace.flush_keys:
        for series, numbers in batches:
            for number in numbers:
                submitted[(series, number)] = t0
    sent_at = result.extra.get("sent_at", {})
    waits = [
        (submitted[key] - sent) * 1e3
        for key, sent in sent_at.items() if key in submitted
    ]
    put("ingest.flushes", len(flushes), "count")
    put("ingest.votes_per_flush", _ratio(flushed_votes, len(flushes)), "votes")
    put("ingest.flush_ms.p50", percentile(_durations_ms(flushes), 50), "ms")
    put("ingest.flush_ms.p99", percentile(_durations_ms(flushes), 99), "ms")
    put("ingest.wait_ms.p50", percentile(waits, 50), "ms")
    put("ingest.wait_samples", len(waits), "count")
    put("ingest.refused", sum(s.refused for s in steps), "count")

    # -- cluster.gateway -------------------------------------------------------
    dispatches = [
        s for s in host_trace.span("gateway.dispatch")
        if s[2]["op"] in ("vote", "vote_batch")
    ]
    links = host_trace.span("gateway.link")
    starts, ends = _union([(s[0], s[1]) for s in links])
    self_ms = [
        (s[1] - s[0] - _covered(starts, ends, s[0], s[1])) * 1e3
        for s in dispatches
    ]
    jobs = len(host_trace.event("gateway.job")[0])
    put("gateway.dispatch_ms.p50", percentile(_durations_ms(dispatches), 50), "ms")
    put("gateway.dispatch_ms.p99", percentile(_durations_ms(dispatches), 99), "ms")
    put("gateway.dispatch_samples", len(dispatches), "count")
    put("gateway.self_ms.p50", percentile(self_ms, 50), "ms")
    put("gateway.link_calls", len(links), "count")
    put("gateway.jobs_per_link_call", _ratio(jobs, len(links)), "jobs/call")
    put("gateway.link_calls_per_request", _ratio(len(links), len(dispatches)),
        "calls/request")
    put("gateway.link_rtt_ms.p50", percentile(_durations_ms(links), 50), "ms")
    put("gateway.link_rtt_ms.p99", percentile(_durations_ms(links), 99), "ms")
    put("gateway.retries", len(host_trace.event("gateway.link_error")[0]), "count")
    put("gateway.disagreements", host_trace.extra.get("disagreements", 0), "count")

    # -- service.protocol ------------------------------------------------------
    _, entry_s, entry_b = generator.event("protocol.entry")
    _, link_s, link_b = host_trace.event("protocol.link")
    _, host_entry_s, _ = host_trace.event("protocol.entry")
    _, shard_s, _ = shard_trace.event("protocol.entry")
    codec = entry_s.sum() + link_s.sum() + host_entry_s.sum() + shard_s.sum()
    put("protocol.bytes_per_round", entry_b.sum() / rounds, "bytes/round")
    put("protocol.link_bytes_per_round", link_b.sum() / rounds, "bytes/round")
    put("protocol.codec_us_per_round", codec * 1e6 / rounds, "us/round")

    # -- cluster.backend -------------------------------------------------------
    batches = shard_trace.span("backend.dispatch", op="vote_batch")
    backend_self = [(s[1] - s[0] - s[2]["child"]) * 1e3 for s in batches]
    put("backend.vote_batch_ms.p50", percentile(_durations_ms(batches), 50), "ms")
    put("backend.vote_batch_ms.p99", percentile(_durations_ms(batches), 99), "ms")
    put("backend.vote_batch_samples", len(batches), "count")
    put("backend.self_ms.p50", percentile(backend_self, 50), "ms")
    put("backend.engines_built",
        len(shard_trace.event("backend.engine_built")[0]), "count")
    put("backend.replay_hits",
        sum(s[2]["rounds"] - s[2]["fresh"] for s in batches), "rounds")

    # -- fusion ----------------------------------------------------------------
    def fusion(trace: Trace, prefix: str) -> None:
        calls = trace.span("fusion.batch")
        fused = sum(s[2]["rounds"] for s in calls)
        fallback = sum(s[2]["fallback"] for s in calls)
        seconds = sum(s[1] - s[0] for s in calls)
        put(f"{prefix}.calls", len(calls), "count")
        put(f"{prefix}.rounds_per_call", _ratio(fused, len(calls)), "rounds/call")
        put(f"{prefix}.us_per_round", _ratio(seconds * 1e6, fused), "us/round")
        put(f"{prefix}.kernel_round_share", _ratio(fused - fallback, fused), "share")

    fusion(shard_trace, "fusion")
    fusion(baseline, "fuse")
    put("fuse.rounds_per_s", fuse_rate, "rounds/s")

    # -- history ---------------------------------------------------------------
    _, get_s, get_read = shard_trace.event("history.get")
    rehydrate_us = get_s[get_read > 0] * 1e6
    _, write_s, _ = shard_trace.event("history.write")
    put("history.put_calls", len(shard_trace.event("history.put")[0]), "count")
    put("history.hot_hit_share", _ratio((get_read == 0).sum(), len(get_read)),
        "share")
    put("history.rehydrate_us.p50", percentile(rehydrate_us, 50), "us")
    put("history.rehydrate_samples", len(rehydrate_us), "count")
    put("history.writebacks", len(write_s), "count")
    put("history.writeback_us.p50", percentile(write_s * 1e6, 50), "us")
    put("history.evictions", len(shard_trace.event("history.evict")[0]), "count")
    put("history.segment_bytes", shard_trace.extra.get("segment_bytes", 0), "bytes")

    # -- tracing overhead: the traced run's own end-to-end figures -------------
    put("trace.rounds_per_s", traced_e2e["rounds_per_s"]["value"], "rounds/s")
    put("trace.p50_ms", traced_e2e["p50_ms"]["value"], "ms")
    return m
