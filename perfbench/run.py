"""Pipeline benchmark: three workloads through the sharded AVOC cluster.

Usage (from the repository root)::

    python3 perfbench/run.py --workload batch_replay --seed 1 --seconds 20 --trace 0

Spawns the system under test (``perfbench/host.py``: a 2-shard x
2-replica ``FusionCluster`` with the ``packed`` store, fronted by an
``AsyncIngestServer``) as its own process, drives one workload against
it from this process, checks every answered value against
``repro.fuse()`` and a sample of history records against a reference
engine, and prints a human-readable report on stderr, then on stdout
the host context as one JSON line and, last, the result as one JSON
line:

* ``--trace 0``: the end-to-end metrics (see ``BENCHMARK.json``);
* ``--trace 1``: the same workload with every layer's public calls
  wrapped (``perfbench/tracer.py``), reporting the per-layer metrics.

Workloads: ``batch_replay``, ``sensor_stream``, ``fleet_churn`` (see
``perfbench/README.md`` for why each was chosen).  Exit status is 0
when every output was correct, 1 on a mismatch, 2 on a setup error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

from analysis import percentile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("batch_replay", "sensor_stream", "fleet_churn")

#: Host spawns per untraced run; ``setup_s`` is their median.
SETUPS = 5

_now = time.perf_counter


def _fail(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


# -- /proc -----------------------------------------------------------------

_TICK = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def cpu_seconds(pid: int) -> float:
    """User + system CPU time of a process, from /proc/<pid>/stat."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


def peak_rss_mib(pid: int) -> float:
    """``VmHWM`` (peak resident set) of a process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


class CpuWindow:
    """CPU seconds each process spent inside the timed window."""

    def __init__(self, pids: List[int]):
        self.pids = pids
        self.busy: Dict[int, float] = {}
        self.generator = 0.0

    def start(self) -> None:
        self.busy = {pid: -cpu_seconds(pid) for pid in self.pids}
        self.generator = -time.process_time()

    def stop(self) -> None:
        for pid in self.pids:
            self.busy[pid] += cpu_seconds(pid)
        self.generator += time.process_time()


# -- the host process --------------------------------------------------------


class Host:
    """One system-under-test host process, spawned apart from the load."""

    def __init__(self, workdir: str, workload: str, trace_dir: Optional[str]):
        from load import FLEET_HOT_BOUND

        self.entry_kind = "ingest" if workload == "sensor_stream" else "gateway"
        os.makedirs(workdir, exist_ok=True)
        command = [sys.executable, os.path.join(HERE, "host.py"),
                   "--workdir", workdir]
        if trace_dir:
            command += ["--trace", trace_dir]
        if workload == "fleet_churn":
            command += ["--max-resident", str(FLEET_HOT_BOUND)]
        self.shard_pids: Dict[str, int] = {}
        self.spawned = _now()
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, cwd=ROOT,
        )
        try:
            line = self._readline(60.0)
            if not line:
                raise RuntimeError("host process did not come up")
            info = json.loads(line)
            self.shard_pids = info["shards"]
            self.entry = tuple(info[self.entry_kind])
            self.gateway = tuple(info["gateway"])
            self.setup_s = self._first_ping() - self.spawned
        except BaseException:
            self.stop()
            raise

    def _readline(self, timeout: float) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        return self.proc.stdout.readline() if ready else ""

    def _first_ping(self) -> float:
        import repro

        deadline = _now() + 30.0
        while _now() < deadline:
            try:
                with repro.connect(self.entry, timeout=2.0) as client:
                    if client.ping():
                        return _now()
            except OSError:
                time.sleep(0.005)
        raise RuntimeError("entry address never answered a ping")

    @property
    def pids(self) -> List[int]:
        return [self.proc.pid] + list(self.shard_pids.values())

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("stop\n")
                self.proc.stdin.flush()
            except (BrokenPipeError, OSError):
                pass
            try:
                self.proc.wait(timeout=60.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        for pid in self.shard_pids.values():
            _reap(pid)


def _reap(pid: int) -> None:
    """Make sure a shard the host forked has ended (wait up to 10 s)."""
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.02)
    try:
        os.kill(pid, 9)
    except ProcessLookupError:
        pass


# -- metrics -----------------------------------------------------------------


def end_to_end(workload: str, result, setup: List[float],
               rss: float) -> Dict[str, Dict]:
    if workload == "sensor_stream":
        closed = result.extra["closed"]  # latencies are the closed loop's
        rate = len(closed.latencies) / (closed.window[1] - closed.window[0])
    else:
        rate = result.rounds / result.elapsed
    p50 = percentile(result.latencies, 50)
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "rounds_per_s": {"value": rate, "unit": "rounds/s"},
        "p50_ms": {"value": p50 * 1e3, "unit": "ms"},
        "shard_peak_rss_mb": {"value": rss, "unit": "MiB"},
    }


#: What each end-to-end metric means on a workload, printed beside it.
ALIASES = {
    "batch_replay": {"p50_ms": "batch_p50_ms"},
    "sensor_stream": {"rounds_per_s": "closed-loop votes/s",
                      "p50_ms": "closed-loop vote p50"},
    "fleet_churn": {"p50_ms": "batch_p50_ms"},
}


def report(workload: str, metrics: Dict[str, Dict]) -> None:
    out = sys.stderr
    print(f"== perfbench {workload} ==", file=out)
    aliases = ALIASES.get(workload, {})
    for name, entry in metrics.items():
        alias = aliases.get(name)
        label = f"{name} ({alias})" if alias and alias != name else name
        print(f"  {label:<40} {entry['value']:.6g} {entry['unit']}", file=out)


#: Legacy baseline rows each workload's metrics supersede.
SUPERSEDES = {
    "batch_replay": ["BENCH_cluster.json throughput -> rounds_per_s"],
    "sensor_stream": ["BENCH_ingest.json fan_in -> rounds_per_s"],
}


def host_context(workload: str, seed: int, seconds: float, trace: bool) -> Dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "topology": "FusionCluster 2 shards x 2 replicas, process backends, "
                    "gateway + AsyncIngestServer in one host process",
        "store": "packed",
        "spec": "AVOC (paper Listing 1)",
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "supersedes": SUPERSEDES.get(workload, []),
    }


# -- main --------------------------------------------------------------------


def main(argv=None) -> int:
    """Parse arguments, run one workload, clean the work directory."""
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        _fail(f"no program to measure: {SRC}/repro is missing")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run(args, workdir: str) -> int:
    import load
    import oracle
    import repro

    trace_dir = os.path.join(workdir, "trace") if args.trace else None
    if trace_dir:
        import tracer

        os.makedirs(trace_dir, exist_ok=True)
        # The generator's own codec and fuse() calls are traced too.
        tracer.install_generator()
    drive = getattr(load, args.workload)
    setup: List[float] = []
    host: Optional[Host] = None
    phases: Dict[str, float] = {}
    mark = _now()
    try:
        for attempt in range(1 if args.trace else SETUPS):
            if host is not None:
                host.stop()
            host = Host(os.path.join(workdir, f"host{attempt}"),
                        args.workload, trace_dir)
            setup.append(host.setup_s)
        assert host is not None
        phases["setup"] = _now() - mark
        mark = _now()
        cpu = CpuWindow(host.pids)
        result = drive(host.entry, host.gateway, args.seed, args.seconds, cpu)
        phases["load"] = _now() - mark
        mark = _now()
        rss = max(peak_rss_mib(pid) for pid in host.shard_pids.values())
        with repro.connect(host.gateway) as client:
            history_mismatches = oracle.check_history(result, client, args.seed)
    finally:
        if host is not None:
            host.stop()
    phases["history+stop"] = _now() - mark
    mark = _now()
    mismatches = oracle.check_values(result) + history_mismatches
    phases["oracle"] = _now() - mark

    context = host_context(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = end_to_end(args.workload, result, setup, rss)
    shares = [round(busy / result.elapsed, 3) for busy in cpu.busy.values()]
    print(f"  cpu share (host, shards...): {shares}, generator "
          f"{cpu.generator / result.elapsed:.3f}", file=sys.stderr)
    print("  phase seconds: " + ", ".join(
        f"{k} {v:.1f}" for k, v in phases.items()), file=sys.stderr)
    if args.workload == "sensor_stream":
        for step in result.extra["steps"]:
            if step.kind == "closed":
                head = f"  closed {step.n_series} sensors: "
                seconds = step.window[1] - step.window[0]
                verdict = f"{len(step.latencies) / seconds:.0f} votes/s"
            else:
                head = f"  {step.kind:6} {step.rate:6.0f} votes/s: "
                verdict = "pass" if step.passed() else "FAIL"
            print(
                f"{head}sent {step.sent}, answered {len(step.latencies)}, "
                f"refused {step.refused}, errors {step.errors}, backlog "
                f"{step.backlog}, p50 {percentile(step.latencies, 50) * 1e3:.1f}"
                f" ms, p99 {percentile(step.latencies, 99) * 1e3:.1f} ms, lag "
                f"p99 {percentile(step.lags, 99) * 1e3:.1f} ms, {verdict}",
                file=sys.stderr,
            )
    if args.trace:
        from analysis import per_layer

        fuse_rate = oracle.fuse_rate(*load.fuse_inputs(args.workload, args.seed))
        out_metrics = per_layer(result, trace_dir, host, cpu, metrics, fuse_rate)
    else:
        out_metrics = metrics
    report(args.workload, out_metrics)
    for line in mismatches[:20]:
        print(f"MISMATCH {line}", file=sys.stderr)
    correct = not mismatches and result.failed == 0
    line = {
        "correct": correct,
        "attempted": max(1, result.attempted),
        "failed": result.failed,
        "metrics": out_metrics,
    }
    # The host context travels with every result, one line above it.
    print(json.dumps({"context": context}, sort_keys=True))
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
