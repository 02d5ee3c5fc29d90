"""Tripwire for the pipeline benchmark's contract with the program.

``perfbench/`` drives the system from outside and wraps layer entry
points by name (link threads named ``link-<id>``, the gateway's and the
shard's ``dispatch``, the codec functions, the tiered store calls).  A
rename or a broken layer shows up here as a failed or incorrect traced
run, instead of only when the benchmark runs.

One short traced ``sensor_stream`` run covers ingest, gateway, links,
shards, the packed store and every tracer hook (about 8 s on 2 CPUs).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_sensor_stream_run_is_correct():
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", "sensor_stream",
            "--seed", "1", "--seconds", "1", "--trace", "1",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["correct"] is True
    metrics = report["metrics"]
    # One request per link job, and every traced layer saw traffic.
    assert metrics["gateway.jobs_per_link_call"]["value"] == 1
    assert metrics["gateway.link_calls"]["value"] > 0
    assert metrics["history.put_calls"]["value"] > 0
