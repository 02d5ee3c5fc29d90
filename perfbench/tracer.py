"""In-memory span recording around each layer's public calls.

The traced run installs these wrappers in the system-under-test host
process *before* the cluster forks its shards, so every shard inherits
them.  Nothing in the program is changed: each wrapper times the call
into a layer from the outside and keeps what it saw in process memory.

* Per-request boundaries (ingest flush, gateway dispatch, link request,
  shard dispatch, engine batch) are kept as spans: name, start, end,
  thread, rounds and a few attributes.
* Per-round calls (store reads and writes, codec calls) are kept as
  compact events: start, duration and an amount (bytes, say), so a
  long traced run stays small.

A layer's self time is its span minus the time its child spans cover.
Children running on the caller's thread (engine and store calls under a
shard dispatch) are charged as they finish through a per-thread stack;
the gateway's children run on link threads and are charged afterwards
from their intervals (see ``run.py``).

Shards exit on SIGTERM with no hook of their own, so the wrapped shard
entry point installs a handler that writes the shard's spans to
``<dir>/shard-<pid>.json`` before the process ends.  The host writes
``<dir>/host-<pid>.json`` when it stops.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
import time
from array import array
from typing import Any, Dict, List, Tuple

_now = time.perf_counter  # CLOCK_MONOTONIC: comparable across processes

#: The protocol codec functions wrapped in every ``repro`` module that
#: imported them by name.
CODEC_FUNCTIONS = (
    "encode_frame",
    "encode_message",
    "decode_frame_payload",
    "decode_message",
)


class Recorder:
    """Spans and events of one process."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.spans: Dict[str, List[list]] = {}
        self.events: Dict[str, Tuple[array, array, array]] = {}
        self.flush_keys: List[list] = []
        self._local = threading.local()

    # -- recording ---------------------------------------------------------

    def span(self, name: str, t0: float, t1: float, **attrs: Any) -> None:
        self.spans.setdefault(name, []).append([t0, t1, attrs])

    def event(
        self, name: str, t0: float, seconds: float = 0.0, amount: float = 0.0
    ) -> None:
        arrays = self.events.get(name)
        if arrays is None:
            arrays = self.events[name] = (array("d"), array("d"), array("d"))
        arrays[0].append(t0)
        arrays[1].append(seconds)
        arrays[2].append(amount)

    # -- per-thread frames for self time -----------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self) -> dict:
        frame = {"child": 0.0, "fallback": 0, "fresh": 0, "read": 0}
        self._stack().append(frame)
        return frame

    def leave(self, seconds: float) -> None:
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1]["child"] += seconds

    def parent(self) -> dict:
        stack = self._stack()
        return stack[-1] if stack else {}

    # -- output ------------------------------------------------------------

    def to_dict(self, extra: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "pid": os.getpid(),
            "spans": {k: list(v) for k, v in list(self.spans.items())},
            "events": {
                k: [a.tolist() for a in v] for k, v in list(self.events.items())
            },
            "flush_keys": list(self.flush_keys),
            "extra": extra,
        }

    def dump(self, path: str, extra: Dict[str, Any]) -> None:
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(extra), handle)
        os.replace(tmp, path)


RECORDER = Recorder()

#: ShardServer instances created in this process (store sizes).
_SHARDS: List[Any] = []


def _rounds_of(request: Dict[str, Any]) -> int:
    op = request.get("op")
    if op == "vote":
        return 1
    if op == "vote_batch":
        return sum(len(b.get("rounds", ())) for b in request.get("batches", ()))
    return 0


def _install_codec(rec: Recorder) -> None:
    from repro.service import protocol

    def wrap(fn, name):
        encode = name.startswith("encode")

        def traced(message, *args, **kwargs):
            t0 = _now()
            out = fn(message, *args, **kwargs)
            t1 = _now()
            size = len(out) if encode else len(message)
            where = (
                "link"
                if threading.current_thread().name.startswith("link-")
                else "entry"
            )
            rec.event(f"protocol.{where}", t0, t1 - t0, size)
            return out

        return traced

    originals = {name: getattr(protocol, name) for name in CODEC_FUNCTIONS}
    wrapped = {name: wrap(fn, name) for name, fn in originals.items()}
    for mod_name, module in list(sys.modules.items()):
        if module is None or not mod_name.startswith("repro"):
            continue
        for name, fn in originals.items():
            if getattr(module, name, None) is fn:
                setattr(module, name, wrapped[name])


def _install_ingest(rec: Recorder) -> None:
    from repro.ingest.bridge import ThreadBridge

    original = ThreadBridge.submit

    def submit(self, request, on_done):
        if request.get("op") != "vote_batch":
            return original(self, request, on_done)
        t0 = _now()
        rounds = _rounds_of(request)
        rec.flush_keys.append(
            [t0, [[b["series"], list(b["rounds"])] for b in request["batches"]]]
        )

        def done(result, exc):
            rec.span(
                "ingest.flush", t0, _now(), rounds=rounds, ok=exc is None
            )
            on_done(result, exc)

        return original(self, request, done)

    ThreadBridge.submit = submit


def _install_gateway(rec: Recorder) -> None:
    from repro.cluster import gateway as gateway_mod
    from repro.service.client import VoterClient

    dispatch = gateway_mod.ClusterGateway.dispatch

    def traced_dispatch(self, request):
        t0 = _now()
        try:
            return dispatch(self, request)
        finally:
            rec.span(
                "gateway.dispatch", t0, _now(),
                op=request.get("op"), rounds=_rounds_of(request),
            )

    gateway_mod.ClusterGateway.dispatch = traced_dispatch

    request = VoterClient.request

    def traced_request(self, message):
        if not threading.current_thread().name.startswith("link-"):
            return request(self, message)
        t0 = _now()
        try:
            response = request(self, message)
        except BaseException:
            rec.event("gateway.link_error", t0, _now() - t0)
            raise
        rec.span(
            "gateway.link", t0, _now(),
            op=message.get("op"), rounds=_rounds_of(message),
        )
        return response

    VoterClient.request = traced_request

    enqueue = gateway_mod._BackendLink.enqueue

    def traced_enqueue(self, job):
        rec.event("gateway.job", _now())
        return enqueue(self, job)

    gateway_mod._BackendLink.enqueue = traced_enqueue


def _install_backend(rec: Recorder) -> None:
    from repro.cluster import backend as backend_mod

    shard_cls = backend_mod.ShardServer
    dispatch = shard_cls.dispatch
    init = shard_cls.__init__

    def traced_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        _SHARDS.append(self)

    def traced_dispatch(self, request):
        frame = rec.enter()
        t0 = _now()
        try:
            return dispatch(self, request)
        finally:
            t1 = _now()
            rec.leave(t1 - t0)
            rec.span(
                "backend.dispatch", t0, t1,
                op=request.get("op"), rounds=_rounds_of(request),
                fresh=frame["fresh"], child=frame["child"],
            )

    shard_cls.__init__ = traced_init
    shard_cls.dispatch = traced_dispatch

    build = backend_mod.build_engine

    def traced_build(*args, **kwargs):
        rec.event("backend.engine_built", _now())
        return build(*args, **kwargs)

    backend_mod.build_engine = traced_build


def install_fusion(rec: Recorder) -> None:
    """Wrap the engine's batch entry point and its per-round fallback."""
    from repro.fusion.engine import FusionEngine

    process_batch = FusionEngine.process_batch
    process = FusionEngine.process

    def traced_batch(self, matrix, *args, **kwargs):
        parent = rec.parent()
        frame = rec.enter()
        t0 = _now()
        try:
            return process_batch(self, matrix, *args, **kwargs)
        finally:
            t1 = _now()
            rec.leave(t1 - t0)
            rounds = len(matrix)
            if parent:
                parent["fresh"] += rounds
            rec.span(
                "fusion.batch", t0, t1,
                rounds=rounds, fallback=frame["fallback"],
            )

    def traced_process(self, voting_round):
        parent = rec.parent()
        if parent:
            parent["fallback"] += 1
        return process(self, voting_round)

    FusionEngine.process_batch = traced_batch
    FusionEngine.process = traced_process


def _install_history(rec: Recorder) -> None:
    from repro.history.packed import PackedHistoryStore
    from repro.history.tiered import TieredHistoryStore

    def framed(cls, attr, name, on_frame=None):
        original = getattr(cls, attr)

        def traced(self, *args, **kwargs):
            frame = rec.enter()
            t0 = _now()
            try:
                return original(self, *args, **kwargs)
            finally:
                seconds = _now() - t0
                rec.leave(seconds)
                if on_frame is not None:
                    on_frame(frame, t0, seconds)
                else:
                    rec.event(name, t0, seconds)

        setattr(cls, attr, traced)

    def on_get(frame, t0, seconds):
        # A get_state that had to read the backing store is a rehydrate.
        rec.event("history.get", t0, seconds, 1.0 if frame["read"] else 0.0)

    def on_read(frame, t0, seconds):
        parent = rec.parent()
        if parent:
            parent["read"] += 1
        rec.event("history.read", t0, seconds)

    framed(TieredHistoryStore, "get_state", "history.get", on_get)
    framed(TieredHistoryStore, "put_state", "history.put")
    framed(TieredHistoryStore, "evict", "history.evict")
    framed(TieredHistoryStore, "flush", "history.flush")
    framed(PackedHistoryStore, "read", "history.read", on_read)
    framed(PackedHistoryStore, "write", "history.write")


def _shard_extra() -> Dict[str, Any]:
    """Bytes in the packed store segments of this process's shards."""
    return {
        "segment_bytes": sum(
            getattr(server.tiered_store.backing, "total_bytes", 0)
            for server in _SHARDS if server.tiered_store is not None
        )
    }


def _install_shard_dump(out_dir: str) -> None:
    from repro.cluster import backend as backend_mod

    main = backend_mod._backend_main

    def traced_main(*args, **kwargs):
        RECORDER.reset()  # forget the parent's spans copied by fork

        def on_term(signum, frame):
            RECORDER.dump(
                os.path.join(out_dir, f"shard-{os.getpid()}.json"),
                _shard_extra(),
            )
            os._exit(0)

        signal.signal(signal.SIGTERM, on_term)
        main(*args, **kwargs)

    backend_mod._backend_main = traced_main


def install(out_dir: str) -> None:
    """Wrap every layer; call before the cluster starts its shards."""
    import repro.cluster.backend  # noqa: F401 - load before patching
    import repro.cluster.gateway  # noqa: F401
    import repro.ingest  # noqa: F401

    _install_codec(RECORDER)
    _install_ingest(RECORDER)
    _install_gateway(RECORDER)
    _install_backend(RECORDER)
    install_fusion(RECORDER)
    _install_history(RECORDER)
    _install_shard_dump(out_dir)


def install_generator() -> None:
    """Wrap the load generator's own codec and ``repro.fuse()`` calls."""
    import repro  # noqa: F401 - load every module holding codec names

    _install_codec(RECORDER)
    install_fusion(RECORDER)


def dump_host(out_dir: str, extra: Dict[str, Any]) -> None:
    RECORDER.dump(os.path.join(out_dir, f"host-{os.getpid()}.json"), extra)
