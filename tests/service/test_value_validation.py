"""Regression tests: malformed values must never kill a connection.

A crafted payload whose value is a string, boolean, or a bare JSON
``Infinity`` / ``NaN`` literal used to escape the numeric checks and
either raise inside the handler thread (dead connection, no response)
or produce a response ``encode_message`` could not serialise
(``allow_nan=False``).  Every case must instead yield an
``{"ok": false, ...}`` line on the same, still-usable connection.
"""

from __future__ import annotations

import json
import socket

import pytest

from repro.history import MemoryStateStore, TieredHistoryStore
from repro.service.client import ServiceError, VoterClient
from repro.service.server import VoterServer
from repro.vdx.examples import AVOC_SPEC, STANDARD_SPEC

READINGS = {"E1": 18.0, "E2": 18.1, "E3": 17.9, "E4": 24.0, "E5": 18.05}


@pytest.fixture()
def server():
    with VoterServer(AVOC_SPEC) as srv:
        yield srv


def exchange(sock, payload: bytes):
    """Send one raw line, read one response line."""
    sock.sendall(payload + b"\n")
    return sock.makefile("rb").readline()


class TestMalformedValues:
    @pytest.mark.parametrize(
        "values_json",
        [
            '{"E1": "abc"}',  # string
            '{"E1": true}',  # boolean sneaks past isinstance(int) checks
            '{"E1": Infinity}',  # parses as float("inf")
            '{"E1": NaN}',  # parses as float("nan")
            '{"E1": [18.0]}',  # list
        ],
    )
    def test_vote_with_bad_value_returns_error(self, server, values_json):
        host, port = server.address
        with socket.create_connection((host, port), timeout=5.0) as sock:
            payload = (
                '{"op": "vote", "round": 0, "values": %s}' % values_json
            ).encode()
            response = json.loads(exchange(sock, payload))
            assert response["ok"] is False
            assert "error" in response
            # Same connection must still serve requests afterwards.
            pong = json.loads(exchange(sock, b'{"op": "ping"}'))
            assert pong["ok"] is True

    @pytest.mark.parametrize(
        "value_json", ['"abc"', "true", "Infinity", "NaN", "{}"]
    )
    def test_submit_with_bad_value_returns_error(self, server, value_json):
        host, port = server.address
        with socket.create_connection((host, port), timeout=5.0) as sock:
            payload = (
                '{"op": "submit", "round": 0, "module": "E1", "value": %s}'
                % value_json
            ).encode()
            response = json.loads(exchange(sock, payload))
            assert response["ok"] is False
            pong = json.loads(exchange(sock, b'{"op": "ping"}'))
            assert pong["ok"] is True

    def test_bad_value_does_not_consume_the_round(self, server):
        # A rejected vote must leave the round free to vote properly.
        host, port = server.address
        with VoterClient(host, port) as client:
            with pytest.raises(ServiceError):
                client.request(
                    {"op": "vote", "round": 0, "values": {"E1": "oops"}}
                )
            result = client.vote(0, READINGS)
            assert result["status"] == "ok"

    def test_null_values_still_accepted(self, server):
        host, port = server.address
        with VoterClient(host, port) as client:
            readings = dict(READINGS)
            readings["E5"] = None
            # AVOC_SPEC's 100 % quorum degrades the round, but the
            # null itself must be accepted, not rejected as malformed.
            result = client.vote(0, readings)
            assert result["round"] == 0
            assert result["status"] in {"ok", "held", "skipped"}


class TestConfigureKeepsHistoryStore:
    def test_store_survives_hot_swap(self):
        tiered = TieredHistoryStore(MemoryStateStore())
        store = tiered.store_for("s")
        with VoterServer(STANDARD_SPEC, history_store=store) as server:
            host, port = server.address
            with VoterClient(host, port) as client:
                client.vote(0, READINGS)
                saves_before = tiered.writebacks
                assert saves_before > 0
                assert store.load_state() is not None

                assert client.configure(AVOC_SPEC.to_dict())

                # The swap cleared the old scheme's records...
                assert store.load_state() is None
                # ...but kept the store attached: the new engine
                # persists its records to the same backend.
                client.vote(0, READINGS)
                assert tiered.writebacks > saves_before
                assert store.load_state() is not None

    def test_swap_without_store_stays_storeless(self):
        with VoterServer(STANDARD_SPEC) as server:
            host, port = server.address
            with VoterClient(host, port) as client:
                assert client.configure(AVOC_SPEC.to_dict())
                result = client.vote(0, READINGS)
                assert result["status"] == "ok"
