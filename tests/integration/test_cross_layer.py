"""Cross-layer integration: a production-shaped pipeline end to end.

Raw sensor events → streaming window assembly → VDX-built AVOC engine
with a write-behind SQLite history store (``TieredHistoryStore``
over ``SqliteStateStore``, ``flush_every=8``) → fused series → reliability
diagnosis.  Every layer is real; the test asserts the composition
behaves like the simple offline path and that the diagnosis at the end
names the injected culprit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.diff import run_voter_series
from repro.analysis.reliability import diagnose, worst_module
from repro.datasets.injection import offset_fault
from repro.fusion.engine import FusionEngine
from repro.fusion.stream import SensorEvent, StreamingFusion
from repro.history import SqliteStateStore, TieredHistoryStore
from repro.vdx.examples import AVOC_SPEC
from repro.vdx.factory import build_voter


@pytest.fixture()
def faulty_dataset(uc1_small):
    return offset_fault(uc1_small.slice(0, 120), "E4", 6.0)


class TestProductionPipeline:
    def test_stream_store_vote_diagnose(self, tmp_path, faulty_dataset):
        store = TieredHistoryStore(
            SqliteStateStore(tmp_path / "records.db"), flush_every=8
        )
        voter = build_voter(AVOC_SPEC, history_store=store.store_for("uc1"))
        engine = FusionEngine(voter, roster=list(faulty_dataset.modules))
        stream = StreamingFusion(engine, window=1.0 / 8.0)

        # Feed the recording as interleaved per-module events.
        for number, row in enumerate(faulty_dataset.matrix):
            base = number / 8.0
            for offset, (module, value) in enumerate(
                zip(faulty_dataset.modules, row)
            ):
                stream.push(
                    SensorEvent(module, float(value), base + offset * 0.001)
                )
        stream.flush()
        store.flush()

        # 1. The streamed outputs equal the plain offline voting path.
        streamed = [r.value for r in stream.results]
        offline = run_voter_series(build_voter(AVOC_SPEC), faulty_dataset)
        assert streamed == pytest.approx(list(offline))

        # 2. The history survived in the database (write-behind flushed).
        store.close()
        persisted = SqliteStateStore(tmp_path / "records.db")
        records, updates = persisted.read("uc1")
        persisted.close()
        assert records["E4"] == 0.0
        assert updates == voter.history.update_count

        # 3. Diagnosis over the streamed outcomes names the culprit.
        outcomes = [r.outcome for r in stream.results if r.outcome is not None]
        reports = diagnose(faulty_dataset, outcomes)
        assert worst_module(reports) == "E4"
        assert reports["E4"].classification == "offset"

    def test_pipeline_output_quality(self, tmp_path, faulty_dataset, uc1_small):
        voter = build_voter(AVOC_SPEC)
        engine = FusionEngine(voter, roster=list(faulty_dataset.modules))
        stream = StreamingFusion(engine, window=1.0 / 8.0)
        for number, row in enumerate(faulty_dataset.matrix):
            base = number / 8.0
            for offset, (module, value) in enumerate(
                zip(faulty_dataset.modules, row)
            ):
                stream.push(SensorEvent(module, float(value), base + offset * 0.001))
        stream.flush()
        outputs = np.asarray([r.value for r in stream.results])
        clean_band = uc1_small.slice(0, 120).matrix
        # The fused output never follows the +6 fault.
        assert outputs.max() < clean_band.max() + 0.5
