"""Command-line interface: regenerate every figure, inspect VDX, vote.

Installed as ``avoc`` (see ``pyproject.toml``); also runnable as
``python -m repro``.  The ``compare`` subcommand is the text counterpart
of the paper's interactive algorithm-comparison application (Fig. 5).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

import numpy as np


def _cmd_algorithms(args) -> int:
    from .voting.registry import available_algorithms

    for name in available_algorithms():
        print(name)
    return 0


def _cmd_fig6(args) -> int:
    from .analysis.report import render_series, render_table, save_series_csv
    from .datasets.light_uc1 import UC1Config
    from .experiments import run_fig6

    config = UC1Config(n_rounds=args.rounds, seed=args.seed)
    result = run_fig6(config, tolerance=args.tolerance)

    if args.export:
        from pathlib import Path

        export = Path(args.export)
        save_series_csv(
            export / "fig6a_raw.csv",
            {m: result.clean.column(m) for m in result.clean.modules},
        )
        save_series_csv(export / "fig6b_clean_outputs.csv", result.clean_outputs)
        save_series_csv(
            export / "fig6c_faulty_raw.csv",
            {m: result.faulty.column(m) for m in result.faulty.modules},
        )
        save_series_csv(export / "fig6d_fault_outputs.csv", result.fault_outputs)
        save_series_csv(export / "fig6e_diffs.csv", result.diffs)
        print(f"exported Fig. 6 series to {export}/")

    print("== Fig. 6-a: raw sensor data (kilolumen) ==")
    print(
        render_series(
            {m: result.clean.column(m) for m in result.clean.modules}
        )
    )
    print("\n== Fig. 6-b: voting output on raw data ==")
    print(render_series(result.clean_outputs))
    print("\n== Fig. 6-c: raw data with faulty E4 (+6) ==")
    print(
        render_series(
            {m: result.faulty.column(m) for m in result.faulty.modules}
        )
    )
    print("\n== Fig. 6-d: voting output under faults ==")
    print(render_series(result.fault_outputs))
    print("\n== Fig. 6-e: error-injection effect (fault − clean output) ==")
    print(render_series(result.diffs))
    print("\n== Fig. 6-f: first 10 rounds of the diffs ==")
    rows = [
        [alg] + [round(v, 3) for v in result.zoom(alg, 10)]
        for alg in result.diffs
    ]
    print(render_table(["algorithm"] + [f"r{i}" for i in range(10)], rows))
    print("\n== Convergence (settling within ±{:.2g} klm) ==".format(args.tolerance))
    rows = [
        [alg, result.convergence_rounds[alg], result.exclusion_rounds[alg]]
        for alg in result.diffs
    ]
    print(
        render_table(
            ["algorithm", "output settling round", "E4 exclusion round"], rows
        )
    )
    print(f"\nAVOC convergence boost over Hybrid: {result.boost:.2f}x")
    return 0


def _cmd_fig7(args) -> int:
    from .analysis.report import render_series, render_table, save_series_csv
    from .datasets.ble_uc2 import UC2Config
    from .experiments import run_fig7

    config = UC2Config(seed=args.seed)
    result = run_fig7(config, margin_db=args.margin)

    if args.export:
        from pathlib import Path

        export = Path(args.export)
        for panel in ("single_beacon", "nine_average", "avoc_voting"):
            save_series_csv(export / f"fig7_{panel}.csv", getattr(result, panel))
        print(f"exported Fig. 7 series to {export}/")

    print("== Fig. 7-a: single beacon per stack (RSSI, dBm) ==")
    print(render_series(result.single_beacon))
    print("\n== Fig. 7-b: 9-beacon average per stack ==")
    print(render_series(result.nine_average))
    print("\n== Fig. 7-c: 9-beacon AVOC voting per stack ==")
    print(render_series(result.avoc_voting))
    print(
        "\n== Ambiguous rounds (|RSSI_A − RSSI_B| < {:.3g} dB) ==".format(args.margin)
    )
    rows = [
        [label, result.ambiguity(panel), result.instability(panel),
         f"{result.accuracy(panel):.3f}"]
        for label, panel in (
            ("single beacon", "single_beacon"),
            ("9-beacon average", "nine_average"),
            ("9-beacon AVOC", "avoc_voting"),
        )
    ]
    print(
        render_table(
            ["fusion", "ambiguous rounds", "unstable calls", "accuracy"], rows
        )
    )
    print("\n== Per-algorithm closest-stack instability (collation groups) ==")
    instability = result.algorithm_instability()
    ambiguity = result.algorithm_ambiguity()
    rows = [[alg, ambiguity[alg], instability[alg]] for alg in instability]
    print(render_table(["algorithm", "ambiguous rounds", "unstable calls"], rows))
    return 0


def _cmd_shelf(args) -> int:
    from .analysis.report import render_table
    from .datasets.shelf import ShelfConfig, generate_shelf_dataset
    from .types import Round
    from .voting.categorical import CategoricalMajorityVoter

    config = ShelfConfig(
        n_rounds=args.rounds,
        n_sensors=args.sensors,
        n_defective=args.defective,
    )
    dataset = generate_shelf_dataset(config)
    voter = CategoricalMajorityVoter(history_mode=args.history)
    outputs = []
    for number in range(dataset.n_rounds):
        voting_round = Round.from_mapping(number, dataset.round_values(number))
        outputs.append(voter.vote(voting_round).value)
    accuracy = dataset.accuracy_of(outputs)
    print(
        f"smart shelf: {config.n_sensors} sensors "
        f"({config.n_defective} defective), {config.n_rounds} rounds, "
        f"history={args.history}"
    )
    print(f"fused occupancy accuracy: {accuracy:.2%}")
    records = voter.history.snapshot()
    if records:
        rows = [
            [m, round(records[m], 3),
             "DEFECTIVE" if m in config.defective_modules() else ""]
            for m in sorted(records, key=records.get)[:5]
        ]
        print("\nlowest history records:")
        print(render_table(["sensor", "record", ""], rows))
    return 0


def _cmd_compare(args) -> int:
    from .analysis.report import render_table
    from .types import Round
    from .voting.registry import available_algorithms, create_voter

    values = [float(v) for v in args.values.split(",")]
    algorithms = args.algorithms.split(",") if args.algorithms else [
        "average", "median", "standard", "me", "sdt", "hybrid", "clustering", "avoc",
    ]
    rows = []
    for name in algorithms:
        voter = create_voter(name.strip())
        outcome = voter.vote(Round.from_values(0, values))
        rows.append([name.strip(), outcome.value, ",".join(outcome.eliminated) or "-"])
    print(render_table(["algorithm", "output", "eliminated"], rows))
    return 0


def _cmd_vdx(args) -> int:
    from .exceptions import SpecificationError
    from .vdx import VotingSpec, build_voter
    from .vdx.schema import describe

    if args.describe:
        print(describe())
        return 0
    if args.file is None:
        print("vdx: provide a file to validate, or --describe", file=sys.stderr)
        return 2
    try:
        spec = VotingSpec.from_file(args.file)
    except SpecificationError as exc:
        print(f"INVALID: {args.file}", file=sys.stderr)
        for problem in exc.problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    voter = build_voter(spec)
    print(f"VALID: {args.file}")
    print(f"  algorithm_name: {spec.algorithm_name}")
    print(f"  voter class:    {type(voter).__name__}")
    print(f"  collation:      {spec.collation}")
    print(f"  history:        {spec.history}")
    print(f"  bootstrapping:  {spec.bootstrapping}")
    return 0


def _cmd_simulate(args) -> int:
    from .analysis.report import render_series, render_table
    from .simulation import run_uc1_simulation, run_uc2_simulation

    if args.use_case == "uc1":
        report = run_uc1_simulation(algorithm=args.algorithm, rounds=args.rounds)
    else:
        report = run_uc2_simulation(algorithm=args.algorithm)
    print(render_series({f"{args.use_case} fused output": report.outputs}))
    rows = [
        [name, s["sent"], s["delivered"], s["dropped"], f"{s['loss_rate']:.3f}"]
        for name, s in sorted(report.link_stats.items())
    ]
    print(render_table(["link", "sent", "delivered", "dropped", "loss"], rows))
    print(
        f"rounds: {report.n_rounds}  degraded: {report.rounds_degraded}  "
        f"virtual time: {report.virtual_duration:.1f}s"
    )
    return 0


def _cmd_diagnose(args) -> int:
    from .analysis.reliability import diagnose, worst_module
    from .analysis.report import render_table
    from .datasets.loader import load_csv
    from .voting.registry import create_voter

    dataset = load_csv(args.csv)
    voter = create_voter(args.algorithm)
    outcomes = [voter.vote(r) for r in dataset.rounds()]
    reports = diagnose(dataset, outcomes)
    rows = [
        [
            r.module,
            r.classification,
            f"{r.rounds_missing}/{r.rounds_total}",
            round(r.mean_agreement, 3),
            f"{r.exclusion_fraction:.1%}",
            round(r.residual_bias, 3),
            round(r.residual_trend, 3),
            round(r.final_record, 3),
        ]
        for r in reports.values()
    ]
    print(
        render_table(
            ["module", "class", "missing", "agreement", "excluded",
             "bias", "trend", "record"],
            rows,
        )
    )
    worst = worst_module(reports)
    if worst is None:
        print("\nall modules healthy")
    else:
        print(f"\nmodule most in need of attention: {worst} "
              f"({reports[worst].classification})")
    return 0


def _cmd_serve(args) -> int:
    from .service.server import VoterServer
    from .vdx.examples import AVOC_SPEC
    from .vdx.spec import VotingSpec

    spec = VotingSpec.from_file(args.spec) if args.spec else AVOC_SPEC
    server = VoterServer(spec, host=args.host, port=args.port)
    server.start()
    host, port = server.address
    print(f"voter service '{spec.algorithm_name}' listening on {host}:{port}")
    print("protocol: line-delimited JSON; ops: ping/spec/vote/submit/"
          "close_round/history/stats/reset")
    if args.once:
        server.stop()
        return 0
    try:
        import threading

        threading.Event().wait()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


def _resident_bound(value):
    """Map the CLI residency knob: None = default, 0 = unbounded."""
    if value is None:
        from .history import DEFAULT_HOT_SERIES

        return DEFAULT_HOT_SERIES
    return None if value == 0 else value


def _cmd_cluster(args) -> int:
    import json

    from .cluster.supervisor import FusionCluster
    from .vdx.examples import AVOC_SPEC
    from .vdx.spec import VotingSpec

    spec = VotingSpec.from_file(args.spec) if args.spec else AVOC_SPEC
    cluster = FusionCluster(
        spec,
        n_shards=args.shards,
        replicas=args.replicas,
        host=args.host,
        port=args.port,
        history_root=args.history_root,
        mode=args.mode,
        store=args.store,
        max_resident_series=_resident_bound(args.max_resident_series),
    )
    cluster.start()
    host, port = cluster.address
    store_label = args.store or "packed"
    print(
        f"fusion cluster '{spec.algorithm_name}' listening on {host}:{port} "
        f"({args.shards} shards, {args.replicas} replicas, "
        f"{store_label} store)"
    )
    print(json.dumps(cluster.describe(), indent=2))
    if args.once:
        if args.metrics:
            _print_shard_metrics(cluster.gateway.dispatch)
        cluster.stop()
        return 0
    try:
        import threading

        threading.Event().wait()
    except KeyboardInterrupt:
        pass
    finally:
        if args.metrics:
            try:
                _print_shard_metrics(cluster.gateway.dispatch)
            except Exception as exc:  # noqa: BLE001 - shutdown must proceed
                print(f"(per-shard metrics unavailable: {exc})")
        cluster.stop()
    return 0


def _print_shard_metrics(dispatch) -> None:
    """Print per-shard metric sections pulled through a gateway."""
    response = dispatch({"op": "metrics", "shards": True})
    for backend_id, text in sorted(response.get("shard_metrics", {}).items()):
        print(f"\n== shard metrics [{backend_id}] ==")
        print(text if text else "(no metrics collected)", end="")
    failed = response.get("shard_failures", [])
    if failed:
        print(f"\n(unreachable shards: {', '.join(failed)})")


def _cmd_dashboard(args) -> int:
    import json

    from .ops import (
        AlertRule,
        DashboardServer,
        FileNotifier,
        LogNotifier,
        default_alert_rules,
    )

    cluster = None
    client = None
    gateway = None
    dispatch = None
    if args.gateway:
        from .service.client import VoterClient

        host, _, port = args.gateway.rpartition(":")
        if not host or not port.isdigit():
            print(f"--gateway expects HOST:PORT, got {args.gateway!r}")
            return 2
        client = VoterClient(host, int(port), timeout=10.0)
        client.connect()
        client.negotiate("auto")
        dispatch = client.request
        # Remote topology is unknown, so the shards-down rule stays off.
        rules = default_alert_rules()
        target = args.gateway
    else:
        from .cluster.supervisor import FusionCluster
        from .vdx.examples import AVOC_SPEC
        from .vdx.spec import VotingSpec

        spec = VotingSpec.from_file(args.spec) if args.spec else AVOC_SPEC
        cluster = FusionCluster(
            spec,
            n_shards=args.shards,
            replicas=args.replicas,
            mode=args.mode,
            store=args.store,
        )
        cluster.start()
        gateway = cluster.gateway
        rules = default_alert_rules(args.shards)
        target = "%s:%d" % cluster.address
    if args.rules:
        with open(args.rules, "r", encoding="utf-8") as handle:
            rules = [AlertRule.from_dict(item) for item in json.load(handle)]
    notifiers = [LogNotifier()]
    if args.alert_log:
        notifiers.append(FileNotifier(args.alert_log))
    dash = DashboardServer(
        gateway=gateway,
        dispatch=dispatch,
        rules=rules,
        notifiers=notifiers,
        interval=args.interval,
        host=args.host,
        port=args.port,
    )
    dash.start()
    host, port = dash.address
    print(f"operations dashboard at http://{host}:{port}/ (cluster: {target})")
    print("endpoints: / (HTML)  /metrics  /api/snapshot  /api/alerts  "
          "/api/stream (SSE)")
    print(f"alert rules: {', '.join(rule.name for rule in rules) or '(none)'}")
    try:
        if not args.once:
            import threading

            threading.Event().wait()
    except KeyboardInterrupt:
        pass
    finally:
        if args.metrics:
            try:
                _print_shard_metrics(dispatch or gateway.dispatch)
            except Exception as exc:  # noqa: BLE001 - shutdown must proceed
                print(f"(per-shard metrics unavailable: {exc})")
        dash.stop()
        if client is not None:
            client.close()
        if cluster is not None:
            cluster.stop()
    return 0


def _cmd_ingest(args) -> int:
    from .cluster.supervisor import FusionCluster
    from .ingest import AsyncIngestServer
    from .vdx.examples import AVOC_SPEC
    from .vdx.spec import VotingSpec

    spec = VotingSpec.from_file(args.spec) if args.spec else AVOC_SPEC
    cluster = FusionCluster(
        spec,
        n_shards=args.shards,
        replicas=args.replicas,
        mode=args.mode,
        store=args.store,
        max_resident_series=_resident_bound(args.max_resident_series),
    )
    cluster.start()
    ingest = AsyncIngestServer(
        cluster.gateway,
        host=args.host,
        port=args.port,
        max_connections=args.max_connections,
        coalesce_window=args.coalesce_window,
    )
    ingest.start()
    host, port = ingest.address
    print(
        f"async ingest tier for '{spec.algorithm_name}' listening on "
        f"{host}:{port} ({args.shards} shards, {args.replicas} replicas)"
    )
    print("protocol: dual-framed (v2 JSON lines / v3 binary frames); "
          "connect with repro.connect()")
    if args.once:
        ingest.stop()
        cluster.stop()
        return 0
    try:
        import threading

        threading.Event().wait()
    except KeyboardInterrupt:
        pass
    finally:
        ingest.stop()
        cluster.stop()
    return 0


def _cmd_fuse(args) -> int:
    from .datasets.loader import load_csv
    from .fusion.engine import FusionEngine
    from .vdx.factory import build_engine
    from .vdx.spec import VotingSpec
    from .voting.registry import create_voter

    dataset = load_csv(args.csv)
    if args.spec:
        engine = build_engine(VotingSpec.from_file(args.spec))
    else:
        engine = FusionEngine(create_voter(args.algorithm))
    results = engine.process_batch(
        dataset.matrix, modules=dataset.modules, diagnostics=True
    ).to_results()
    writer = open(args.output, "w", encoding="utf-8") if args.output else sys.stdout
    try:
        writer.write("round,value,status,excluded\n")
        for result in results:
            value = "" if result.value is None else repr(float(result.value))
            writer.write(
                f"{result.round_number},{value},{result.status},"
                f"{'|'.join(result.excluded)}\n"
            )
    finally:
        if args.output:
            writer.close()
            print(f"wrote {len(results)} fused rounds to {args.output}")
    return 0


def _live_tune_space(algorithm: str):
    """The discrete deployable-config space ``tune --live`` sweeps.

    Discrete on purpose: live trials cost a cluster reconfiguration
    plus a full scenario replay, and a small closed set of candidate
    configs (a) is what a capacity-planning run actually compares and
    (b) makes random draws collide, so the trial memoization cache
    does real work.
    """
    from .tuning import Choice, ParameterSpace, live_base_params

    return ParameterSpace(
        {
            "error": Choice([0.03, 0.06, 0.12]),
            "collation": Choice(["MEAN", "MEDIAN"]),
        },
        base=live_base_params(algorithm),
    )


def _cmd_tune(args) -> int:
    from .analysis.report import render_table
    from .datasets.injection import offset_fault
    from .datasets.light_uc1 import UC1Config, generate_uc1_dataset
    from .tuning import (
        Choice,
        Continuous,
        ParameterSpace,
        genetic_search,
        grid_search,
        random_search,
        uc1_fault_recovery_objective,
    )
    from .voting.registry import create_voter

    clean = generate_uc1_dataset(UC1Config(n_rounds=args.rounds))
    faulty = offset_fault(clean, "E4", 6.0)
    if args.live:
        from .service.client import VoterClient
        from .tuning import (
            LiveObjective,
            live_genetic_search,
            live_grid_search,
            live_random_search,
        )

        host, _, port = args.live.rpartition(":")
        if not host or not port.isdigit():
            print(f"--live expects HOST:PORT, got {args.live!r}")
            return 2
        space = _live_tune_space(args.algorithm)
        client = VoterClient(host, int(port), timeout=60.0)
        client.connect()
        client.negotiate("auto")
        try:
            objective = LiveObjective(
                client.request, clean, faulty, algorithm=args.algorithm
            )
            if args.method == "grid":
                result = live_grid_search(
                    objective, space, points_per_dimension=args.points
                )
            elif args.method == "genetic":
                result = live_genetic_search(
                    objective, space, population_size=12,
                    generations=args.points, seed=args.seed,
                )
            else:
                result = live_random_search(
                    objective, space, n_trials=args.trials, seed=args.seed
                )
        finally:
            client.close()
        print(
            f"evaluated {result.n_trials} configurations ({args.method}, "
            f"live against {args.live}; {objective.trials} cluster "
            f"evaluations, {result.cache_hits} cache hits)"
        )
        rows = [
            [
                round(t.assignment["error"], 4),
                t.assignment["collation"],
                round(t.score, 3),
            ]
            for t in result.top(5)
        ]
        print(render_table(["error", "collation", "score"], rows))
        print(f"\nbest: {result.best_assignment} -> score {result.best_score:.3f}")
        return 0
    objective = uc1_fault_recovery_objective(clean, faulty, algorithm=args.algorithm)
    base = create_voter(args.algorithm).params
    space = ParameterSpace(
        {
            "error": Continuous(0.02, 0.15),
            "soft_threshold": Continuous(1.0, 4.0),
            "collation": Choice(["MEAN", "MEAN_NEAREST_NEIGHBOR", "MEDIAN"]),
        },
        base=base,
    )
    if args.method == "grid":
        result = grid_search(objective, space, points_per_dimension=args.points)
    elif args.method == "genetic":
        result = genetic_search(
            objective, space, population_size=12, generations=args.points
        )
    else:
        result = random_search(
            objective, space, n_trials=args.trials, seed=args.seed
        )
    print(f"evaluated {result.n_trials} configurations ({args.method})")
    rows = [
        [
            round(t.assignment["error"], 4),
            round(t.assignment["soft_threshold"], 2),
            t.assignment["collation"],
            round(t.score, 3),
        ]
        for t in result.top(5)
    ]
    print(render_table(["error", "soft_threshold", "collation", "score"], rows))
    print(f"\nbest: {result.best_assignment} -> score {result.best_score:.3f}")
    return 0


def _parse_names(text: str):
    """``"all"`` or a comma-separated name list → sweep argument."""
    if text == "all":
        return "all"
    return tuple(name.strip() for name in text.split(",") if name.strip())


def _cmd_adversarial(args) -> int:
    from .experiments import run_adversarial_sweep

    severities = tuple(float(s) for s in args.severities.split(","))
    result = run_adversarial_sweep(
        scenarios=_parse_names(args.scenarios),
        algorithms=_parse_names(args.algorithms),
        severities=severities,
        rounds=args.rounds,
        seed=args.seed,
        warmup=args.warmup,
        workers=args.workers,
    )
    rendered = result.to_json() if args.format == "json" else result.to_markdown()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered)
        print(f"wrote adversarial ranking to {args.output}")
    else:
        print(rendered, end="")
    return 0


def _cmd_latency(args) -> int:
    from .analysis.report import render_table
    from .types import Round
    from .voting.registry import create_voter

    rng = np.random.default_rng(0)
    rows = []
    for name in ("average", "clustering", "standard", "me", "sdt", "hybrid", "avoc"):
        voter = create_voter(name)
        rounds = [
            Round.from_values(i, list(18.0 + rng.normal(0, 0.1, size=5)))
            for i in range(args.iterations)
        ]
        start = time.perf_counter()
        for r in rounds:
            voter.vote(r)
        elapsed = time.perf_counter() - start
        rows.append([name, f"{elapsed / args.iterations * 1e6:.1f}"])
    print(render_table(["algorithm", "µs / round"], rows))
    return 0


def _cmd_store(args) -> int:
    from .exceptions import ReproError
    from .history import migrate_jsonl_dir

    try:
        for directory in args.dirs:
            counts = migrate_jsonl_dir(directory)
            print(
                f"{directory}: migrated {counts['migrated']} series into "
                f"packed/ ({counts['present']} already present, "
                f"{counts['missing']} without a history log)"
            )
    except ReproError as exc:
        print(f"store migrate: {exc}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    from . import __version__
    from .cluster.backend import STORE_KINDS

    parser = argparse.ArgumentParser(
        prog="avoc",
        description="AVOC reproduction: history-aware data fusion for IoT.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="print the collected metrics (Prometheus text format) after "
             "the command finishes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("algorithms", help="list available voting algorithms")

    fig6 = sub.add_parser("fig6", help="regenerate Fig. 6 (UC-1 light sensors)")
    fig6.add_argument("--rounds", type=int, default=10_000)
    fig6.add_argument("--seed", type=int, default=1202)
    fig6.add_argument("--tolerance", type=float, default=0.3)
    fig6.add_argument("--export", default=None, help="directory for series CSVs")

    fig7 = sub.add_parser("fig7", help="regenerate Fig. 7 (UC-2 BLE beacons)")
    fig7.add_argument("--seed", type=int, default=2207)
    fig7.add_argument("--margin", type=float, default=5.0)
    fig7.add_argument("--export", default=None, help="directory for series CSVs")

    shelf = sub.add_parser(
        "shelf", help="run the smart-shelf categorical scenario"
    )
    shelf.add_argument("--rounds", type=int, default=500)
    shelf.add_argument("--sensors", type=int, default=24)
    shelf.add_argument("--defective", type=int, default=3)
    shelf.add_argument("--history", choices=("none", "standard", "me"),
                       default="me")

    compare = sub.add_parser(
        "compare", help="compare all algorithms on one round of values (Fig. 5)"
    )
    compare.add_argument("--values", required=True, help="comma-separated floats")
    compare.add_argument("--algorithms", default=None)

    vdx = sub.add_parser("vdx", help="validate a VDX document / describe the schema")
    vdx.add_argument("file", nargs="?", default=None)
    vdx.add_argument("--describe", action="store_true")

    store = sub.add_parser("store", help="history store maintenance")
    store_sub = store.add_subparsers(dest="store_command", required=True)
    migrate = store_sub.add_parser(
        "migrate",
        help="import legacy per-series JSONL history into the packed store",
    )
    migrate.add_argument(
        "dirs", nargs="+", metavar="DIR",
        help="shard history directory (holds series-index.json)",
    )

    simulate = sub.add_parser("simulate", help="run a deployment simulation")
    simulate.add_argument("use_case", choices=("uc1", "uc2"))
    simulate.add_argument("--algorithm", default="avoc")
    simulate.add_argument("--rounds", type=int, default=400)

    adversarial = sub.add_parser(
        "adversarial",
        help="rank algorithms across adversarial threat models",
    )
    adversarial.add_argument(
        "--scenarios", default="all",
        help="comma-separated scenario names, or 'all' (default)",
    )
    adversarial.add_argument(
        "--algorithms", default="all",
        help="comma-separated registry names, or 'all' (default: the "
        "per-kind contender sets)",
    )
    adversarial.add_argument(
        "--severities", default="1,3,6",
        help="comma-separated fault severities (default: 1,3,6)",
    )
    adversarial.add_argument("--rounds", type=int, default=400)
    adversarial.add_argument("--seed", type=int, default=7)
    adversarial.add_argument(
        "--warmup", type=int, default=20,
        help="rounds excluded from the metric while history warms up",
    )
    adversarial.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the sweep grid (results are "
        "identical at any count)",
    )
    adversarial.add_argument(
        "--format", choices=("md", "json"), default="md",
        help="ranking output format (default: markdown tables)",
    )
    adversarial.add_argument(
        "--output", default=None, help="output file (default stdout)"
    )

    latency = sub.add_parser("latency", help="per-round latency of each voter")
    latency.add_argument("--iterations", type=int, default=2000)

    serve = sub.add_parser("serve", help="run a VDX-configured voter service")
    serve.add_argument("--spec", default=None, help="VDX document (default: AVOC)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0)
    serve.add_argument(
        "--once", action="store_true",
        help="bind, print the address, and exit (for scripting/tests)",
    )

    cluster = sub.add_parser(
        "cluster", help="run a sharded fusion cluster behind one gateway"
    )
    cluster.add_argument("--spec", default=None, help="VDX document (default: AVOC)")
    cluster.add_argument("--shards", type=int, default=3)
    cluster.add_argument("--replicas", type=int, default=2)
    cluster.add_argument("--host", default="127.0.0.1")
    cluster.add_argument("--port", type=int, default=0)
    cluster.add_argument(
        "--history-root", default=None,
        help="directory for per-shard history logs (default: temporary)",
    )
    cluster.add_argument(
        "--mode", choices=("process", "thread"), default=None,
        help="backend isolation (default: process where fork exists)",
    )
    cluster.add_argument(
        "--store", choices=STORE_KINDS, default=None,
        help="per-shard history storage tier (default: packed mmap "
        "segments; legacy JSONL dirs need `avoc store migrate` first)",
    )
    cluster.add_argument(
        "--max-resident-series", type=int, default=None, metavar="N",
        help="LRU bound on live engines per shard (default: 10000; "
        "0 = unbounded)",
    )
    cluster.add_argument(
        "--once", action="store_true",
        help="start, print the topology, and exit (for scripting/tests)",
    )

    ingest = sub.add_parser(
        "ingest",
        help="run an async binary-framed ingest tier over a fusion cluster",
    )
    ingest.add_argument("--spec", default=None, help="VDX document (default: AVOC)")
    ingest.add_argument("--shards", type=int, default=3)
    ingest.add_argument("--replicas", type=int, default=2)
    ingest.add_argument("--host", default="127.0.0.1")
    ingest.add_argument("--port", type=int, default=0)
    ingest.add_argument(
        "--max-connections", type=int, default=10_000,
        help="connection cap; extra peers are refused with BACKPRESSURE",
    )
    ingest.add_argument(
        "--coalesce-window", type=float, default=0.002,
        help="seconds to gather votes into one vote_batch flush",
    )
    ingest.add_argument(
        "--mode", choices=("process", "thread"), default=None,
        help="backend isolation (default: process where fork exists)",
    )
    ingest.add_argument(
        "--store", choices=STORE_KINDS, default=None,
        help="per-shard history storage tier (default: packed mmap "
        "segments; legacy JSONL dirs need `avoc store migrate` first)",
    )
    ingest.add_argument(
        "--max-resident-series", type=int, default=None, metavar="N",
        help="LRU bound on live engines per shard (default: 10000; "
        "0 = unbounded)",
    )
    ingest.add_argument(
        "--once", action="store_true",
        help="start, print the address, and exit (for scripting/tests)",
    )

    fuse = sub.add_parser("fuse", help="fuse a recorded CSV dataset")
    fuse.add_argument("csv", help="rounds x modules CSV (empty cell = missing)")
    fuse.add_argument("--spec", default=None, help="VDX document to vote with")
    fuse.add_argument("--algorithm", default="avoc")
    fuse.add_argument("--output", default=None, help="output CSV (default stdout)")

    diagnose = sub.add_parser(
        "diagnose", help="per-module reliability report for a recorded CSV"
    )
    diagnose.add_argument("csv")
    diagnose.add_argument("--algorithm", default="avoc")

    tune = sub.add_parser("tune", help="search voting parameters on UC-1")
    tune.add_argument("--algorithm", default="avoc")
    tune.add_argument(
        "--method", choices=("grid", "genetic", "random"), default="grid"
    )
    tune.add_argument("--rounds", type=int, default=300)
    tune.add_argument(
        "--points", type=int, default=4,
        help="grid points per dimension, or GA generations",
    )
    tune.add_argument(
        "--trials", type=int, default=8,
        help="random-search trial count",
    )
    tune.add_argument("--seed", type=int, default=0)
    tune.add_argument(
        "--live", default=None, metavar="HOST:PORT",
        help="run trials against a running cluster gateway instead of "
        "in-process (bit-identical ranking; the cluster is reconfigured "
        "per trial)",
    )

    dashboard = sub.add_parser(
        "dashboard",
        help="serve the live-operations dashboard (HTML + /metrics + SSE)",
    )
    dashboard.add_argument(
        "--gateway", default=None, metavar="HOST:PORT",
        help="attach to a running cluster gateway (default: boot a local "
        "cluster)",
    )
    dashboard.add_argument("--spec", default=None, help="VDX document (default: AVOC)")
    dashboard.add_argument("--shards", type=int, default=2)
    dashboard.add_argument("--replicas", type=int, default=2)
    dashboard.add_argument(
        "--mode", choices=("process", "thread"), default=None,
        help="backend isolation for the booted cluster",
    )
    dashboard.add_argument(
        "--store", choices=STORE_KINDS, default=None,
        help="per-shard history storage tier for the booted cluster "
        "(default: packed)",
    )
    dashboard.add_argument("--host", default="127.0.0.1")
    dashboard.add_argument("--port", type=int, default=0)
    dashboard.add_argument(
        "--interval", type=float, default=2.0,
        help="seconds between snapshot/alert ticks",
    )
    dashboard.add_argument(
        "--rules", default=None, metavar="FILE",
        help="JSON list of alert rules (default: the stock rule set)",
    )
    dashboard.add_argument(
        "--alert-log", default=None, metavar="FILE",
        help="append one JSON line per alert transition to this file",
    )
    dashboard.add_argument(
        "--once", action="store_true",
        help="start, print the address, and exit (for scripting/tests)",
    )

    return parser


_COMMANDS = {
    "algorithms": _cmd_algorithms,
    "fig6": _cmd_fig6,
    "fig7": _cmd_fig7,
    "shelf": _cmd_shelf,
    "compare": _cmd_compare,
    "adversarial": _cmd_adversarial,
    "vdx": _cmd_vdx,
    "store": _cmd_store,
    "simulate": _cmd_simulate,
    "latency": _cmd_latency,
    "serve": _cmd_serve,
    "cluster": _cmd_cluster,
    "ingest": _cmd_ingest,
    "fuse": _cmd_fuse,
    "tune": _cmd_tune,
    "diagnose": _cmd_diagnose,
    "dashboard": _cmd_dashboard,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    status = _COMMANDS[args.command](args)
    if args.metrics:
        from .obs import get_default_registry

        rendered = get_default_registry().render()
        print("\n== metrics ==")
        print(rendered if rendered else "(no metrics collected)")
    return status


if __name__ == "__main__":
    sys.exit(main())
