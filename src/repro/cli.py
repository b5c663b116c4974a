"""Command-line interface: ``repro-choreo``.

The CLI exposes the paper's pipeline on process files (XML or DSL,
selected by extension ``.xml`` / anything else = DSL):

* ``compile FILE``            — public process + mapping table (Sect. 3.3)
* ``view FILE --partner P``   — τ_P view of the compiled process (Sect. 3.4)
* ``check FILE FILE``         — bilateral consistency via the lazy
  engine; ``--witness`` adds the streamed diagnosis, exit 1 when
  inconsistent
* ``sweep FILE FILE...``      — batched consistency sweep over all
  conversing pairs, optionally fanned out through the persistent
  evolution runtime (``--workers``, ``--repeat``, ``--stats``;
  ``--transport tcp --shard host:port`` dispatches to remote shard
  workers)
* ``shard-worker --listen H:P`` — serve sweep/migration chunks over
  the length-prefixed TCP transport for a remote runtime
* ``diff OLD NEW``            — additive/subtractive classification (Def. 5)
* ``propagate OLD NEW PARTNER_FILE`` — full variant-change propagation
  with region detection and edit suggestions (Sect. 5)
* ``simulate FILE FILE``      — run random conversations (deadlock probe;
  ``--log`` emits the executed message sequences as JSON)
* ``migrate OLD NEW``         — classify a running-instance fleet across
  an evolution step (migratable / pending / stranded)
* ``stats FILE``              — structural metrics of the public process
* ``export FILE``             — public process as JSON (partner exchange)
* ``demo``                    — run the paper's procurement scenario
* ``serve``                   — run the multi-tenant HTTP/JSON service
  (tenants register choreographies, submit evolutions, fetch or
  stream sweep/migration verdicts; see ``docs/API.md``)

Output is plain text (``--dot`` switches automaton output to Graphviz).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.afsa.serialize import afsa_to_dot
from repro.afsa.view import project_view
from repro.bpel.compile import compile_process
from repro.bpel.dsl import process_from_dsl
from repro.bpel.model import ProcessModel
from repro.bpel.xml_io import process_from_xml
from repro.core.classify import classify_against_partner, classify_change
from repro.core.propagate import propagate_additive, propagate_subtractive
from repro.core.suggestions import derive_suggestions
from repro.errors import ReproError
from repro.render import render_afsa, render_mapping, render_process


def load_process(path: str) -> ProcessModel:
    """Load a process from *path* (XML if the suffix is .xml, else DSL)."""
    text = Path(path).read_text(encoding="utf-8")
    if path.endswith(".xml"):
        return process_from_xml(text)
    return process_from_dsl(text)


def _emit_afsa(automaton, args) -> None:
    if args.dot:
        print(afsa_to_dot(automaton))
    else:
        print(render_afsa(automaton))


def cmd_compile(args) -> int:
    process = load_process(args.file)
    compiled = compile_process(process)
    print(render_process(process))
    print()
    _emit_afsa(compiled.afsa, args)
    print()
    print(render_mapping(compiled.mapping))
    return 0


def cmd_view(args) -> int:
    process = load_process(args.file)
    compiled = compile_process(process)
    view = project_view(compiled.afsa, args.partner)
    _emit_afsa(view, args)
    return 0


def cmd_check(args) -> int:
    from repro.core.sweep import WITNESS_ALL, WITNESS_NONE, check_pair

    left = compile_process(load_process(args.left))
    right = compile_process(load_process(args.right))
    left_view = project_view(left.afsa, right.process.party)
    right_view = project_view(right.afsa, left.process.party)
    consistent, witness = check_pair(
        left_view,
        right_view,
        WITNESS_ALL if args.witness else WITNESS_NONE,
    )
    status = "consistent" if consistent else "INCONSISTENT"
    print(
        f"{left.process.name} ↔ {right.process.name}: {status}"
    )
    if witness is not None:
        print(witness.describe())
    return 0 if consistent else 1


def cmd_sweep(args) -> int:
    from repro.core.choreography import Choreography
    from repro.core.runtime import EvolutionRuntime, get_runtime
    from repro.core.sweep import sweep_choreography

    choreography = Choreography("sweep")
    for path in args.files:
        choreography.add_partner(load_process(path))
    if args.transport == "tcp" and not args.shard:
        print("--transport tcp needs at least one --shard host:port")
        return 2
    fanned_out = bool(
        (args.workers and args.workers > 1) or args.transport == "tcp"
    )
    per_call = fanned_out and args.per_call_pool
    report = None
    stats_line = None
    owned = None
    try:
        if args.transport == "tcp":
            # Remote shards: one runtime holding the TCP connections
            # for every repeat, so worker-side caches get exercised
            # exactly like a persistent mp fleet's.
            owned = EvolutionRuntime(transport="tcp", shards=args.shard)
        workers = args.workers or (
            len(args.shard) if args.transport == "tcp" else 0
        )
        for _ in range(max(1, args.repeat)):
            if per_call and owned is None:
                # Throwaway runtime per sweep: pool spawn + kernel
                # publication are paid on *every* repeat — the cold
                # baseline the persistent default amortizes away (and
                # what the scaling bench measures).
                with EvolutionRuntime() as runtime:
                    report = sweep_choreography(
                        choreography,
                        witnesses=args.witnesses,
                        workers=workers,
                        runtime=runtime,
                        stop_on_first_inconsistency=args.fail_fast,
                    )
                    # Captured while the runtime is alive; shutdown
                    # unlinks the arena and would report empty
                    # counters.
                    stats_line = runtime.describe()
            else:
                report = sweep_choreography(
                    choreography,
                    witnesses=args.witnesses,
                    workers=workers,
                    runtime=owned,
                    stop_on_first_inconsistency=args.fail_fast,
                )
                stats_line = (owned or get_runtime()).describe()
    finally:
        if owned is not None:
            owned.shutdown()
    print(report.describe())
    if args.stats and fanned_out and stats_line is not None:
        print(stats_line)
    return 0 if report.consistent else 1


def cmd_shard_worker(args) -> int:
    from repro.core.transport import serve_shard

    try:
        serve_shard(args.listen)
    except KeyboardInterrupt:  # clean Ctrl-C for the quickstart
        pass
    return 0


def cmd_diff(args) -> int:
    from repro.bpel.diff import diff_processes, render_diff

    old_process = load_process(args.old)
    new_process = load_process(args.new)
    old = compile_process(old_process)
    new = compile_process(new_process)
    classification = classify_change(old.afsa, new.afsa)
    print(f"change framework (Def. 5): {classification.framework}")
    print()
    print("structural edits:")
    print(render_diff(diff_processes(old_process, new_process)))
    return 0


def cmd_propagate(args) -> int:
    old = compile_process(load_process(args.old))
    new = compile_process(load_process(args.new))
    partner = compile_process(load_process(args.partner))
    partner_party = partner.process.party

    partner_view = project_view(partner.afsa, old.process.party)
    classification = classify_against_partner(
        old.afsa, new.afsa, partner_view, partner=partner_party
    )
    print(f"classification: {classification.describe()}")
    if not classification.requires_propagation:
        print("invariant change - no propagation necessary")
        return 0

    results = []
    if classification.additive:
        results.append(
            propagate_additive(
                new.afsa, partner, partner_party,
                originator_party=old.process.party,
            )
        )
    if classification.subtractive:
        results.append(
            propagate_subtractive(
                new.afsa, partner, partner_party,
                originator_party=old.process.party,
            )
        )
    for result in results:
        print()
        print(result.describe())
        print()
        print("proposed public process of the partner:")
        _emit_afsa(result.proposed_public, args)
        for suggestion in derive_suggestions(partner, result):
            marker = "*" if suggestion.executable else "-"
            print(f"  {marker} {suggestion.description}")
    return 0


def cmd_simulate(args) -> int:
    import json

    from repro.afsa.simulate import simulate_conversation
    from repro.messages.label import label_text

    left = compile_process(load_process(args.left))
    right = compile_process(load_process(args.right))
    left_view = project_view(left.afsa, right.process.party)
    right_view = project_view(right.afsa, left.process.party)
    party_names = [left.process.party, right.process.party]
    deadlocks = 0
    log: list = []
    log_to_stdout = args.log == "-"
    info = sys.stderr if log_to_stdout else sys.stdout
    for index in range(args.runs):
        result = simulate_conversation(
            [left_view, right_view],
            seed=args.seed + index,
            party_names=party_names,
        )
        if args.verbose or result.deadlocked:
            print(f"run {index}: {result.describe()}", file=info)
        if result.deadlocked:
            deadlocks += 1
        if args.log:
            log.append(
                {
                    "run": index,
                    "outcome": result.outcome,
                    "trace": [
                        label_text(label) for label in result.trace
                    ],
                    "blocked_on": (
                        label_text(result.blocked_on)
                        if result.blocked_on is not None
                        else None
                    ),
                }
            )
    if args.log:
        payload = json.dumps(log, indent=2)
        if log_to_stdout:
            print(payload)
        else:
            Path(args.log).write_text(payload + "\n", encoding="utf-8")
    # With --log -, stdout must stay valid JSON (pipeable straight into
    # `migrate --traces`), so all human-readable lines go to stderr.
    print(
        f"{args.runs} conversations, {deadlocks} deadlock(s) "
        f"({left.process.name} ↔ {right.process.name})",
        file=info,
    )
    # Non-zero on deadlock: scripts (and CI) can gate on the probe.
    return 1 if deadlocks else 0


def cmd_migrate(args) -> int:
    import json

    from repro.instances.migrate import classify_migration
    from repro.instances.store import InstanceStore
    from repro.workload.fleet import generate_fleet

    old = compile_process(load_process(args.old))
    new = compile_process(load_process(args.new))
    old_model = old.afsa
    new_model = new.afsa
    if args.view:
        # Bilateral logs (e.g. from `simulate --log`) contain only the
        # messages of one conversation; they replay against the τ_P
        # views, not the full public processes (which interleave other
        # partners' messages the log never saw).
        old_model = project_view(old_model, args.view)
        new_model = project_view(new_model, args.view)
    old_version = f"{old.process.party}#v1"
    new_version = f"{new.process.party}#v2"

    store = InstanceStore()
    for path in args.traces or ():
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(payload, list):
            payload = [payload]
        for entry in payload:
            trace = entry["trace"] if isinstance(entry, dict) else entry
            store.add(old_version, trace)
    fleet = args.fleet
    if fleet is None:
        # Generate the default fleet only when the operator gave no
        # trace logs at all — an *empty* recorded log must classify as
        # 0 instances, not silently substitute synthetic traffic.
        fleet = 0 if args.traces else 1000
    if fleet:
        generate_fleet(
            old_model,
            fleet,
            seed=args.seed,
            version=old_version,
            distinct=args.distinct,
            store=store,
        )

    from repro.core.runtime import EvolutionRuntime

    owned = None
    runtime = None
    if args.workers and args.workers > 1 and args.per_call_pool:
        owned = runtime = EvolutionRuntime(workers=args.workers)
    try:
        report = classify_migration(
            store,
            old_model,
            new_model,
            version=old_version,
            new_version=new_version,
            workers=args.workers,
            apply=True,
            runtime=runtime,
        )
    finally:
        if owned is not None:
            owned.shutdown()
    if args.json:
        print(
            json.dumps(
                {
                    "old": old.process.name,
                    "new": new.process.name,
                    "instances": len(store),
                    "classes": report.classes,
                    "counts": report.counts,
                    "verdicts": [
                        {
                            "instance": entry.instance,
                            "verdict": entry.verdict,
                            "continuation": entry.continuation,
                            "blocked_on": entry.blocked_on,
                            "compliant_with_old": entry.compliant_with_old,
                        }
                        for entry in report.verdicts
                    ],
                },
                indent=2,
            )
        )
    else:
        print(
            f"{old.process.name} → {new.process.name}: "
            f"{len(store)} running instance(s)"
        )
        print(report.describe())
        # Sample continuations per *class* — the human path never
        # expands the per-instance verdict list (O(classes), not
        # O(fleet), matching the report's lazy design).
        shown = 0
        for entry in report.class_verdicts:
            if shown >= 3:
                break
            if entry.verdict != "migratable" or entry.continuation is None:
                continue
            rendered = " ".join(entry.continuation) or "(none needed)"
            print(
                f"  {len(entry.records)} instance(s) continue: {rendered}"
            )
            shown += 1
    return 1 if report.counts.get("stranded", 0) else 0


def cmd_stats(args) -> int:
    from repro.afsa.metrics import compute_metrics

    compiled = compile_process(load_process(args.file))
    print(f"public process of {compiled.process.name}:")
    print(compute_metrics(compiled.afsa).render())
    return 0


def cmd_export(args) -> int:
    from repro.afsa.serialize import afsa_to_json

    compiled = compile_process(load_process(args.file))
    automaton = compiled.afsa
    if args.partner:
        automaton = project_view(automaton, args.partner)
    print(afsa_to_json(automaton))
    return 0


def cmd_serve(args) -> int:
    import asyncio

    from repro.service.app import ChoreoService, run_server

    service = ChoreoService(
        workers=args.workers,
        max_inflight_total=args.max_inflight,
        max_resident=args.max_resident,
    )

    def ready(bound) -> None:
        host, port = bound
        print(f"repro service listening on http://{host}:{port}")
        print("  GET  /healthz   liveness + counters")
        print("  GET  /metrics   Prometheus exposition")
        print("  docs: docs/API.md")

    try:
        asyncio.run(
            run_server(service, host=args.host, port=args.port, ready=ready)
        )
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        service.close()
    return 0


def cmd_demo(args) -> int:
    from repro.core.choreography import Choreography
    from repro.core.engine import EvolutionEngine
    from repro.scenario.procurement import (
        accounting_private,
        accounting_private_subtractive_change,
        accounting_private_variant_change,
        buyer_private,
        logistics_private,
    )

    choreography = Choreography("procurement")
    choreography.add_partner(buyer_private())
    choreography.add_partner(accounting_private())
    choreography.add_partner(logistics_private())
    print("initial consistency (Sect. 3):")
    print(choreography.check_consistency().describe())
    engine = EvolutionEngine(choreography)

    print("\nvariant additive change (Sect. 5.2, cancel option):")
    report = engine.apply_private_change(
        "A",
        accounting_private_variant_change(),
        auto_adapt=True,
        commit=False,
    )
    print(report.describe())

    print("\nvariant subtractive change (Sect. 5.3, bounded tracking):")
    report = engine.apply_private_change(
        "A",
        accounting_private_subtractive_change(),
        auto_adapt=True,
        commit=False,
    )
    print(report.describe())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-choreo",
        description=(
            "Controlled evolution of process choreographies "
            "(Rinderle/Wombacher/Reichert, ICDE 2006)"
        ),
    )
    parser.add_argument(
        "--dot",
        action="store_true",
        help="emit automata as Graphviz DOT instead of text",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    compile_cmd = commands.add_parser(
        "compile", help="compile a private process to its public aFSA"
    )
    compile_cmd.add_argument("file")
    compile_cmd.set_defaults(handler=cmd_compile)

    view_cmd = commands.add_parser(
        "view", help="project the τ_P view of a compiled process"
    )
    view_cmd.add_argument("file")
    view_cmd.add_argument("--partner", required=True)
    view_cmd.set_defaults(handler=cmd_view)

    check_cmd = commands.add_parser(
        "check",
        help="check bilateral consistency of two processes "
        "(exit 1 when inconsistent)",
    )
    check_cmd.add_argument("left")
    check_cmd.add_argument("right")
    check_cmd.add_argument(
        "--witness",
        action="store_true",
        help="print the diagnosis: the shortest common conversation, "
        "or the blocked states and their unsupported mandatory "
        "messages",
    )
    check_cmd.set_defaults(handler=cmd_check)

    sweep_cmd = commands.add_parser(
        "sweep",
        help="batched consistency sweep over all conversing pairs of "
        "the given processes (exit 1 on any inconsistent pair)",
    )
    sweep_cmd.add_argument("files", nargs="+")
    sweep_cmd.add_argument(
        "--witnesses",
        choices=["none", "failures", "all"],
        default="failures",
        help="witness policy (default: diagnose failures only)",
    )
    sweep_cmd.add_argument(
        "--workers",
        type=int,
        default=0,
        help="fan the pair grid out through the persistent evolution "
        "runtime (verdicts are identical for every worker count)",
    )
    sweep_cmd.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="sweep N times (repeats hit the verdict cache and ship "
        "zero kernel payloads — the persistent-runtime demo)",
    )
    sweep_cmd.add_argument(
        "--per-call-pool",
        action="store_true",
        help="use a throwaway worker pool + arena per invocation "
        "instead of the persistent runtime (the cold baseline)",
    )
    sweep_cmd.add_argument(
        "--stats",
        action="store_true",
        help="print runtime pool/arena counters after the sweep",
    )
    sweep_cmd.add_argument(
        "--transport",
        choices=["mp", "tcp"],
        default="mp",
        help="where shards live: forked local shards (default) or "
        "remote TCP shard workers (--shard)",
    )
    sweep_cmd.add_argument(
        "--shard",
        action="append",
        default=[],
        metavar="HOST:PORT",
        help="address of a running `repro shard-worker` (repeatable; "
        "implies the TCP fleet size)",
    )
    sweep_cmd.add_argument(
        "--fail-fast",
        action="store_true",
        help="stop at the first inconsistent pair and cancel "
        "outstanding chunks (undecided pairs are reported)",
    )
    sweep_cmd.set_defaults(handler=cmd_sweep)

    shard_cmd = commands.add_parser(
        "shard-worker",
        help="serve sweep/migration chunks over TCP for a remote "
        "runtime (`--transport tcp --shard host:port`)",
    )
    shard_cmd.add_argument(
        "--listen",
        default="127.0.0.1:0",
        metavar="HOST:PORT",
        help="bind address (port 0 picks an ephemeral port; the "
        "actual address is announced on stdout)",
    )
    shard_cmd.set_defaults(handler=cmd_shard_worker)

    diff_cmd = commands.add_parser(
        "diff", help="classify a change between two process versions"
    )
    diff_cmd.add_argument("old")
    diff_cmd.add_argument("new")
    diff_cmd.set_defaults(handler=cmd_diff)

    propagate_cmd = commands.add_parser(
        "propagate",
        help="propagate a variant change to a partner process",
    )
    propagate_cmd.add_argument("old")
    propagate_cmd.add_argument("new")
    propagate_cmd.add_argument("partner")
    propagate_cmd.set_defaults(handler=cmd_propagate)

    simulate_cmd = commands.add_parser(
        "simulate",
        help="execute random conversations between two processes",
    )
    simulate_cmd.add_argument("left")
    simulate_cmd.add_argument("right")
    simulate_cmd.add_argument("--runs", type=int, default=20)
    simulate_cmd.add_argument("--seed", type=int, default=0)
    simulate_cmd.add_argument("--verbose", action="store_true")
    simulate_cmd.add_argument(
        "--log",
        default="",
        metavar="FILE",
        help="write the executed message sequences as JSON (one entry "
        "per run; '-' for stdout) — directly consumable as instance "
        "traces by 'migrate --traces'",
    )
    simulate_cmd.set_defaults(handler=cmd_simulate)

    migrate_cmd = commands.add_parser(
        "migrate",
        help="classify a running-instance fleet across an evolution "
        "step (old process version → new process version)",
    )
    migrate_cmd.add_argument("old")
    migrate_cmd.add_argument("new")
    migrate_cmd.add_argument(
        "--fleet",
        type=int,
        default=None,
        metavar="N",
        help="generate N instances from the old model (default 1000 "
        "when no --traces are given)",
    )
    migrate_cmd.add_argument("--seed", type=int, default=0)
    migrate_cmd.add_argument(
        "--distinct",
        type=int,
        default=16,
        help="base traces in the generated fleet (prefix sharing)",
    )
    migrate_cmd.add_argument(
        "--traces",
        action="append",
        metavar="FILE",
        help="add instances from a JSON trace log (as written by "
        "'simulate --log'); may be repeated",
    )
    migrate_cmd.add_argument(
        "--view",
        default="",
        metavar="PARTNER",
        help="classify against the τ_PARTNER views instead of the full "
        "public processes (use with bilateral logs from 'simulate "
        "--log', which only contain one conversation's messages)",
    )
    migrate_cmd.add_argument(
        "--workers",
        type=int,
        default=0,
        help="fan the trace classes out over worker processes "
        "(verdicts are identical for every worker count)",
    )
    migrate_cmd.add_argument(
        "--per-call-pool",
        action="store_true",
        help="use a throwaway worker pool + arena instead of the "
        "persistent evolution runtime",
    )
    migrate_cmd.add_argument(
        "--json",
        action="store_true",
        help="emit the full migration report as JSON",
    )
    migrate_cmd.set_defaults(handler=cmd_migrate)

    stats_cmd = commands.add_parser(
        "stats", help="structural metrics of a compiled public process"
    )
    stats_cmd.add_argument("file")
    stats_cmd.set_defaults(handler=cmd_stats)

    export_cmd = commands.add_parser(
        "export",
        help="emit the compiled public process (optionally a view) as "
        "JSON",
    )
    export_cmd.add_argument("file")
    export_cmd.add_argument("--partner", default="")
    export_cmd.set_defaults(handler=cmd_export)

    demo_cmd = commands.add_parser(
        "demo", help="run the paper's procurement scenario end to end"
    )
    demo_cmd.set_defaults(handler=cmd_demo)

    serve_cmd = commands.add_parser(
        "serve",
        help="run the multi-tenant HTTP/JSON choreography service "
        "(see docs/API.md)",
    )
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument("--port", type=int, default=8642)
    serve_cmd.add_argument(
        "--workers",
        type=int,
        default=0,
        help="default fan-out width for sweeps/migrations (0 = serial "
        "on the engine thread; verdicts are identical either way)",
    )
    serve_cmd.add_argument(
        "--max-inflight",
        type=int,
        default=256,
        help="service-wide cap on admitted in-flight requests",
    )
    serve_cmd.add_argument(
        "--max-resident",
        type=int,
        default=64,
        help="service-wide cap on resident choreographies (past it, "
        "lowest-priority/least-recently-used sessions are evicted)",
    )
    serve_cmd.set_defaults(handler=cmd_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
