"""Command-line interface: serve, audit, attack, and analyze from a shell.

::

    python -m repro serve  --app wiki --requests 100 --store-path run/
    python -m repro audit  --app wiki --store-path run/
    python -m repro attack --app wiki --store-path run/ --name tamper-response
    python -m repro analyze --app wiki
    python -m repro lint wiki --crosscheck

``audit`` exits 0 on ACCEPT and 3 on REJECT so it can gate deployments;
``lint`` exits 0 when clean and 4 on violations so it can gate merges.
Any command exits 1 when the reader of its stdout closes early.
The analysis subcommands (``lint``, ``analyze``) are offline tools: no
audit consults them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.advice.sizing import advice_size_bytes
from repro.analysis import analyze_app, suggest_annotations
from repro.apps import APP_NAMES, app_needs_store, make_app
from repro.attacks import ALL_ATTACKS
from repro.kem.scheduler import RandomScheduler
from repro.kem.threaded import ThreadedRuntime
from repro.server import KarousosPolicy, OrochiPolicy, UnmodifiedPolicy, run_server
from repro.store import IsolationLevel, KVStore
from repro.storage import backend_for
from repro.verifier.dag.plan import PLAN_SPEC
from repro.workload import workload_for

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_USAGE = 2
EXIT_REJECTED = 3
EXIT_LINT = 4

_POLICIES = {
    "karousos": KarousosPolicy,
    "orochi": OrochiPolicy,
    "unmodified": UnmodifiedPolicy,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Karousos (EuroSys 2024) -- serve, audit, and analyze "
        "event-driven web applications.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="serve a synthetic workload")
    serve.add_argument("--app", required=True, choices=APP_NAMES)
    serve.add_argument("--requests", type=int, default=100)
    serve.add_argument("--mix", default="mixed",
                       choices=["mixed", "read-heavy", "write-heavy"])
    serve.add_argument("--concurrency", type=int, default=8)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--server", default="karousos", choices=sorted(_POLICIES))
    serve.add_argument(
        "--isolation",
        default="serializable",
        choices=[level.value for level in IsolationLevel],
    )
    serve.add_argument("--threads", type=int, default=0,
                       help="run on the threaded KEM runtime with N workers")
    serve.add_argument("--seal-every", type=int, default=0, metavar="N",
                       help="seal an epoch stream into the store after every "
                       "N responses (continuous auditing); 0 seals the whole "
                       "run as one epoch")
    _add_store_args(serve)
    _add_obs_args(serve)

    aud = sub.add_parser(
        "audit",
        help="audit a served store's sealed epochs in order, resuming from "
        "the store's own checkpoints and journal",
    )
    aud.add_argument("--app", required=True, choices=APP_NAMES)
    aud.add_argument("--jobs", type=int, default=1,
                     help="1 (default) runs serially; N > 1 shards "
                     "re-execution groups across N worker processes "
                     "(in-process, with a diagnostic, when the inputs do "
                     "not pickle); verdict-identical either way")
    aud.add_argument("--format", default="text", choices=["text", "json"],
                     help="verdict output: human text (default) or one "
                     "machine-readable JSON object on stdout")
    aud.add_argument("--explain", action="store_true",
                     help="on REJECT, replay with singleton groups and print "
                     "a divergence report: the first diverging operation "
                     "(handler, key, expected vs claimed) plus its "
                     "precedence chain; --format json attaches it under "
                     "'explain'")
    _add_store_args(aud)
    _add_obs_args(aud)
    aud.add_argument("--dedup", action="store_true",
                     help="deduplicated re-execution: digest-identical groups "
                     "execute once per audit, across its epochs, through an "
                     "in-memory verdict cache (verdicts provably unchanged; "
                     "see DESIGN.md §11)")
    aud.add_argument("--node-journal", metavar="DIR",
                     help="journal each re-executed group's result here "
                     "(digest-chained); a later audit of the same inputs "
                     "replays them, so after a kill only the unfinished "
                     "frontier re-executes")

    svc = sub.add_parser(
        "serve-audit",
        help="fleet audit daemon: multiplex N tenant epoch streams over "
        "one shared DAG scheduler (DESIGN.md §13)",
    )
    svc.add_argument("--tenant", action="append", required=True,
                     metavar="SPEC", dest="tenants",
                     help="one tenant: app=NAME,store=DIR[,quota=N][,name=X]"
                     "[,max_pending=N][,scheme=file|gzip][,state=DIR] "
                     "(repeatable); quota = re-execution tokens per fair "
                     "round, 0 = unlimited")
    svc.add_argument("--state-dir", required=True, metavar="DIR",
                     help="service state root: per-tenant checkpoint chains, "
                     "audit journals, and node journals live under "
                     "DIR/<tenant>/ (the resume substrate)")
    svc.add_argument("--jobs", type=int, default=1,
                     help="1 (default) runs the shared pool serially; N > 1 "
                     "runs it on N worker processes")
    svc.add_argument("--no-quotas", action="store_true",
                     help="disable per-tenant quotas and fair scheduling: "
                     "strict FIFO admission order (exhibits super-producer "
                     "head-of-line blocking)")
    svc.add_argument("--once", action="store_true",
                     help="batch mode: exit once every source is exhausted "
                     "and all queues drained, instead of running forever")
    svc.add_argument("--status-port", type=int, metavar="PORT",
                     help="serve GET /healthz and /metrics.json on this "
                     "port (0 = ephemeral)")
    svc.add_argument("--metrics-out", metavar="FILE",
                     help="periodically write the fleet repro.metrics/1 "
                     "snapshot here (atomic replace)")
    svc.add_argument("--metrics-every", type=float, default=2.0,
                     metavar="SECONDS",
                     help="--metrics-out refresh period (default 2.0)")
    svc.add_argument("--poll-interval", type=float, default=0.05,
                     metavar="SECONDS",
                     help="longest idle wait between source polls when no "
                     "store event arrives; a sealed epoch landing in a "
                     "watched store ends the wait at once (default 0.05)")
    svc.add_argument("--torn-limit", type=int, default=16, metavar="N",
                     help="consecutive failed decodes of one epoch before "
                     "its stream is classified corrupt instead of mid-seal; "
                     "--once then rejects the tenant (reason=input-format) "
                     "rather than waiting forever; 0 = retry forever "
                     "(default 16)")
    svc.add_argument("--dedup", action="store_true",
                     help="share one in-memory cross-tenant verdict cache "
                     "(per-tenant hit/miss attribution in the fleet "
                     "snapshot)")
    svc.add_argument("--format", default="text", choices=["text", "json"],
                     help="final per-tenant summary: human text (default) "
                     "or one JSON document on stdout")

    plan = sub.add_parser(
        "plan",
        help="compile an audit to its execution DAG without running it",
    )
    plan.add_argument("--app", required=True, choices=APP_NAMES)
    _add_store_args(plan)
    plan.add_argument("--dedup", action="store_true",
                      help="plan with the dedup barrier armed")
    plan.add_argument("--format", default="text", choices=["text", "json"],
                      help=f"human text (default) or one {PLAN_SPEC} JSON "
                      "document per epoch, one per line, on stdout")

    attack = sub.add_parser(
        "attack",
        help="tamper with the first stored epoch an attack has a target in, "
        "then audit the stream in memory",
    )
    attack.add_argument("--app", required=True, choices=APP_NAMES)
    attack.add_argument("--name", required=True,
                        choices=[a.name for a in ALL_ATTACKS])
    _add_store_args(attack)

    analyze = sub.add_parser(
        "analyze",
        help="static analysis: the loggable-variable table",
    )
    analyze.add_argument("--app", required=True, choices=APP_NAMES)

    lint = sub.add_parser(
        "lint",
        help="instrumentation-completeness linter (is the app valid "
        "transpiler output?)",
    )
    lint.add_argument("app", choices=APP_NAMES)
    lint.add_argument("--crosscheck", action="store_true",
                      help="also serve a workload with recording handlers and "
                      "diff observed footprints against the static prediction")
    lint.add_argument("--requests", type=int, default=80,
                      help="crosscheck workload size (default 80)")
    lint.add_argument("--seed", type=int, default=0)
    lint.add_argument("--format", default="text", choices=["text", "json"])
    lint.add_argument("--fail-on", default="error", choices=["warn", "error"],
                      help="threshold for exit code 4 (default: error)")

    fuzz = sub.add_parser(
        "fuzz",
        help="adversarial-advice fuzzer: property-based soundness/"
        "completeness campaign over the schema-derived mutation surface",
    )
    fuzz.add_argument("--app", action="append",
                      choices=APP_NAMES,
                      help="restrict to this app (repeatable; default: all)")
    fuzz.add_argument("--property", default="both",
                      choices=["soundness", "completeness", "both"],
                      help="which audit contract to fuzz (default: both)")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="campaign seed (deterministic exploration)")
    fuzz.add_argument("--max-examples", type=int, default=100,
                      help="hypothesis examples per property (default 100)")
    fuzz.add_argument("--max-requests", type=int, default=14,
                      help="largest generated workload (default 14)")
    fuzz.add_argument("--op", action="append", metavar="NAME",
                      help="restrict soundness to this mutation operator "
                      "(repeatable; see repro.fuzz.surface)")
    fuzz.add_argument("--corpus", metavar="DIR",
                      help="reproducer corpus: replayed before exploration, "
                      "and new escapes are persisted here")
    fuzz.add_argument("--format", default="text", choices=["text", "json"])
    _add_obs_args(fuzz)

    sub.add_parser("list-attacks", help="list the attack library")
    return parser


def _add_store_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--store", default="file", choices=["file", "gzip"],
                     help="record-stream backend of the store directory "
                     "(default file; gzip compresses every stream)")
    sub.add_argument("--store-path", metavar="DIR",
                     help="the run's store directory (required): serve writes "
                     "its sealed-epoch and binlog streams here; audit, plan "
                     "and attack read the epochs, and audit keeps its "
                     "checkpoints and journal here")


def _add_obs_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--metrics-out", metavar="FILE",
                     help="write the run's metrics registry here as JSON "
                     "(schema repro.metrics/1; enables metrics collection)")
    sub.add_argument("--progress", action="store_true",
                     help="report per-stage (audit) / per-epoch (serve) "
                     "progress on stderr")


def _make_metrics(args):
    """A live registry when --metrics-out asked for one, else None (the
    instrumented layers then run on the no-op NullMetrics)."""
    if not getattr(args, "metrics_out", None):
        return None
    from repro.obs import MetricsRegistry

    return MetricsRegistry()


def _write_metrics(args, metrics) -> None:
    if metrics is None or not getattr(args, "metrics_out", None):
        return
    with open(args.metrics_out, "w") as fh:
        fh.write(metrics.to_json())
        fh.write("\n")
    print(f"metrics -> {args.metrics_out}", file=sys.stderr)


def _progress_hook(args):
    """The audit engine's per-node hook behind --progress."""
    if not getattr(args, "progress", False):
        return None

    def hook(stage: str, seconds: float) -> None:
        print(f"progress: {stage} {seconds:.3f}s", file=sys.stderr)

    return hook


def _store_usage_error(args) -> Optional[str]:
    """Flag validation shared by every store command; None when consistent."""
    if not args.store_path:
        return "--store-path is required"
    return None


def _make_node_journal(args, metrics=None):
    """A NodeJournal over a file backend for --node-journal, else None."""
    if not getattr(args, "node_journal", None):
        return None
    from repro.verifier.dag import NodeJournal

    return NodeJournal(backend_for("file", args.node_journal, metrics=metrics))


def _store_backend(args, metrics=None):
    """The store directory named by --store/--store-path."""
    return backend_for(args.store, args.store_path, metrics=metrics)


def _no_epochs(args, backend) -> bool:
    """True, after a usage message, when serve left no epoch in the store."""
    from repro.continuous.codec import list_epoch_streams

    if list_epoch_streams(backend):
        return False
    print(f"error: no epoch streams in {args.store_path}", file=sys.stderr)
    return True


class _UnreadableEpoch(Exception):
    """A stored epoch stream that does not decode: ``plan`` and ``attack``
    report it as an unusable store (``audit`` REJECTs it)."""


def _readable_epochs(backend):
    """The store's epochs, like :func:`iter_epochs_stored`, except that a
    stream that does not decode raises :class:`_UnreadableEpoch` naming
    it."""
    from repro.continuous.codec import list_epoch_streams, read_epoch_stream
    from repro.errors import AdviceFormatError

    for name in list_epoch_streams(backend):
        try:
            with backend.reader(name) as reader:
                epoch = read_epoch_stream(reader, name)
        except AdviceFormatError as exc:
            raise _UnreadableEpoch(f"epoch stream {name} is unreadable: {exc}") from exc
        yield epoch


def _cmd_serve(args) -> int:
    usage = _store_usage_error(args)
    if usage is not None:
        print(f"error: {usage}", file=sys.stderr)
        return EXIT_USAGE
    metrics = _make_metrics(args)
    backend = _store_backend(args, metrics=metrics)
    app = make_app(args.app)
    requests = workload_for(args.app, args.requests, mix=args.mix, seed=args.seed)
    store = (
        KVStore(IsolationLevel(args.isolation), binlog_backend=backend,
                metrics=metrics)
        if app_needs_store(args.app)
        else None
    )
    policy = _POLICIES[args.server]()
    if args.seal_every < 0:
        print("error: --seal-every must be >= 0", file=sys.stderr)
        return EXIT_USAGE
    if args.seal_every and args.threads > 0:
        # The threaded runtime has no quiescent drain hook: it seals the
        # whole run as one epoch once serving ends.
        print("error: --seal-every is not supported with --threads",
              file=sys.stderr)
        return EXIT_USAGE
    from repro.continuous import EpochSealer
    from repro.continuous.codec import write_epoch_stored

    def sink(epoch):
        write_epoch_stored(backend, epoch)
        if args.progress:
            print(f"progress: sealed epoch {epoch.index} "
                  f"({epoch.request_count} requests)", file=sys.stderr)

    # Sealed epochs are the one stored form of a served run; with
    # --seal-every 0 the end-of-serve flush seals it whole as epoch 0.
    sealer = EpochSealer(args.seal_every, sink=sink)
    if args.threads > 0:
        runtime = ThreadedRuntime(
            app, policy, store=store, scheduler=RandomScheduler(args.seed),
            concurrency=args.concurrency, parallelism=args.threads,
            metrics=metrics,
        )
        policy.runtime = runtime
        sealer.attach(runtime)
        runtime.serve(requests)
        sealer.flush()
        advice = policy.advice()
    else:
        advice = run_server(
            app, requests, policy, store=store,
            scheduler=RandomScheduler(args.seed), concurrency=args.concurrency,
            sealer=sealer, metrics=metrics,
        ).advice
    print(f"served {len(requests)} requests on the {args.server} server")
    print(f"sealed {len(sealer.epochs)} epochs")
    if advice is not None:
        print(f"advice: {advice_size_bytes(advice)} bytes, "
              f"{len(set(advice.tags.values()))} re-execution groups")
    if store is not None:
        store.binlog.seal()
    print(f"store ({args.store}) -> {args.store_path}: "
          f"{', '.join(backend.list_streams())}")
    _write_metrics(args, metrics)
    return EXIT_OK


def _cmd_audit(args) -> int:
    usage = _store_usage_error(args) or (
        "--jobs must be >= 1" if args.jobs < 1 else None
    )
    if usage is not None:
        print(f"error: {usage}", file=sys.stderr)
        return EXIT_USAGE
    from repro.continuous import CheckpointError
    from repro.errors import AdviceFormatError

    try:
        return _dispatch_audit(args)
    except (AdviceFormatError, CheckpointError) as exc:
        # Corrupt, truncated, or otherwise malformed stored state -- the
        # served streams or the auditor's own checkpoints and journal,
        # including a failed record CRC -- is a rejection, never a crash.
        if args.format == "json":
            print(json.dumps({
                "accepted": False, "reason": "input-format",
                "detail": str(exc), "stats": {},
            }, sort_keys=True))
        else:
            print("REJECT  reason=input-format")
            print(f"        {exc}")
        return EXIT_REJECTED


def _dispatch_audit(args) -> int:
    from repro.continuous import (
        AuditJournal,
        CheckpointStore,
        ContinuousAuditor,
        iter_epochs_stored,
    )
    from repro.verifier.dedup import Deduplicator

    metrics = _make_metrics(args)
    backend = _store_backend(args, metrics=metrics)
    if _no_epochs(args, backend):
        return EXIT_USAGE
    # Checkpoints and journal live as record streams in the same store,
    # so a crashed audit resumes on re-run.  Epochs are read lazily, one
    # resident at a time (O(epoch) memory).
    checkpoints = CheckpointStore(backend=backend)
    journal = AuditJournal(backend=backend)
    auditor = ContinuousAuditor(
        make_app(args.app), checkpoints=checkpoints, journal=journal,
        parallelism=args.jobs, metrics=metrics, progress=_progress_hook(args),
        dedup=Deduplicator() if args.dedup else None,
        node_journal=_make_node_journal(args, metrics),
    )
    try:
        verdicts = auditor.run(iter_epochs_stored(backend))
    finally:
        checkpoints.close()
        journal.close()
    _write_metrics(args, metrics)
    stats = auditor.stats()
    rejection = auditor.first_rejection
    accepted = rejection is None and all(v.accepted for v in verdicts)
    report = (
        _explain_report(args, backend, checkpoints, rejection)
        if rejection is not None and args.explain
        else None
    )
    if args.format == "json":
        doc = {
            "accepted": accepted,
            "reason": "accepted" if rejection is None else rejection.result.reason,
            "detail": "" if rejection is None else rejection.result.detail,
            "stats": stats,
            "resumed_epochs": auditor.skipped_resumed,
            "epochs": [v.as_doc() for v in verdicts],
        }
        if report is not None:
            doc["explain"] = report.as_json()
        print(json.dumps(doc, sort_keys=True))
        return EXIT_OK if accepted else EXIT_REJECTED
    if auditor.skipped_resumed:
        print(f"resumed: {auditor.skipped_resumed} epochs already verified")
    for verdict in verdicts:
        if verdict.accepted:
            digest = (verdict.checkpoint_digest or "")[:12]
            print(f"epoch {verdict.epoch}: ACCEPT  checkpoint {digest}")
        else:
            print(f"epoch {verdict.epoch}: REJECT  reason={verdict.result.reason}")
            if verdict.result.detail:
                print(f"        {verdict.result.detail}")
            if report is not None and verdict.epoch == rejection.epoch:
                print(report.as_text())
    print(f"{stats['epochs']:.0f} epochs, "
          f"{stats['epochs_accepted']:.0f} accepted "
          f"({stats['elapsed_seconds']:.3f}s audit time)")
    if not accepted:
        return EXIT_REJECTED
    return EXIT_OK


def _explain_report(args, backend, checkpoints, rejection):
    """The --explain divergence report of the stream's first rejection:
    its epoch is re-read and replayed from its parent checkpoint with
    singleton groups, localising the first diverging operation.  A
    rejection decided before re-execution (a forged chain, an epoch
    without advice, a missing checkpoint) has nothing to replay and
    reports its own site."""
    from repro.continuous.codec import epoch_stream_name, read_epoch_stream
    from repro.verifier.explain import explain_rejection, report_from_result

    index, result = rejection.epoch, rejection.result
    if not result.stage:  # only ContinuousAuditor's preflight has none
        return report_from_result(result, epoch=index)
    name = epoch_stream_name(index)
    with backend.reader(name) as reader:
        epoch = read_epoch_stream(reader, name)
    parent = checkpoints.get(index - 1) if index > 0 else None
    return explain_rejection(make_app(args.app), epoch, parent, result)


def _cmd_serve_audit(args) -> int:
    import signal

    from repro.service import AuditService, parse_tenant_spec

    try:
        tenants = [parse_tenant_spec(spec) for spec in args.tenants]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        service = AuditService(
            tenants,
            state_dir=args.state_dir,
            scheduler="process" if args.jobs > 1 else "serial",
            jobs=args.jobs,
            quotas_enabled=not args.no_quotas,
            dedup=args.dedup,
            status_port=args.status_port,
            metrics_out=args.metrics_out,
            metrics_every=args.metrics_every,
            poll_interval=args.poll_interval,
            torn_limit=args.torn_limit,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    def _drain(signum, frame):  # noqa: ARG001 (signal API)
        service.request_stop()

    previous = {
        sig: signal.signal(sig, _drain)
        for sig in (signal.SIGTERM, signal.SIGINT)
    }
    try:
        audited = service.run(once=args.once)
    finally:
        for sig, old in previous.items():
            signal.signal(sig, old)
    summary = service.summary()
    if args.format == "json":
        print(json.dumps({"audited": audited, **summary}, sort_keys=True))
    else:
        for name in sorted(summary["tenants"]):
            doc = summary["tenants"][name]
            verdict = "ACCEPT" if doc["accepted"] else (
                f"REJECT reason={doc['reason']}"
            )
            print(f"tenant {name} ({doc['app']}): {verdict}  "
                  f"{len(doc['epochs'])} epochs")
        print(f"{audited} epochs audited, {summary['ticks']} ticks, "
              f"{summary['quota_rounds']} quota rounds")
    rejected = any(
        not doc["accepted"] for doc in summary["tenants"].values()
    )
    return EXIT_REJECTED if rejected else EXIT_OK


def _cmd_plan(args) -> int:
    usage = _store_usage_error(args)
    if usage is not None:
        print(f"error: {usage}", file=sys.stderr)
        return EXIT_USAGE
    from repro.verifier.dag import PlanError, compile_plan, format_plan_text, validate_plan

    # One plan per epoch, exactly the plans `audit` compiles and journals.
    backend = _store_backend(args)
    if _no_epochs(args, backend):
        return EXIT_USAGE
    try:
        for epoch in _readable_epochs(backend):
            plan = compile_plan(args.app, epoch, dedup=args.dedup)
            validate_plan(plan)
            print(plan.to_json() if args.format == "json" else format_plan_text(plan))
    except (PlanError, _UnreadableEpoch) as exc:  # no advice, or no epoch
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def _cmd_attack(args) -> int:
    usage = _store_usage_error(args)
    if usage is not None:
        print(f"error: {usage}", file=sys.stderr)
        return EXIT_USAGE
    from repro.continuous import ContinuousAuditor, Epoch

    backend = _store_backend(args)
    if _no_epochs(args, backend):
        return EXIT_USAGE
    attack = next(a for a in ALL_ATTACKS if a.name == args.name)
    try:
        tampered = None
        for epoch in _readable_epochs(backend):
            try:
                if epoch.advice is None:
                    raise LookupError(f"epoch {epoch.index} carries no advice")
                trace, advice = attack.apply(epoch.trace, epoch.advice)
            except LookupError as exc:
                miss = exc
                continue
            tampered = Epoch(epoch.index, trace, advice, epoch.binlog_range)
            break
        if tampered is None:
            print(f"attack has no target in this run: {miss}", file=sys.stderr)
            return EXIT_USAGE
        # The stream is audited in memory, the tampered epoch in its
        # place; the store is not written.
        auditor = ContinuousAuditor(make_app(args.app))
        auditor.run(
            tampered if epoch.index == tampered.index else epoch
            for epoch in _readable_epochs(backend)
        )
    except _UnreadableEpoch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    rejection = auditor.first_rejection
    verdict = "ACCEPT" if rejection is None else f"REJECT({rejection.result.reason})"
    print(f"{attack.name}: {verdict}")
    return EXIT_REJECTED if rejection is None else EXIT_OK


def _cmd_analyze(args) -> int:
    app = make_app(args.app)
    report = analyze_app(app)
    suggestions = suggest_annotations(app)
    print(f"{'variable':<14s} {'class':<22s} {'readers':<9s} "
          f"{'writers':<9s} suggestion")
    print("-" * 70)
    for var_id in sorted(report.declared):
        usage = report.usage[var_id]
        print(
            f"{var_id:<14s} {report.classification(var_id):<22s} "
            f"{len(usage.readers):<9d} {len(usage.writers):<9d} "
            f"{suggestions[var_id]}"
        )
    if report.undeclared:
        print(f"undeclared accesses: {sorted(report.undeclared)}")
    if report.dynamic_sites:
        print(f"dynamic access sites: {report.dynamic_sites}")
    return EXIT_OK


def _cmd_lint(args) -> int:
    from repro.analysis import crosscheck_app, lint_app

    app = make_app(args.app)
    report = lint_app(app)
    crosscheck = None
    if args.crosscheck:
        crosscheck = crosscheck_app(
            app, n_requests=args.requests, seed=args.seed
        )
    if args.format == "json":
        print(report.format_json(crosscheck))
    else:
        print(report.format_text(crosscheck))
    failed = report.fails(args.fail_on)
    if crosscheck is not None and not crosscheck.sound:
        failed = True
    return EXIT_LINT if failed else EXIT_OK


def _cmd_fuzz(args) -> int:
    from repro.fuzz import APPS, run_fuzz
    from repro.obs import NULL_METRICS

    metrics = _make_metrics(args)
    props = (
        ["soundness", "completeness"]
        if args.property == "both"
        else [args.property]
    )
    apps = tuple(dict.fromkeys(args.app)) if args.app else APPS
    reports = [
        run_fuzz(
            prop=prop,
            apps=apps,
            seed=args.seed,
            max_examples=args.max_examples,
            corpus_dir=args.corpus,
            metrics=metrics if metrics is not None else NULL_METRICS,
            max_requests=args.max_requests,
            ops=args.op,
        )
        for prop in props
    ]
    if args.format == "json":
        print(json.dumps(
            {r.prop: r.as_json() for r in reports}, indent=2, sort_keys=True
        ))
    else:
        for report in reports:
            verdict = "CLEAN" if report.clean else "ESCAPES FOUND"
            print(
                f"{report.prop}: {verdict} "
                f"({report.stats.examples} examples, "
                f"{report.stats.applied} applied, "
                f"{report.stats.skipped} skipped, "
                f"{report.corpus_replayed} corpus replays, "
                f"{report.elapsed_seconds:.1f}s)"
            )
            for reason, count in sorted(report.stats.rejects.items()):
                print(f"  reject {reason}: {count}")
            for finding in report.escapes:
                print(f"  ESCAPE: {finding['detail']}")
                print(f"    case: {json.dumps(finding['case'], sort_keys=True)}")
                if "corpus" in finding:
                    print(f"    corpus: {finding['corpus']}")
            for failure in report.corpus_failures:
                print(f"  CORPUS FAILURE: {failure['detail']} ({failure['path']})")
    _write_metrics(args, metrics)
    return EXIT_OK if all(r.clean for r in reports) else EXIT_REJECTED


def _cmd_list_attacks(_args) -> int:
    for attack in ALL_ATTACKS:
        marker = "guaranteed" if attack.guaranteed else "workload-dependent"
        print(f"{attack.name:<30s} [{marker}] {attack.description}")
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "serve": _cmd_serve,
        "serve-audit": _cmd_serve_audit,
        "audit": _cmd_audit,
        "plan": _cmd_plan,
        "attack": _cmd_attack,
        "analyze": _cmd_analyze,
        "lint": _cmd_lint,
        "fuzz": _cmd_fuzz,
        "list-attacks": _cmd_list_attacks,
    }[args.command]
    try:
        code = handler(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
    except BrokenPipeError:
        # The reader of stdout went away (``| head``).  Python docs
        # recipe: point stdout at devnull so the interpreter's own flush
        # at exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
