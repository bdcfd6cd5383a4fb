"""CLI entry point: ``python -m tools.loommc <verb>`` (or ``loommc``).

Exit status (stable, scripts may rely on it):

* ``0`` — success: every model explored completely with zero safety or
  liveness violations, or (with ``--mutant``) the seeded bug *was*
  caught and its counterexample replayed exactly, or a replayed
  counterexample reproduced, or every packet trace conformed.
* ``1`` — failure: a violation on the real models, a seeded mutant
  that escaped detection, a replay that diverged, or a non-conforming
  packet trace.
* ``2`` — usage error (unknown verb/model/mutant, missing file).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional


def _ensure_repro_importable() -> None:
    """Make ``repro`` importable when run from a source checkout."""
    try:
        import repro  # noqa: F401
    except ImportError:
        repo_root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        src = os.path.join(repo_root, "src")
        if os.path.isdir(os.path.join(src, "repro")):
            sys.path.insert(0, src)


_ensure_repro_importable()

from .modelcheck import (  # noqa: E402
    CheckResult,
    Counterexample,
    Model,
    ModelChecker,
    ModelCheckError,
    check_eventually,
    replay,
)

from .conformance import check_trace, parse_trace  # noqa: E402
from .models import (  # noqa: E402
    MODELS,
    MUTANTS,
    build_model,
    liveness_properties,
    model_for_mutant,
)

DEFAULT_MAX_STATES = 500_000


def _write_counterexamples(
    out_dir: str, counterexamples: List[Counterexample]
) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for i, cx in enumerate(counterexamples):
        path = os.path.join(out_dir, f"counterexample-{i:03d}.json")
        with open(path, "w", encoding="utf-8") as f:
            f.write(cx.to_json())
            f.write("\n")
        print(f"loommc: wrote counterexample -> {path}")


def _explore(model: Model, args: argparse.Namespace) -> CheckResult:
    return ModelChecker(
        model,
        max_states=args.max_states,
        max_depth=args.max_depth,
    ).explore()


def _check_one(model: Model, args: argparse.Namespace) -> List[Counterexample]:
    """Explore one model fully: safety + liveness; prints a summary."""
    result = _explore(model, args)
    found = list(result.violations)
    live_checked = 0
    if result.complete and not found:
        for (name, premise, goal, fair) in liveness_properties(model):
            live_checked += 1
            cx = check_eventually(
                result, name, premise, goal, fair, mutant=model.mutant
            )
            if cx is not None:
                found.append(cx)
    tag = f"{model.name}" + (f" (mutant {model.mutant})" if model.mutant else "")
    print(
        f"loommc check: {tag}: {result.states} states, "
        f"{result.transitions} transitions, depth {result.depth}, "
        f"{'complete' if result.complete else 'BUDGET-BOUNDED'}, "
        f"{live_checked} liveness properties, "
        f"{len(found)} violation(s)"
    )
    if not result.complete and not found:
        print(
            f"loommc: WARNING — {model.name} exploration hit the state "
            f"budget ({args.max_states}); this run is a bounded search, "
            f"not a proof",
            file=sys.stderr,
        )
    for cx in found:
        print()
        print(cx.render())
    return found


def _replay_exact(model_name: str, cx: Counterexample) -> bool:
    """Re-run one counterexample from scratch; True when it reproduces."""
    model = build_model(model_name, mutant=cx.mutant)
    safety = {name for name, _ in model.invariants()}
    if cx.invariant in safety:
        rr = replay(model, cx)
        if not rr.reproduced:
            print(f"loommc replay: {rr.error}", file=sys.stderr)
        return rr.reproduced
    # A liveness counterexample: its steps lead to a premise state from
    # which no fair path reaches the goal.  Re-apply the steps, then
    # re-derive the stuck set on a fresh exploration.
    props = {p[0]: p for p in liveness_properties(model)}
    if cx.invariant not in props:
        print(
            f"loommc replay: model {model.name!r} has no invariant or "
            f"liveness property {cx.invariant!r}",
            file=sys.stderr,
        )
        return False
    _, premise, goal, fair = props[cx.invariant]
    state = model.initial()
    for i, action in enumerate(cx.steps):
        if action not in model.actions(state):
            print(
                f"loommc replay: step {i} {action!r} is not enabled — "
                f"replay diverged",
                file=sys.stderr,
            )
            return False
        state = model.apply(state, action)
    if not premise(state):
        print(
            "loommc replay: final state does not satisfy the liveness "
            "premise — replay diverged",
            file=sys.stderr,
        )
        return False
    result = ModelChecker(model, max_states=DEFAULT_MAX_STATES).explore()
    fresh = check_eventually(
        result, cx.invariant, premise, goal, fair, mutant=model.mutant
    )
    if fresh is None:
        print(
            f"loommc replay: liveness property {cx.invariant!r} holds on a "
            f"fresh exploration — the recorded failure did NOT reproduce",
            file=sys.stderr,
        )
        return False
    return True


def cmd_check(args: argparse.Namespace) -> int:
    if args.mutant:
        try:
            model = model_for_mutant(args.mutant)
        except KeyError as exc:
            print(f"loommc: {exc.args[0]}", file=sys.stderr)
            return 2
        found = _check_one(model, args)
        if not found:
            print(
                f"loommc: SELF-TEST FAILED — seeded mutant "
                f"{args.mutant!r} was NOT caught",
                file=sys.stderr,
            )
            return 1
        if args.out:
            _write_counterexamples(args.out, found)
        if not _replay_exact(model.name, found[0]):
            print(
                "loommc: SELF-TEST FAILED — the counterexample did not "
                "replay exactly",
                file=sys.stderr,
            )
            return 1
        print(
            f"loommc: self-test passed — mutant {args.mutant!r} caught "
            f"by {found[0].invariant!r} and replayed exactly"
        )
        return 0
    names = [args.model] if args.model else sorted(MODELS)
    for name in names:
        if name not in MODELS:
            print(
                f"loommc: unknown model {name!r} "
                f"(available: {sorted(MODELS)})",
                file=sys.stderr,
            )
            return 2
    all_found: List[Counterexample] = []
    for name in names:
        all_found.extend(_check_one(build_model(name), args))
    if all_found:
        if args.out:
            _write_counterexamples(args.out, all_found)
        print(
            f"loommc: VIOLATIONS on the real protocol models "
            f"({len(all_found)})",
            file=sys.stderr,
        )
        return 1
    print("loommc: clean — zero violations")
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    if not os.path.exists(args.counterexample):
        print(
            f"loommc: no such counterexample file: {args.counterexample}",
            file=sys.stderr,
        )
        return 2
    with open(args.counterexample, "r", encoding="utf-8") as f:
        try:
            cx = Counterexample.from_json(f.read())
        except ModelCheckError as exc:
            print(f"loommc: {exc}", file=sys.stderr)
            return 2
    if cx.model not in MODELS:
        print(
            f"loommc: counterexample names unknown model {cx.model!r}",
            file=sys.stderr,
        )
        return 2
    if _replay_exact(cx.model, cx):
        print(
            f"loommc replay: failure reproduced — {cx.model} / "
            f"{cx.invariant}"
            + (f" (mutant {cx.mutant})" if cx.mutant else "")
        )
        return 0
    return 1


def cmd_conform(args: argparse.Namespace) -> int:
    if args.selftest:
        return _conform_selftest()
    if not args.traces:
        print(
            "loommc conform: no trace files given (or use --selftest)",
            file=sys.stderr,
        )
        return 2
    violations: List[Counterexample] = []
    for path in args.traces:
        if not os.path.exists(path):
            print(f"loommc: no such trace file: {path}", file=sys.stderr)
            return 2
        with open(path, "r", encoding="utf-8") as f:
            try:
                events = parse_trace(f.read())
            except ModelCheckError as exc:
                print(f"loommc: {path}: {exc}", file=sys.stderr)
                return 2
        found = check_trace(events, origin=path)
        print(
            f"loommc conform: {path}: {len(events)} events, "
            f"{len(found)} violation(s)"
        )
        violations.extend(found)
    for cx in violations:
        print()
        print(cx.render())
    if violations:
        if args.out:
            _write_counterexamples(args.out, violations)
        return 1
    print("loommc: every packet trace conforms to the ingest model")
    return 0


def _conform_selftest() -> int:
    """End-to-end conformance self-test against a real server.

    Runs a live LoomServer, drives a fault-injected client through
    drops and resends, and checks the recorded packet traces conform;
    then corrupts a trace (an ack for a batch never sent twice claims
    ``deduped``) and checks the corruption IS flagged.
    """
    from repro.daemon.server import LoomServer, ServerConfig
    from repro.daemon.client import LoomClient
    from repro.daemon.transport import FaultInjectingTransport, TcpTransport

    server = LoomServer(config=ServerConfig(shards=1))
    server.start()
    try:
        assert server.port is not None
        transport = FaultInjectingTransport(
            TcpTransport(server.host, server.port)
        )
        client = LoomClient(
            transport=transport,
            client_id="conform-selftest",
            deadline_s=5.0,
            attempt_timeout_s=0.2,
            backoff_base_s=0.01,
        )
        client.enable_source("conform")
        client.ingest("conform", [b"a", b"b"])
        transport.drop_next_sends(1)        # force a resend + dedup path
        client.ingest("conform", [b"c"])
        client.sync("conform")
        client.close()
    finally:
        server.stop()
    events = list(transport.trace)
    clean = check_trace(events, origin="selftest")
    print(
        f"loommc conform --selftest: live trace {len(events)} events, "
        f"{len(clean)} violation(s)"
    )
    for cx in clean:
        print(cx.render())
    if clean:
        print(
            "loommc: SELF-TEST FAILED — a real client/server trace does "
            "not conform to the model",
            file=sys.stderr,
        )
        return 1
    # Corruption: claim a dedup ack for a single-send batch.
    corrupt = [
        {"event": "send", "op": "ingest", "client": "x", "seq": 1},
        {"event": "recv", "ok": True, "deduped": True},
    ]
    flagged = check_trace(corrupt, origin="selftest-corrupt")
    if not flagged:
        print(
            "loommc: SELF-TEST FAILED — a corrupted trace was NOT flagged",
            file=sys.stderr,
        )
        return 1
    print(
        f"loommc: self-test passed — corrupted trace flagged by "
        f"{flagged[0].invariant!r}"
    )
    return 0


def cmd_list(args: argparse.Namespace) -> int:
    for name in sorted(MODELS):
        model = build_model(name)
        invariants = ", ".join(n for n, _ in model.invariants())
        liveness = ", ".join(p[0] for p in liveness_properties(model))
        print(f"{name}:")
        print(f"  safety:   {invariants}")
        if liveness:
            print(f"  liveness: {liveness}")
        if model.mutants:
            print(f"  mutants:  {', '.join(model.mutants)}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="loommc",
        description=(
            "Loom protocol model checker: bounded exploration of the "
            "distributed-protocol models, counterexample replay, and "
            "packet-trace conformance."
        ),
    )
    sub = parser.add_subparsers(dest="verb")

    check = sub.add_parser(
        "check", help="explore the protocol models (safety + liveness)"
    )
    check.add_argument(
        "--model", help=f"check one model (default: all of {sorted(MODELS)})"
    )
    check.add_argument(
        "--mutant",
        help=f"self-test against one seeded bug ({sorted(MUTANTS)})",
    )
    check.add_argument(
        "--max-states", type=int, default=DEFAULT_MAX_STATES,
        help="state-exploration budget",
    )
    check.add_argument(
        "--max-depth", type=int, default=None, help="BFS depth bound"
    )
    check.add_argument(
        "--out", help="directory to write counterexamples as JSON"
    )
    check.set_defaults(fn=cmd_check)

    rep = sub.add_parser(
        "replay", help="re-run one recorded counterexample exactly"
    )
    rep.add_argument("counterexample", help="path to a counterexample JSON file")
    rep.set_defaults(fn=cmd_replay)

    conform = sub.add_parser(
        "conform",
        help="check FaultInjectingTransport packet traces against the model",
    )
    conform.add_argument(
        "traces", nargs="*", help="packet-trace files (dump_trace JSON lines)"
    )
    conform.add_argument(
        "--selftest", action="store_true",
        help="drive a live server+faulty client and conformance-check "
        "its traces (plus a corrupted-trace negative check)",
    )
    conform.add_argument(
        "--out", help="directory to write violations as JSON"
    )
    conform.set_defaults(fn=cmd_conform)

    lst = sub.add_parser(
        "list", help="list models, invariants, and seeded mutants"
    )
    lst.set_defaults(fn=cmd_list)

    args = parser.parse_args(argv)
    if not getattr(args, "verb", None):
        parser.print_help(sys.stderr)
        return 2
    result: int = args.fn(args)
    return result


if __name__ == "__main__":
    sys.exit(main())
