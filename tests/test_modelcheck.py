"""Tests for loommc: the model-checking engine, the protocol models,
the seeded-mutant self-tests, and the packet-trace conformance layer.

Structure mirrors the tool:

* engine unit tests on a tiny toy model (BFS shortest counterexamples,
  budget/depth bounds, replay exactness, JSON round-trip, liveness);
* the real protocol models explored *completely* with zero safety or
  liveness violations (the PR's acceptance bar);
* every seeded mutant caught with a counterexample that replays
  exactly — including from its JSON wire form;
* conformance unit tests on synthetic packet traces, plus one live
  server+faulty-client integration check.
"""

from __future__ import annotations

import json
from typing import List, Optional, Sequence

import pytest

from tools.loommc.modelcheck import (
    CheckResult,
    Counterexample,
    Invariant,
    Model,
    ModelChecker,
    ModelCheckError,
    State,
    check_eventually,
    clear_counterexamples,
    dump_live_counterexamples,
    replay,
)
from tools.loommc.conformance import (
    abstract_actions,
    check_trace,
    parse_trace,
)
from tools.loommc.models import (
    MODELS,
    MUTANTS,
    BreakerModel,
    CoordinatorModel,
    IngestExactlyOnce,
    build_model,
    liveness_properties,
    model_for_mutant,
)


@pytest.fixture(autouse=True)
def _clean_registry():
    """Mutant runs here must not leak counterexamples into the
    LOOM_STATS_DUMP failure hook of unrelated tests."""
    clear_counterexamples()
    yield
    clear_counterexamples()


# ======================================================================
# Engine unit tests (toy models)
# ======================================================================
class Counter(Model):
    """inc/dec on [0, limit]; optionally 'bad' above a threshold."""

    name = "counter"
    mutants = ("overflow",)

    def __init__(
        self, mutant: Optional[str] = None, limit: int = 5, bad_at: int = 3
    ) -> None:
        super().__init__(mutant)
        self.limit = limit
        self.bad_at = bad_at

    def initial(self) -> State:
        return 0

    def actions(self, state: State) -> Sequence[str]:
        assert isinstance(state, int)
        acts: List[str] = []
        if state < self.limit:
            acts.append("inc")
        if state > 0:
            acts.append("dec")
        return acts

    def apply(self, state: State, action: str) -> State:
        assert isinstance(state, int)
        return state + 1 if action == "inc" else state - 1

    def invariants(self) -> Sequence[Invariant]:
        def below(state: State) -> Optional[str]:
            assert isinstance(state, int)
            if self.mutant == "overflow" and state >= self.bad_at:
                return f"counter reached {state}"
            return None

        def non_negative(state: State) -> Optional[str]:
            assert isinstance(state, int)
            return None if state >= 0 else "negative"

        return (("below-threshold", below), ("non-negative", non_negative))


def test_exploration_is_complete_and_counts_states():
    result = ModelChecker(Counter(limit=5)).explore()
    assert result.clean
    assert result.complete
    assert result.states == 6          # 0..5
    assert result.depth == 5
    # inc from 0..4 and dec from 1..5.
    assert result.transitions == 10


def test_first_counterexample_is_shortest():
    result = ModelChecker(Counter(mutant="overflow", bad_at=3)).explore()
    assert not result.clean
    cx = result.violations[0]
    assert cx.invariant == "below-threshold"
    assert cx.steps == ("inc", "inc", "inc")   # BFS => minimal trace
    assert cx.mutant == "overflow"


def test_max_states_budget_yields_incomplete_result():
    result = ModelChecker(Counter(limit=100), max_states=10).explore()
    assert not result.complete
    assert result.states <= 11


def test_max_depth_bounds_exploration():
    result = ModelChecker(Counter(limit=100), max_depth=4).explore()
    assert result.complete             # frontier exhausted within the bound
    assert result.depth == 4
    assert result.states == 5          # 0..4


def test_stop_on_violation_false_collects_per_invariant():
    class DoubleBad(Counter):
        def invariants(self) -> Sequence[Invariant]:
            def a(state: State) -> Optional[str]:
                assert isinstance(state, int)
                return "a" if state >= 2 else None

            def b(state: State) -> Optional[str]:
                assert isinstance(state, int)
                return "b" if state >= 3 else None

            return (("inv-a", a), ("inv-b", b))

    result = ModelChecker(DoubleBad(), stop_on_violation=False).explore()
    assert [cx.invariant for cx in result.violations] == ["inv-a", "inv-b"]
    # Each is still the shortest trace for its own invariant.
    assert result.violations[0].steps == ("inc", "inc")
    assert result.violations[1].steps == ("inc", "inc", "inc")


def test_path_to_walks_the_bfs_tree():
    result = ModelChecker(Counter(limit=4)).explore()
    assert result.path_to(0) == ()
    assert result.path_to(3) == ("inc", "inc", "inc")


def test_unknown_mutant_is_a_model_check_error():
    with pytest.raises(ModelCheckError):
        Counter(mutant="nope")


def test_replay_reproduces_recorded_counterexample():
    result = ModelChecker(Counter(mutant="overflow")).explore()
    cx = result.violations[0]
    rr = replay(Counter(mutant="overflow"), cx)
    assert rr.reproduced
    assert rr.diverged_at is None


def test_replay_flags_divergent_trace():
    cx = Counterexample(
        model="counter", invariant="below-threshold",
        error="x", steps=("dec",),            # dec is not enabled at 0
    )
    rr = replay(Counter(mutant="overflow"), cx)
    assert not rr.reproduced
    assert rr.diverged_at == 0


def test_replay_flags_non_minimal_trace():
    cx = Counterexample(
        model="counter", invariant="below-threshold",
        error="x", steps=("inc", "inc", "inc", "inc"),
    )
    rr = replay(Counter(mutant="overflow", bad_at=3), cx)
    assert not rr.reproduced
    assert "not minimal" in rr.error


def test_replay_flags_unreproduced_failure():
    cx = Counterexample(
        model="counter", invariant="below-threshold",
        error="x", steps=("inc",),
    )
    rr = replay(Counter(mutant="overflow", bad_at=3), cx)
    assert not rr.reproduced
    assert "did NOT reproduce" in rr.error


def test_replay_flags_unknown_invariant():
    cx = Counterexample(model="counter", invariant="ghost", error="x", steps=())
    rr = replay(Counter(), cx)
    assert not rr.reproduced
    assert "no invariant" in rr.error


def test_counterexample_json_round_trip():
    cx = Counterexample(
        model="ingest", invariant="exactly-once-apply",
        error="batch seq=1 applied 2 times",
        steps=("client.send", "server.admit seq=1"),
        mutant="dedup_flip",
    )
    again = Counterexample.from_json(cx.to_json())
    assert again == cx
    payload = json.loads(cx.to_json())
    assert payload["version"] == Counterexample.FORMAT_VERSION


def test_counterexample_json_rejects_garbage_and_bad_version():
    with pytest.raises(ModelCheckError):
        Counterexample.from_json("not json {")
    with pytest.raises(ModelCheckError):
        Counterexample.from_json(json.dumps([1, 2]))
    bad = json.loads(Counterexample(
        model="m", invariant="i", error="e", steps=()
    ).to_json())
    bad["version"] = 99
    with pytest.raises(ModelCheckError):
        Counterexample.from_json(json.dumps(bad))


def test_liveness_requires_complete_exploration():
    result = ModelChecker(Counter(limit=100), max_states=5).explore()
    with pytest.raises(ModelCheckError):
        check_eventually(
            result, "x", lambda s: True, lambda s: False, lambda a: True
        )


def test_liveness_holds_and_fails_on_toy_graph():
    result = ModelChecker(Counter(limit=3)).explore()
    # Every state can reach 0 via fair 'dec' steps.
    ok = check_eventually(
        result, "drains", lambda s: True, lambda s: s == 0,
        fair=lambda a: a == "dec",
    )
    assert ok is None
    # ...but not via 'inc' alone: state 1 is stuck.
    cx = check_eventually(
        result, "drains-up", lambda s: s == 1, lambda s: s == 0,
        fair=lambda a: a == "inc",
    )
    assert cx is not None
    assert cx.invariant == "drains-up"
    assert cx.steps == ("inc",)         # shortest path to the stuck state


def test_counterexamples_mirror_into_live_dump():
    ModelChecker(Counter(mutant="overflow")).explore()
    dump = dump_live_counterexamples()
    assert "counter" in dump and "below-threshold" in dump
    clear_counterexamples()
    assert dump_live_counterexamples() == ""


# ======================================================================
# The real protocol models: complete, clean, live
# ======================================================================
def _check_full(model: Model) -> CheckResult:
    result = ModelChecker(model).explore()
    assert result.complete, f"{model.name}: exploration hit the budget"
    return result


@pytest.fixture(scope="module")
def ingest_result() -> CheckResult:
    return ModelChecker(IngestExactlyOnce()).explore()


def test_ingest_model_explores_completely_and_cleanly(ingest_result):
    assert ingest_result.complete
    assert ingest_result.clean
    # The adversarial network gives this model real breadth; a tiny
    # state count would mean the adversary was accidentally disabled.
    assert ingest_result.states > 5_000
    assert ingest_result.transitions > ingest_result.states


def test_ingest_liveness_backpressure_resumes(ingest_result):
    model = IngestExactlyOnce()
    props = liveness_properties(model)
    assert [p[0] for p in props] == ["backpressure-resumes"]
    name, premise, goal, fair = props[0]
    assert check_eventually(ingest_result, name, premise, goal, fair) is None


@pytest.mark.parametrize("name", sorted(MODELS))
def test_real_models_are_clean_including_liveness(name):
    model = build_model(name)
    result = _check_full(model)
    assert result.clean, result.violations
    for prop_name, premise, goal, fair in liveness_properties(model):
        cx = check_eventually(result, prop_name, premise, goal, fair)
        assert cx is None, cx and cx.render()


def test_registry_is_consistent():
    assert set(MUTANTS.values()) <= set(MODELS)
    for mutant, host in MUTANTS.items():
        assert mutant in MODELS[host].mutants
    with pytest.raises(KeyError):
        build_model("no-such-model")
    with pytest.raises(KeyError):
        model_for_mutant("no-such-mutant")


# ======================================================================
# Seeded mutants: every one caught, every counterexample replays
# ======================================================================
def _find_mutant_violation(mutant: str) -> Counterexample:
    """Mirror `loommc check --mutant`: safety first, then liveness."""
    model = model_for_mutant(mutant)
    result = ModelChecker(model).explore()
    if result.violations:
        return result.violations[0]
    assert result.complete
    for name, premise, goal, fair in liveness_properties(model):
        cx = check_eventually(
            result, name, premise, goal, fair, mutant=mutant
        )
        if cx is not None:
            return cx
    pytest.fail(f"seeded mutant {mutant!r} was NOT caught")


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_every_seeded_mutant_is_caught_and_replays(mutant):
    cx = _find_mutant_violation(mutant)
    assert cx.mutant == mutant
    assert cx.steps or cx.invariant  # a real, renderable counterexample
    # Round-trip through the JSON wire format, then replay exactly on a
    # fresh model instance — the CI artifact contract.
    again = Counterexample.from_json(cx.to_json())
    assert again == cx
    from tools.loommc.__main__ import _replay_exact

    assert _replay_exact(MUTANTS[mutant], again), (
        f"counterexample for {mutant!r} did not replay exactly:\n"
        + cx.render()
    )


def test_dedup_flip_mutant_violates_exactly_once():
    """The ordering bug the pending-before-dedup rule exists to stop:
    discarding pending before recording dedup opens a window where a
    duplicate admission re-applies the batch."""
    cx = _find_mutant_violation("dedup_flip")
    assert cx.invariant == "exactly-once-apply"
    rr = replay(model_for_mutant("dedup_flip"), cx)
    assert rr.reproduced
    assert "applied 2 times" in rr.error
    # ...and the trace must NOT reproduce on the real model.
    real = replay(IngestExactlyOnce(), cx)
    assert not real.reproduced


def test_probe_no_readmit_is_a_liveness_catch():
    """probe_no_readmit breaks no safety invariant — only the liveness
    pass can see a node stuck in quarantine forever."""
    model = model_for_mutant("probe_no_readmit")
    result = ModelChecker(model).explore()
    assert result.clean and result.complete
    cx = _find_mutant_violation("probe_no_readmit")
    assert cx.invariant.startswith("readmission-probes-node-")


def test_breaker_double_trial_caught():
    cx = _find_mutant_violation("double_trial")
    assert cx.invariant == "single-half-open-trial"


# ======================================================================
# CLI exit codes
# ======================================================================
def test_cli_list_and_mutant_selftest(capsys):
    from tools.loommc.__main__ import main

    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "ingest" in out and "dedup_flip" in out
    assert main(["check", "--model", "breaker"]) == 0
    assert main(["check", "--mutant", "double_trial"]) == 0
    assert main(["check", "--mutant", "no-such"]) == 2
    assert main(["check", "--model", "no-such"]) == 2
    assert main(["replay", "/no/such/file.json"]) == 2


def test_cli_mutant_writes_replayable_artifact(tmp_path, capsys):
    from tools.loommc.__main__ import main

    out_dir = tmp_path / "cx"
    assert main([
        "check", "--mutant", "shed_at_low", "--out", str(out_dir)
    ]) == 0
    files = sorted(out_dir.glob("counterexample-*.json"))
    assert files
    assert main(["replay", str(files[0])]) == 0
    capsys.readouterr()


# ======================================================================
# Conformance: packet traces vs the client projection of the model
# ======================================================================
def _send(seq, client="c", **extra):
    return {"event": "send", "op": "ingest", "client": client, "seq": seq,
            **extra}


def _ack(ok=True, **extra):
    return {"event": "recv", "ok": ok, "status": "ok", **extra}


def test_parse_trace_accepts_jsonl_and_skips_section_headers():
    text = "\n".join([
        "--- transport trace ---",
        json.dumps(_send(1)),
        "",
        json.dumps(_ack()),
    ])
    events = parse_trace(text)
    assert [e["event"] for e in events] == ["send", "recv"]
    with pytest.raises(ModelCheckError):
        parse_trace("not json")
    with pytest.raises(ModelCheckError):
        parse_trace(json.dumps({"no_event_key": 1}))


def test_conforming_trace_is_clean():
    events = [
        _send(1), _ack(),
        _send(2, fault="dropped"), _send(2), _ack(deduped=True),
        {"event": "send", "op": "sync", "client": "c"},
        _ack(),
    ]
    assert check_trace(events) == []


def test_resend_after_ack_flagged():
    events = [_send(1), _ack(), _send(1)]
    found = check_trace(events)
    rules = [cx.invariant for cx in found]
    # The settled batch makes this both a resend-after-ack and (since
    # the ack closed the session) a non-increasing new batch.
    assert rules == ["no-resend-after-ack", "seq-strictly-increasing"]
    # The counterexample's steps are the offending trace prefix.
    assert len(found[0].steps) == 3


def test_seq_reuse_flagged():
    events = [_send(2), _ack(), _send(1)]
    found = check_trace(events)
    assert [cx.invariant for cx in found] == ["seq-strictly-increasing"]


def test_seq_gap_is_legal():
    # The client counter survives failed batches: gaps are fine.
    events = [_send(1), _ack(), _send(5), _ack()]
    assert check_trace(events) == []


def test_dedup_without_resend_flagged():
    events = [_send(1), _ack(deduped=True)]
    found = check_trace(events)
    assert [cx.invariant for cx in found] == ["dedup-implies-resend"]


def test_dedup_ack_with_no_open_batch_flagged():
    events = [_ack(deduped=True)]
    found = check_trace(events)
    assert [cx.invariant for cx in found] == ["ack-answers-open-batch"]


def test_sessions_are_tracked_per_client():
    # Two clients interleaved: each keeps its own seq space.
    events = [
        _send(1, client="a"), _ack(),
        _send(1, client="b"), _ack(),
    ]
    assert check_trace(events) == []


def test_uninformative_events_never_flag():
    events = [
        {"event": "recv", "fault": "torn"},        # no protocol fields
        {"event": "send"},                         # unparsed frame
        {"event": "connect"},
        _send(1), _ack(),
    ]
    assert check_trace(events) == []


def test_one_counterexample_per_rule():
    events = [_send(1), _ack(), _send(1), _ack(), _send(1)]
    found = check_trace(events)
    assert len([c for c in found
                if c.invariant == "no-resend-after-ack"]) == 1


def test_abstract_actions_projection():
    events = [
        _send(1), _ack(),
        _send(2, fault="dropped"), _send(2), _ack(deduped=True),
    ]
    actions = abstract_actions(events)
    assert actions == [
        "client.send seq=1", "client.recv.ack seq=1",
        "client.send seq=2", "net.drop.req seq=2",
        "client.timeout.resend seq=2", "client.recv.dup seq=2",
    ]


# ======================================================================
# Live integration: a real server's packet trace conforms
# ======================================================================
def test_live_server_trace_conforms_under_faults():
    from repro.daemon.client import LoomClient
    from repro.daemon.server import LoomServer, ServerConfig
    from repro.daemon.transport import FaultInjectingTransport, TcpTransport

    server = LoomServer(config=ServerConfig(shards=1)).start()
    try:
        transport = FaultInjectingTransport(
            TcpTransport(server.host, server.port)
        )
        client = LoomClient(
            transport=transport,
            client_id="mc-integration",
            deadline_s=5.0,
            attempt_timeout_s=0.2,
            backoff_base_s=0.01,
        )
        client.enable_source("mc")
        client.ingest("mc", [b"a", b"b"])
        transport.drop_next_sends(1)    # forces a resend -> dedup path
        client.ingest("mc", [b"c"])
        client.sync("mc")
        client.close()
    finally:
        server.stop()
    events = list(transport.trace)
    assert any(e.get("event") == "send" for e in events)
    violations = check_trace(events, origin="live-integration")
    assert violations == [], "\n\n".join(cx.render() for cx in violations)
    # The projection maps the real trace onto model action labels.
    actions = abstract_actions(events)
    assert any(a.startswith("client.send") for a in actions)
