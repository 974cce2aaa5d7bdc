"""Unit tests for the instrumentation-completeness linter (rules R1-R5),
its suppression mechanism, the trace-differential crosscheck, and the
``repro lint`` CLI gate.

Every rule gets at least one deliberately broken fixture app -- flagged
at the exact source line, located via the ``# <RULE>-bad-site`` marker
comments below -- and a clean twin the linter passes.  Fixtures live at
module level so ``inspect.getsource`` sees them exactly as a real app
module's handlers.
"""

import random

import pytest

from repro.analysis import crosscheck_app, lint_app
from repro.analysis.lint import predict_footprints
from repro.apps import feed_app, motd_app, stackdump_app, wiki_app
from repro.cli import EXIT_LINT, EXIT_OK, main
from repro.kem.program import AppSpec
from repro.trace.trace import Request


def marker_line(marker: str) -> int:
    """Absolute line number of the ``# <marker>`` comment in this file."""
    needle = "# " + marker
    with open(__file__) as fh:
        for lineno, line in enumerate(fh, 1):
            if needle in line:
                return lineno
    raise AssertionError(f"marker {marker!r} not found")


def one_handler_app(handler, extra_vars=(), functions=None, name="fixture"):
    fids = dict(functions or {})
    fids.setdefault("handle", handler)

    def init(ic):
        ic.create_var("flag", 0)
        ic.create_var("box", {})
        for var in extra_vars:
            ic.create_var(var, 0)
        ic.register_route("go", "handle")

    return AppSpec(name, fids, init)


def violations_of(app, rule):
    return lint_app(app).by_rule(rule)


# =========================================================================
# R1: control-flow taint
# =========================================================================


def r1_bad_if(ctx, req):
    v = ctx.read("flag")
    if v:  # R1-bad-site
        ctx.write("flag", 0)
    ctx.respond({"ok": True})


def r1_clean_if(ctx, req):
    v = ctx.read("flag")
    if ctx.branch(v):
        ctx.update("flag", lambda _v: 0)
    ctx.respond({"ok": True})


def r1_bad_payload_if(ctx, req):
    if req["mode"] == "fast":  # R1-payload-bad-site
        ctx.write("flag", 1)
    ctx.respond({})


def r1_bad_loop(ctx, req):
    items = ctx.read("flag")
    for item in items:  # R1-loop-bad-site
        ctx.write("flag", item)
    ctx.respond({})


def r1_clean_loop(ctx, req):
    n = ctx.control(ctx.read("flag"))
    for _ in range(n):
        ctx.update("flag", lambda _v: 0)
    ctx.respond({})


def r1_bad_ternary(ctx, req):
    v = ctx.read("flag")
    ctx.write("flag", 1 if v else 2)  # R1-ternary-bad-site
    ctx.respond({})


def r1_bad_shortcircuit(ctx, req):
    v = ctx.read("flag")
    v and ctx.write("flag", 0)  # R1-shortcircuit-bad-site
    ctx.respond({})


def r1_bad_aliased_ctx(c, req):
    handle = c
    v = handle.read("flag")
    if v:  # R1-alias-bad-site
        handle.write("flag", 0)
    c.respond({})


def r1_clean_pure_lambda(ctx, req):
    # Conditionals inside lambdas run per request slot (ctx.apply /
    # ctx.update semantics) and are exempt from group-level laundering.
    v = ctx.read("flag")
    out = ctx.apply(lambda x: "hot" if x > 3 else "cold", v)
    ctx.respond({"out": out})


class TestR1:
    def test_if_on_read_result_flagged_at_line(self):
        (v,) = violations_of(one_handler_app(r1_bad_if), "R1")
        assert v.severity == "error"
        assert v.line == marker_line("R1-bad-site")
        assert v.file == __file__

    def test_branch_laundering_passes(self):
        assert lint_app(one_handler_app(r1_clean_if)).clean

    def test_if_on_payload_flagged(self):
        (v,) = violations_of(one_handler_app(r1_bad_payload_if), "R1")
        assert v.line == marker_line("R1-payload-bad-site")

    def test_loop_over_tainted_iterable_flagged(self):
        (v,) = violations_of(one_handler_app(r1_bad_loop), "R1")
        assert v.line == marker_line("R1-loop-bad-site")

    def test_control_laundered_loop_passes(self):
        assert lint_app(one_handler_app(r1_clean_loop)).clean

    def test_ternary_flagged(self):
        (v,) = violations_of(one_handler_app(r1_bad_ternary), "R1")
        assert v.line == marker_line("R1-ternary-bad-site")

    def test_boolean_shortcircuit_flagged(self):
        (v,) = violations_of(one_handler_app(r1_bad_shortcircuit), "R1")
        assert v.line == marker_line("R1-shortcircuit-bad-site")

    def test_aliased_context_still_visible(self):
        (v,) = violations_of(one_handler_app(r1_bad_aliased_ctx), "R1")
        assert v.line == marker_line("R1-alias-bad-site")

    def test_per_slot_lambda_exempt(self):
        assert lint_app(one_handler_app(r1_clean_pure_lambda)).clean


# =========================================================================
# R2: side-channel state
# =========================================================================

_SIDE_CACHE = {}


def r2_bad_global_mutation(ctx, req):
    _SIDE_CACHE["last"] = req["k"]  # R2-bad-site
    ctx.respond({})


def r2_bad_global_stmt(ctx, req):
    global _SIDE_CACHE  # R2-global-bad-site
    _SIDE_CACHE = {}
    ctx.respond({})


def r2_bad_payload_mutation(ctx, req):
    box = ctx.read("box")
    box["poked"] = True  # R2-payload-bad-site
    ctx.respond({})


def r2_clean_ctx_write(ctx, req):
    # The atomic read-modify-write form: no container mutation (R2).
    ctx.update("box", lambda b, k: {**b, "last": k}, req["k"])
    ctx.respond({})


def make_r2_closure_app():
    cell = {"hits": 0}

    def handler(ctx, req):  # noqa: ARG001 - fixture
        cell["hits"] += 1
        ctx.respond({})

    return one_handler_app(handler)


class TestR2:
    def test_module_global_mutation_flagged_at_line(self):
        found = violations_of(one_handler_app(r2_bad_global_mutation), "R2")
        assert any(
            v.line == marker_line("R2-bad-site") and v.severity == "error"
            for v in found
        )

    def test_global_statement_flagged(self):
        found = violations_of(one_handler_app(r2_bad_global_stmt), "R2")
        assert any(v.line == marker_line("R2-global-bad-site") for v in found)

    def test_payload_container_mutation_flagged(self):
        (v,) = violations_of(one_handler_app(r2_bad_payload_mutation), "R2")
        assert v.line == marker_line("R2-payload-bad-site")
        assert "ctx.write" in v.message

    def test_ctx_write_twin_passes(self):
        assert lint_app(one_handler_app(r2_clean_ctx_write)).clean

    def test_closure_cell_state_flagged(self):
        found = violations_of(make_r2_closure_app(), "R2")
        assert found, "closure-cell mutation must be reported"


# =========================================================================
# R3: wrapped nondeterminism
# =========================================================================


def r3_bad_random(ctx, req):
    token = random.random()  # R3-bad-site
    ctx.respond({"token": token})


def r3_clean_nondet(ctx, req):
    token = ctx.nondet(lambda: random.random())
    ctx.respond({"token": token})


def r3_bad_set_iteration(ctx, req):
    total = 0
    for item in {1, 2, 3}:  # R3-set-bad-site
        total += item
    ctx.respond({"total": total})


class TestR3:
    def test_naked_random_flagged_at_line(self):
        (v,) = violations_of(one_handler_app(r3_bad_random), "R3")
        assert v.severity == "error"
        assert v.line == marker_line("R3-bad-site")

    def test_nondet_wrapper_passes(self):
        assert lint_app(one_handler_app(r3_clean_nondet)).clean

    def test_set_iteration_warned(self):
        (v,) = violations_of(one_handler_app(r3_bad_set_iteration), "R3")
        assert v.severity == "warn"
        assert v.line == marker_line("R3-set-bad-site")


# =========================================================================
# R4: handler-registration hygiene
# =========================================================================


def r4_bad_dynamic_event(ctx, req):
    ctx.emit("evt-" + req["k"], {})  # R4-bad-site
    ctx.respond({})


def r4_bad_unknown_callback(ctx, req):
    tid = ctx.tx_start()
    ctx.tx_get(tid, "row", "no_such_handler")  # R4-callback-bad-site
    ctx.respond({})


def r4_bad_handle_escape(ctx, req):
    tid = ctx.tx_start()
    ctx.respond({"tid": tid})  # R4-escape-bad-site


def r4_bad_dead_emit(ctx, req):
    ctx.emit("nobody-listens", {})  # R4-dead-emit-site
    ctx.respond({})


def r4_clean_registration(ctx, req):
    ctx.register("ping", "listener")
    ctx.emit("ping", {"n": 1})
    ctx.respond({})


def r4_listener(ctx, payload):
    ctx.update("flag", lambda _v: 1)


class TestR4:
    def test_non_literal_event_flagged_at_line(self):
        found = violations_of(one_handler_app(r4_bad_dynamic_event), "R4")
        assert any(
            v.line == marker_line("R4-bad-site") and v.severity == "error"
            for v in found
        )

    def test_unknown_tx_callback_flagged(self):
        found = violations_of(one_handler_app(r4_bad_unknown_callback), "R4")
        assert any(
            v.line == marker_line("R4-callback-bad-site")
            and "no_such_handler" in v.message
            for v in found
        )

    def test_tx_handle_escape_flagged(self):
        found = violations_of(one_handler_app(r4_bad_handle_escape), "R4")
        assert any(v.line == marker_line("R4-escape-bad-site") for v in found)

    def test_dead_emit_warned(self):
        found = violations_of(one_handler_app(r4_bad_dead_emit), "R4")
        assert any(
            v.line == marker_line("R4-dead-emit-site") and v.severity == "warn"
            for v in found
        )

    def test_clean_registration_passes(self):
        app = one_handler_app(
            r4_clean_registration, functions={"listener": r4_listener}
        )
        assert lint_app(app).clean


# =========================================================================
# R5: response discipline
# =========================================================================


def r5_bad_early_return(ctx, req):  # R5-bad-site
    if ctx.branch(ctx.apply(lambda r: bool(r.get("early")), req)):
        return
    ctx.respond({})


def r5_clean_both_paths(ctx, req):
    if ctx.branch(ctx.apply(lambda r: bool(r.get("early")), req)):
        ctx.respond({"early": True})
        return
    ctx.respond({})


def _r5_retry_helper(ctx):
    ctx.respond({"status": "retry"})


def r5_clean_helper_responds(ctx, req):
    if ctx.branch(ctx.apply(lambda r: bool(r.get("bad")), req)):
        _r5_retry_helper(ctx)
        return
    ctx.respond({})


def r5_clean_defers_via_tx_get(ctx, req):
    tid = ctx.tx_start()
    ctx.tx_get(tid, "row", "callback")


def r5_callback(ctx, payload):
    ctx.respond({})


def r5_suppressed(ctx, req):  # lint: disable=R5 -- fixture: intentionally silent
    if ctx.branch(ctx.apply(lambda r: bool(r.get("early")), req)):
        return
    ctx.respond({})


class TestR5:
    def test_silent_path_flagged_on_def_line(self):
        (v,) = violations_of(one_handler_app(r5_bad_early_return), "R5")
        assert v.severity == "error"
        assert v.line == marker_line("R5-bad-site")

    def test_both_paths_respond_passes(self):
        assert lint_app(one_handler_app(r5_clean_both_paths)).clean

    def test_helper_response_counts(self):
        assert lint_app(one_handler_app(r5_clean_helper_responds)).clean

    def test_tx_get_defers(self):
        app = one_handler_app(
            r5_clean_defers_via_tx_get, functions={"callback": r5_callback}
        )
        assert lint_app(app).clean

    def test_callback_handlers_not_subject_to_r5(self):
        # r5_callback's twin: a callback that doesn't respond is fine.
        def quiet_callback(ctx, payload):
            ctx.update("flag", lambda _v: 1)

        app = one_handler_app(
            r5_clean_defers_via_tx_get, functions={"callback": quiet_callback}
        )
        assert lint_app(app).clean

    def test_suppression_moves_finding_aside(self):
        report = lint_app(one_handler_app(r5_suppressed))
        assert report.clean
        assert [v.rule for v in report.suppressed] == ["R5"]


# =========================================================================
# Bundled corpus + crosscheck soundness
# =========================================================================


class TestBundledApps:
    @pytest.mark.parametrize("make", [motd_app, stackdump_app, wiki_app, feed_app])
    def test_bundled_apps_lint_clean(self, make):
        report = lint_app(make())
        assert report.clean, report.format_text()

    def test_stackdump_suppression_is_justified(self):
        # R5 (the fan-out loop) is acknowledged on handle_list's def line.
        report = lint_app(stackdump_app())
        assert [v.rule for v in report.suppressed] == ["R5"]


def smuggled_ctx_helper(box):
    # Receives the context inside a container: invisible to the static
    # helper-following, visible to the crosscheck.
    box["ctx"].write("hidden", 1)


def sneaky_handler(ctx, req):
    smuggled_ctx_helper({"ctx": ctx})
    ctx.respond({})


class TestCrosscheck:
    @pytest.mark.parametrize("make", [motd_app, stackdump_app, wiki_app, feed_app])
    def test_bundled_apps_crosscheck_sound(self, make):
        result = crosscheck_app(make(), n_requests=40, seed=3)
        assert result.sound, result.unpredicted

    def test_wiki_trace_is_balanced(self):
        result = crosscheck_app(wiki_app(), n_requests=30)
        assert result.trace is not None and result.trace.is_balanced()

    def test_smuggled_context_caught_as_unsound(self):
        app = one_handler_app(sneaky_handler, extra_vars=("hidden",))
        requests = [Request.make(f"r{i:03d}", "go") for i in range(5)]
        result = crosscheck_app(app, requests=requests)
        assert not result.sound
        assert any("hidden" in item for item in result.unpredicted)

    def test_predictions_cover_wiki_footprint(self):
        predicted = predict_footprints(wiki_app())
        assert predicted["handle_render"].reads >= {"config"}
        assert predicted["handle_render"].tx_callbacks == {"r_part"}
        assert predicted["r_part"].responds
        assert predicted["handle_create_page"].reads >= {"config", "conn_pool"}


# =========================================================================
# CLI gate
# =========================================================================


class TestLintCli:
    @pytest.mark.parametrize("app", ["motd", "stacks", "wiki"])
    def test_clean_apps_exit_zero(self, app, capsys):
        assert main(["lint", app]) == EXIT_OK
        assert "clean" in capsys.readouterr().out

    def test_crosscheck_flag(self, capsys):
        assert main(["lint", "motd", "--crosscheck", "--requests", "20"]) == EXIT_OK
        assert "crosscheck" in capsys.readouterr().out

    def test_json_format(self, capsys):
        import json

        assert main(["lint", "wiki", "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["app"] == "wiki" and payload["clean"] is True

    def test_violations_exit_four(self, monkeypatch, capsys):
        import repro.cli as cli_mod

        monkeypatch.setattr(
            cli_mod, "make_app", lambda name: one_handler_app(r1_bad_if)
        )
        assert main(["lint", "wiki"]) == EXIT_LINT
        assert "R1" in capsys.readouterr().out

    def test_fail_on_warn_threshold(self, monkeypatch):
        import repro.cli as cli_mod

        monkeypatch.setattr(
            cli_mod, "make_app", lambda name: one_handler_app(r4_bad_dead_emit)
        )
        # The dead emit is warn-severity: passes by default, fails on warn.
        assert main(["lint", "wiki"]) == EXIT_OK
        assert main(["lint", "wiki", "--fail-on", "warn"]) == EXIT_LINT


# =========================================================================
# Report determinism
# =========================================================================


class TestReportDeterminism:
    def _report_for(self, app):
        return lint_app(app)

    def test_json_is_stable_across_runs(self):
        app_a = one_handler_app(r1_bad_if)
        app_b = one_handler_app(r1_bad_if)
        assert self._report_for(app_a).format_json() == (
            self._report_for(app_b).format_json()
        )

    def test_violations_sorted_by_file_line_rule(self):
        from repro.analysis.report import LintReport, Violation

        v1 = Violation("R5", "error", "h", "b.py", 10, 0, "m")
        v2 = Violation("R1", "error", "h", "a.py", 99, 0, "m")
        v3 = Violation("R2", "error", "h", "b.py", 10, 0, "m")
        report = LintReport("fixture", violations=[v1, v2, v3])
        doc = report.to_dict()
        order = [(v["file"], v["line"], v["rule"]) for v in doc["violations"]]
        assert order == sorted(order)

    def test_summary_counts_per_rule(self):
        app = one_handler_app(r1_bad_if)
        doc = self._report_for(app).to_dict()
        by_rule = doc["summary"]["by_rule"]
        assert by_rule == {"R1": 1}
        assert doc["summary"]["errors"] == len(
            [v for v in doc["violations"] if v["severity"] == "error"]
        )
