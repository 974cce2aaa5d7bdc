"""Unit tests for the loggable-variable static analyzer."""


from repro.analysis import analyze_app, predict_footprints, suggest_annotations
from repro.apps import motd_app, stackdump_app, wiki_app
from repro.kem import AppSpec


def make_app(functions, init):
    return AppSpec("t", functions, init)


class TestClassification:
    def test_shared_variable_detected(self):
        def handle(ctx, req):
            v = ctx.read("counter")
            ctx.write("counter", v + 1)
            ctx.respond({})

        def init(ic):
            ic.create_var("counter", 0)
            ic.register_route("r", "handle")

        report = analyze_app(make_app({"handle": handle}, init))
        assert report.classification("counter") == "shared"
        assert report.recommended_loggable("counter")
        assert report.usage["counter"].readers == {"handle"}
        assert report.usage["counter"].writers == {"handle"}

    def test_read_only_variable_detected(self):
        def handle(ctx, req):
            ctx.respond({"cfg": ctx.read("config")})

        def init(ic):
            ic.create_var("config", {"a": 1})
            ic.register_route("r", "handle")

        report = analyze_app(make_app({"handle": handle}, init))
        assert report.classification("config") == "read-only"
        assert not report.recommended_loggable("config")

    def test_unused_variable_detected(self):
        def handle(ctx, req):
            ctx.respond({})

        def init(ic):
            ic.create_var("dead", 0)
            ic.register_route("r", "handle")

        report = analyze_app(make_app({"handle": handle}, init))
        assert report.unused == {"dead"}
        assert report.classification("dead") == "unused"

    def test_undeclared_access_detected(self):
        def handle(ctx, req):
            ctx.write("ghost", 1)
            ctx.respond({})

        def init(ic):
            ic.register_route("r", "handle")

        report = analyze_app(make_app({"handle": handle}, init))
        assert report.undeclared == {"ghost"}

    def test_dynamic_access_forces_conservatism(self):
        def handle(ctx, req):
            ctx.write("prefix:" + req["k"], 1)
            ctx.respond({})

        def init(ic):
            ic.create_var("innocent", 0)
            ic.register_route("r", "handle")

        report = analyze_app(make_app({"handle": handle}, init))
        assert report.dynamic_sites, "non-literal id must be reported"
        # Even the untouched variable becomes conservatively loggable.
        assert report.recommended_loggable("innocent")

    def test_ctx_parameter_identified_positionally(self):
        def handle(c, payload):  # unconventional name
            c.write("x", 1)
            c.respond({})

        def init(ic):
            ic.create_var("x", 0)
            ic.register_route("r", "handle")

        report = analyze_app(make_app({"handle": handle}, init))
        assert report.usage["x"].writers == {"handle"}


class TestSuggestions:
    def test_under_annotation_flagged(self):
        def handle(ctx, req):
            v = ctx.read("shared")
            ctx.write("shared", v)
            ctx.respond({})

        def init(ic):
            ic.create_var("shared", 0, loggable=False)  # wrong!
            ic.register_route("r", "handle")

        suggestions = suggest_annotations(make_app({"handle": handle}, init))
        assert suggestions["shared"] == "MUST-be-loggable"

    def test_over_annotation_noted(self):
        def handle(ctx, req):
            ctx.respond({"v": ctx.read("ro")})

        def init(ic):
            ic.create_var("ro", 1)  # loggable, but read-only
            ic.register_route("r", "handle")

        suggestions = suggest_annotations(make_app({"handle": handle}, init))
        assert suggestions["ro"] == "can-skip-logging"


class TestOnRealApps:
    def test_motd_variables_are_shared(self):
        report = analyze_app(motd_app())
        assert report.classification("motd") == "shared"
        assert report.classification("set_count") == "shared"
        assert not report.undeclared
        assert not report.dynamic_sites

    def test_stacks_variables_are_shared(self):
        report = analyze_app(stackdump_app())
        for var in ("digests", "list_acc", "submit_count"):
            assert report.classification(var) == "shared"

    def test_wiki_config_is_read_only(self):
        report = analyze_app(wiki_app())
        assert report.classification("config") == "read-only"
        assert report.classification("nav_cache") == "shared"
        assert report.classification("conn_pool") == "shared"
        suggestions = suggest_annotations(wiki_app())
        assert suggestions["config"] == "can-skip-logging"
        assert suggestions["conn_pool"] == "keep"


class TestDynamicClassification:
    def test_non_literal_var_id_goes_conservative(self):
        def handle(ctx, req):
            ctx.write("k" + req["suffix"], 1)
            ctx.respond({})

        def init(ic):
            ic.create_var("k1", 0)
            ic.create_var("quiet", 0)
            ic.register_route("r", "handle")

        report = analyze_app(make_app({"handle": handle}, init))
        assert report.dynamic_sites and "handle" in report.dynamic_sites[0]
        # Every declared variable turns conservatively loggable.
        assert report.classification("k1") == "dynamic-conservative"
        assert report.classification("quiet") == "dynamic-conservative"
        assert report.recommended_loggable("quiet")

    def test_missing_var_id_argument_is_dynamic(self):
        def handle(ctx, req):
            getattr(ctx, "read")  # keep the linter honest: no-arg call below
            ctx.read()
            ctx.respond({})

        def init(ic):
            ic.create_var("x", 0)
            ic.register_route("r", "handle")

        report = analyze_app(make_app({"handle": handle}, init))
        assert len(report.dynamic_sites) == 1

    def test_dynamic_site_reports_line_number(self):
        def handle(ctx, req):
            name = req["name"]
            ctx.read(name)
            ctx.respond({})

        def init(ic):
            ic.create_var("x", 0)
            ic.register_route("r", "handle")

        report = analyze_app(make_app({"handle": handle}, init))
        site = report.dynamic_sites[0]
        fid, lineno = site.rsplit(":", 1)
        assert fid == "handle" and int(lineno) > 0


class TestContextResolution:
    def test_aliased_context_accesses_counted(self):
        def handle(ctx, req):
            c = ctx
            c.write("x", 1)
            ctx.respond({})

        def init(ic):
            ic.create_var("x", 0)
            ic.register_route("r", "handle")

        report = analyze_app(make_app({"handle": handle}, init))
        assert report.usage["x"].writers == {"handle"}

    def test_annotated_context_wins_over_position(self):
        def handle(payload, kem_ctx: "HandlerContext"):  # noqa: F821
            kem_ctx.write("x", payload["v"])
            kem_ctx.respond({})

        def init(ic):
            ic.create_var("x", 0)
            ic.register_route("r", "handle")

        report = analyze_app(make_app({"handle": handle}, init))
        assert report.usage["x"].writers == {"handle"}

    def test_helper_with_context_at_second_position(self):
        def bump(amount, c):
            c.update("x", lambda v, a: v + a, amount)

        def handle(ctx, req):
            bump(2, ctx)
            ctx.respond({})

        handle.__globals__["bump"] = bump
        try:
            def init(ic):
                ic.create_var("x", 0)
                ic.register_route("r", "handle")

            report = analyze_app(make_app({"handle": handle}, init))
            assert report.usage["x"].writers == {"handle"}
            assert report.usage["x"].readers == {"handle"}
        finally:
            del handle.__globals__["bump"]


class TestDiagnostics:
    def test_undeclared_and_unused_reported_together(self):
        def handle(ctx, req):
            ctx.write("phantom", 1)
            ctx.respond({})

        def init(ic):
            ic.create_var("derelict", 0)
            ic.register_route("r", "handle")

        report = analyze_app(make_app({"handle": handle}, init))
        assert report.undeclared == {"phantom"}
        assert report.unused == {"derelict"}

    def test_builtin_handler_reported_unparsed(self):
        def init(ic):
            ic.create_var("x", 0)
            ic.register_route("r", "handle")

        report = analyze_app(make_app({"handle": len}, init))
        assert report.unparsed == ["handle"]


class TestFootprintAgreement:
    """The analyzer reads the linter's footprints, so the two cannot
    disagree about what a handler touches."""

    def test_handler_without_source_is_not_under_annotated(self):
        handle = eval(
            "lambda ctx, req: (ctx.write('x', ctx.read('x') + 1), ctx.respond({}))"
        )

        def init(ic):
            ic.create_var("x", 0)
            ic.register_route("r", "handle")

        app = make_app({"handle": handle}, init)
        assert predict_footprints(app)["handle"].opaque
        report = analyze_app(app)
        assert report.unparsed == ["handle"]
        assert report.classification("x") == "dynamic-conservative"
        assert suggest_annotations(app)["x"] == "keep"

    def test_keyword_var_id_is_a_literal_access(self):
        def handle(ctx, req):
            v = ctx.read(var_id="counter")
            ctx.write("counter", v + 1)
            ctx.respond({})

        def init(ic):
            ic.create_var("counter", 0)
            ic.create_var("quiet", 0)
            ic.register_route("r", "handle")

        app = make_app({"handle": handle}, init)
        assert predict_footprints(app)["handle"].reads == {"counter"}
        report = analyze_app(app)
        assert report.dynamic_sites == []
        assert report.usage["counter"].readers == {"handle"}
        assert report.classification("counter") == "shared"
        assert report.classification("quiet") == "unused"
