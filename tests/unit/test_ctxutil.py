"""Unit tests for the shared context-resolution layer (``ctxutil``).

Every static analysis -- the annotation analyzer and the R1-R5 linter --
resolves the handler context through this module, so a blind spot here
is a blind spot everywhere.  These tests pin the
edge cases: walrus renames, tuple-unpacking aliases, keyword-forwarded
context helpers, and annotation-over-position resolution.  Assertions
are exact (full alias sets, exact slots), not merely membership checks,
so an over-approximation regression shows up too.
"""

import ast

import pytest

from repro.analysis.ctxutil import (
    collect_helper_calls,
    context_names,
    context_params,
    ctx_method_call,
    helper_ctx_positions,
    parse_function,
    walk_scoped,
)


def func_def_of(source: str) -> ast.FunctionDef:
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            return node
    raise AssertionError("no function in source")


class TestContextParams:
    def test_positional_default(self):
        fd = func_def_of("def h(ctx, req):\n    pass\n")
        assert context_params(fd) == ["ctx"]

    def test_position_overrides_name_convention(self):
        fd = func_def_of("def h(req, c):\n    pass\n")
        assert context_params(fd, position=1) == ["c"]

    def test_annotation_wins_over_position(self):
        fd = func_def_of(
            "def h(req, c: HandlerContext):\n    pass\n"
        )
        assert context_params(fd, position=0) == ["c"]

    def test_string_annotation_resolves(self):
        fd = func_def_of(
            "def h(req, c: 'kem.HandlerContext'):\n    pass\n"
        )
        assert context_params(fd, position=0) == ["c"]

    def test_keyword_slot_names_parameter(self):
        fd = func_def_of("def h(a, *, ctx=None):\n    pass\n")
        assert context_params(fd, position="ctx") == ["ctx"]

    def test_keyword_slot_missing_parameter_is_empty(self):
        fd = func_def_of("def h(a, b):\n    pass\n")
        assert context_params(fd, position="ctx") == []

    def test_out_of_range_position_is_empty(self):
        fd = func_def_of("def h(ctx):\n    pass\n")
        assert context_params(fd, position=3) == []


class TestContextNames:
    def exact_names(self, source: str, params=("ctx",)) -> set:
        return context_names(func_def_of(source), list(params))

    def test_simple_alias_chain(self):
        names = self.exact_names(
            "def h(ctx, req):\n"
            "    c = ctx\n"
            "    d = c\n"
            "    d.read('x')\n"
        )
        assert names == {"ctx", "c", "d"}

    def test_walrus_rename(self):
        names = self.exact_names(
            "def h(ctx, req):\n"
            "    (c := ctx).read('x')\n"
        )
        assert names == {"ctx", "c"}

    def test_assign_from_walrus_aliases_both_targets(self):
        names = self.exact_names(
            "def h(ctx, req):\n"
            "    outer = (inner := ctx)\n"
            "    outer.read('x')\n"
        )
        assert names == {"ctx", "inner", "outer"}

    def test_tuple_unpack_starfree(self):
        names = self.exact_names(
            "def h(ctx, req):\n"
            "    payload, c = req, ctx\n"
            "    c.read('x')\n"
        )
        assert names == {"ctx", "c"}

    def test_starred_unpack_does_not_propagate(self):
        # ``*rest`` breaks positional matching; the alias set must NOT
        # grow (dynamic smuggling is the crosscheck layer's job).
        names = self.exact_names(
            "def h(ctx, req):\n"
            "    a, *rest = req, ctx\n"
        )
        assert names == {"ctx"}

    def test_length_mismatched_unpack_does_not_propagate(self):
        names = self.exact_names(
            "def h(ctx, req):\n"
            "    pair = (req, ctx)\n"
            "    a, b, c = pair, None, None\n"
        )
        assert names == {"ctx"}


class TestHelperForwarding:
    def call_of(self, source: str) -> ast.Call:
        fd = func_def_of(source)
        for node in ast.walk(fd):
            if isinstance(node, ast.Call):
                return node
        raise AssertionError("no call in source")

    def test_positional_slot_is_exact_index(self):
        call = self.call_of("def h(ctx, req):\n    helper(req, ctx)\n")
        assert helper_ctx_positions(call, {"ctx"}) == ("helper", 1)

    def test_keyword_forwarding_yields_name_slot(self):
        call = self.call_of("def h(ctx, req):\n    helper(req, c=ctx)\n")
        assert helper_ctx_positions(call, {"ctx"}) == ("helper", "c")

    def test_aliased_context_forwarded_by_keyword(self):
        fd = func_def_of(
            "def h(ctx, req):\n"
            "    view = ctx\n"
            "    helper(1, 2, context=view)\n"
        )
        names = context_names(fd, ["ctx"])
        helpers = collect_helper_calls(fd, names)
        assert helpers == {"helper": "context"}

    def test_double_star_kwargs_not_followed(self):
        call = self.call_of(
            "def h(ctx, req):\n    helper(req, **{'c': ctx})\n"
        )
        assert helper_ctx_positions(call, {"ctx"}) is None

    def test_ctx_method_call_is_not_a_helper(self):
        fd = func_def_of(
            "def h(ctx, req):\n"
            "    ctx.read('x')\n"
            "    helper(ctx)\n"
        )
        assert collect_helper_calls(fd, {"ctx"}) == {"helper": 0}

    def test_first_forwarding_slot_wins(self):
        # The same helper called twice with the context at different
        # slots keeps the first resolution (deterministic).
        fd = func_def_of(
            "def h(ctx, req):\n"
            "    helper(ctx, 1)\n"
            "    helper(1, ctx)\n"
        )
        assert collect_helper_calls(fd, {"ctx"}) == {"helper": 0}


class TestParseAndScope:
    def test_parse_function_maps_absolute_lines(self):
        def probe(ctx, req):
            ctx.read("x")  # probe-site

        parsed = parse_function(probe)
        assert parsed is not None
        call = next(
            n for n in ast.walk(parsed.func_def) if isinstance(n, ast.Call)
        )
        assert "probe-site" in parsed.source_line(parsed.abs_line(call))

    def test_parse_function_returns_none_without_source(self):
        assert parse_function(len) is None

    def test_walk_scoped_skips_nested_scopes(self):
        fd = func_def_of(
            "def h(ctx, req):\n"
            "    ctx.read('outer')\n"
            "    fn = lambda: ctx.read('inner')\n"
            "    def nested():\n"
            "        ctx.read('nested')\n"
        )
        literals = [
            node.value
            for node in walk_scoped(fd)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        ]
        assert "outer" in literals
        assert "inner" not in literals and "nested" not in literals

    @pytest.mark.parametrize(
        "source, expected",
        [
            ("def h(c, req):\n    c.read('x')\n", "read"),
            ("def h(c, req):\n    other.read('x')\n", None),
        ],
    )
    def test_ctx_method_call_exact(self, source, expected):
        fd = func_def_of(source)
        call = next(n for n in ast.walk(fd) if isinstance(n, ast.Call))
        assert ctx_method_call(call, {"c"}) == expected
