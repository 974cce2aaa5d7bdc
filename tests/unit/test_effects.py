"""Unit tests for the symbolic effect analyzer (``repro.analysis.effects``).

Covers the symbolic key domain (KeySym, helper-prefix folding), the
per-handler summaries, route-closure composition with payload
substitution, the conflict/commutativity matrix, and cacheability
classification.
Fixtures live at module level so ``inspect.getsource`` sees them exactly
as a real app module's handlers.
"""

import random

import pytest

from repro.analysis.effects import (
    KIND_COMPUTED,
    KIND_CONST,
    KIND_PARAM,
    TOP,
    KeySym,
    analyze_effects,
    any_covers,
    key_helper_prefix,
)
from repro.apps import feed_app, motd_app, stackdump_app, wiki_app
from repro.kem.program import AppSpec


def app_of(functions, routes, variables=("flag",), name="efixture"):
    def init(ic):
        for var in variables:
            ic.create_var(var, 0)
        for route, fid in routes.items():
            ic.register_route(route, fid)

    return AppSpec(name, dict(functions), init)


# =========================================================================
# The symbolic key domain
# =========================================================================


class TestKeySym:
    def test_exact_key_covers_only_itself(self):
        sym = KeySym(kind=KIND_CONST, prefix="page:home", exact=True, source="s")
        assert sym.covers("page:home")
        assert not sym.covers("page:home2")

    def test_prefix_family_covers_by_startswith(self):
        sym = KeySym(kind=KIND_PARAM, prefix="page:", exact=False, source="s")
        assert sym.covers("page:home") and sym.covers("page:")
        assert not sym.covers("meta:home")

    def test_top_covers_everything(self):
        assert TOP.unbounded
        assert TOP.covers("anything-at-all")

    def test_bounded_computed_is_not_top(self):
        sym = KeySym(kind=KIND_COMPUTED, prefix="dump:", exact=False, source="s")
        assert not sym.unbounded

    def test_any_covers(self):
        syms = frozenset(
            {KeySym(kind=KIND_PARAM, prefix="a:", exact=False, source="s")}
        )
        assert any_covers(syms, "a:1")
        assert not any_covers(syms, "b:1")


def page_key(title):
    return "page:" + title


def two_part_key(title):
    return "meta:" + "v1:" + title


def impure_key(title):
    return "page:" + title.lower()


class TestKeyHelperPrefix:
    def test_simple_concat_folds(self):
        assert key_helper_prefix(page_key) == "page:"

    def test_nested_concat_folds(self):
        assert key_helper_prefix(two_part_key) == "meta:v1:"

    def test_impure_body_refuses(self):
        assert key_helper_prefix(impure_key) is None

    def test_non_function_refuses(self):
        assert key_helper_prefix(len) is None


# =========================================================================
# Handler summaries
# =========================================================================


def sum_reader(ctx, req):
    ctx.read("flag")
    ctx.respond({})


def sum_updater(ctx, req):
    ctx.update("flag", lambda v: v + 1)
    ctx.respond({})


def sum_blind(ctx, req):
    ctx.write("flag", 7)
    ctx.respond({})


def sum_kv_writer(ctx, req):
    tid = ctx.tx_start()
    ctx.tx_put(tid, "page:" + req["title"], req["body"])
    ctx.tx_commit(tid)
    ctx.respond({})


def sum_kv_apply_writer(ctx, req):
    tid = ctx.tx_start()
    key = ctx.apply(page_key, req["title"])
    ctx.tx_put(tid, key, req["body"])
    ctx.tx_commit(tid)
    ctx.respond({})


def sum_kv_opaque_writer(ctx, req):
    # A *direct* helper call is not folded (only ctx.apply is): the key
    # widens to the conservative top symbol.
    tid = ctx.tx_start()
    ctx.tx_put(tid, page_key(req["title"]), req["body"])
    ctx.tx_commit(tid)
    ctx.respond({})


class TestSummaries:
    def summaries(self, **functions):
        routes = {fid: fid for fid in functions}
        return analyze_effects(app_of(functions, routes)).handlers

    def test_read_update_write_classified(self):
        handlers = self.summaries(
            r=sum_reader, u=sum_updater, w=sum_blind
        )
        assert handlers["r"].var_reads == {"flag"}
        assert not handlers["r"].var_writes
        assert handlers["u"].var_updates == {"flag"}
        assert not handlers["u"].var_writes
        assert handlers["w"].var_writes == {"flag"}

    def test_inline_concat_yields_param_family(self):
        handlers = self.summaries(w=sum_kv_writer)
        (sym,) = handlers["w"].kv_writes
        assert sym.kind == KIND_PARAM
        assert sym.prefix == "page:" and not sym.exact
        assert not sym.unbounded

    def test_applied_helper_key_folds(self):
        handlers = self.summaries(w=sum_kv_apply_writer)
        (sym,) = handlers["w"].kv_writes
        assert sym.prefix == "page:" and not sym.unbounded

    def test_direct_helper_call_widens_to_top(self):
        handlers = self.summaries(w=sum_kv_opaque_writer)
        assert all(sym.unbounded for sym in handlers["w"].kv_writes)

    def test_summary_records_sites(self):
        handlers = self.summaries(w=sum_blind)
        file, line, col = handlers["w"].write_sites["flag"]
        assert file.endswith("test_effects.py") and line > 0


# =========================================================================
# Conservative fallbacks: unhandled syntax and keyword arguments
# =========================================================================


def match_reader(ctx, req):
    match req["cmd"]:
        case "read":
            ctx.read("flag")
        case _:
            ctx.write("flag", 0)
    ctx.respond({})


def match_rebound_key_writer(ctx, req):
    key = "page:" + req["title"]
    match req:
        case {"alt": t}:
            key = t
    tid = ctx.tx_start()
    ctx.tx_put(tid, key, req["body"])
    ctx.tx_commit(tid)
    ctx.respond({})


def kw_nested_read_writer(ctx, req):
    ctx.write("flag", value=ctx.read("other"))
    ctx.respond({})


def kw_nested_nondet_writer(ctx, req):
    ctx.write("flag", value=ctx.nondet(lambda: 1))
    ctx.respond({})


def kw_nested_emit_event(ctx, req):
    ctx.emit(event=ctx.read("flag"))
    ctx.respond({})


class TestConservativeFallbacks:
    def summaries(self, **functions):
        routes = {fid: fid for fid in functions}
        return analyze_effects(
            app_of(functions, routes, variables=("flag", "other"))
        ).handlers

    def test_ctx_ops_inside_match_are_recorded(self):
        handlers = self.summaries(m=match_reader)
        assert handlers["m"].var_reads == {"flag"}
        assert handlers["m"].var_writes == {"flag"}
        assert handlers["m"].responds

    def test_match_capture_rebind_degrades_key_to_top(self):
        # ``key`` is a page: family on one path and a pattern capture on
        # the other; the flow-insensitive union must keep the ⊤ branch,
        # not silently retain only the narrow family.
        handlers = self.summaries(m=match_rebound_key_writer)
        assert any(sym.unbounded for sym in handlers["m"].kv_writes)

    def test_keyword_argument_reads_are_recorded(self):
        handlers = self.summaries(w=kw_nested_read_writer)
        assert handlers["w"].var_reads == {"other"}
        assert handlers["w"].var_writes == {"flag"}

    def test_keyword_argument_effects_count_once(self):
        handlers = self.summaries(w=kw_nested_nondet_writer)
        assert handlers["w"].nondet_sites == 1
        assert handlers["w"].var_writes == {"flag"}

    def test_dynamic_emit_argument_reads_are_recorded(self):
        handlers = self.summaries(e=kw_nested_emit_event)
        assert handlers["e"].dynamic_emits
        assert handlers["e"].var_reads == {"flag"}


class TestHelperCacheIdentity:
    def test_recycled_id_does_not_inherit_stale_prefix(self):
        # Simulate id() reuse after garbage collection: a cache entry at
        # this function's id but recorded for a *different* callable must
        # be ignored, not served as a stale prefix.
        from repro.analysis.effects import _HELPER_CACHE

        def other(x):
            return "stale:" + x

        def fresh(x):
            return "fresh:" + x

        _HELPER_CACHE[id(fresh)] = (other, "stale:")
        try:
            assert key_helper_prefix(fresh) == "fresh:"
            assert key_helper_prefix(fresh) == "fresh:"  # now a true hit
        finally:
            _HELPER_CACHE.pop(id(fresh), None)


# =========================================================================
# Route closures, conflicts, cacheability over the bundled apps
# =========================================================================


class TestBundledApps:
    @pytest.mark.parametrize(
        "make", [motd_app, stackdump_app, wiki_app, feed_app]
    )
    def test_all_routes_commute(self, make):
        # The bundled apps use ctx.update and tx-protected keys only, so
        # the whole matrix commutes.
        effects = analyze_effects(make())
        for conflict in effects.conflicts.values():
            assert conflict.commutes, (conflict.a, conflict.b, conflict.reasons)

    @pytest.mark.parametrize(
        "make", [motd_app, stackdump_app, wiki_app, feed_app]
    )
    def test_all_handlers_cacheable(self, make):
        effects = analyze_effects(make())
        assert effects.uncacheable_handlers() == {}

    def test_wiki_render_closure_includes_callbacks(self):
        effects = analyze_effects(wiki_app())
        render = effects.routes["render"]
        assert "handle_render" in render.closure
        assert "r_part" in render.closure
        assert not render.widened

    def test_wiki_callback_keys_substitute_to_parent_family(self):
        # r_part's ``payload["key"]`` accesses resolve, at route level,
        # to the page:/comments:/meta: families the parent passes.
        effects = analyze_effects(wiki_app())
        render = effects.routes["render"].effect
        prefixes = {s.prefix for s in render.kv_reads}
        assert {"page:", "comments:", "meta:"} <= prefixes
        assert not any(s.unbounded for s in render.kv_reads)

    def test_stacks_list_has_the_only_top_key(self):
        effects = analyze_effects(stackdump_app())
        listing = effects.routes["list"].effect
        assert any(s.unbounded for s in listing.kv_reads)

    def test_effects_doc_spec_tag(self):
        doc = analyze_effects(motd_app()).to_dict()
        assert doc["spec"] == "repro.effects/1"
        assert set(doc) >= {"app", "handlers", "routes", "conflicts"}


class TestConflicts:
    def test_blind_write_overlap_conflicts(self):
        effects = analyze_effects(
            app_of({"a": sum_blind, "b": sum_reader}, {"a": "a", "b": "b"})
        )
        conflict = effects.conflict("a", "b")
        assert conflict.conflicts
        assert any("flag" in reason for reason in conflict.reasons)

    def test_blind_write_self_pair_conflicts(self):
        effects = analyze_effects(app_of({"a": sum_blind}, {"a": "a"}))
        assert effects.conflict("a", "a").conflicts

    def test_updates_commute(self):
        effects = analyze_effects(
            app_of({"a": sum_updater, "b": sum_updater}, {"a": "a", "b": "b"})
        )
        assert effects.conflict("a", "b").commutes

    def test_conflict_lookup_is_order_insensitive(self):
        effects = analyze_effects(
            app_of({"a": sum_blind, "b": sum_reader}, {"a": "a", "b": "b"})
        )
        assert effects.conflict("b", "a") is effects.conflict("a", "b")


# =========================================================================
# Cacheability
# =========================================================================

_LEAK = {}


def uncacheable_naked_random(ctx, req):
    ctx.respond({"n": random.random()})


def uncacheable_side_channel(ctx, req):
    _LEAK["x"] = 1
    ctx.respond({})


class TestCacheability:
    def test_unwrapped_nondeterminism_is_uncacheable(self):
        effects = analyze_effects(
            app_of({"h": uncacheable_naked_random}, {"go": "h"})
        )
        assert not effects.handlers["h"].cacheable
        assert "h" in effects.uncacheable_handlers()

    def test_side_channel_state_is_uncacheable(self):
        effects = analyze_effects(
            app_of({"h": uncacheable_side_channel}, {"go": "h"})
        )
        assert not effects.handlers["h"].cacheable

    def test_clean_handler_is_cacheable(self):
        effects = analyze_effects(app_of({"h": sum_updater}, {"go": "h"}))
        assert effects.handlers["h"].cacheable
