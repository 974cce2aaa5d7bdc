"""The footprint crosscheck over every bundled app, the fuzz corpus, and
syntax the static walk has no dedicated case for.

The crosscheck diffs *observed* handler footprints against
``predict_footprints``: any observed operation the prediction missed
lands in ``result.unpredicted`` and fails the gate.  Runs over every
bundled app under several honest workload mixes and seeds, and replays
the persisted fuzz corpus (``.fuzz-corpus``, the CI-cached escape store)
when one is present -- every stored reproducer's serving configuration
must also crosscheck sound.

Deliberately unsound fixtures (the context smuggled through a container,
invisible to the static helper-following) prove the gate fires.
"""

import os

import pytest

from repro.analysis import crosscheck_app
from repro.apps import make_app
from repro.fuzz import read_corpus
from repro.kem.program import AppSpec
from repro.trace.trace import Request

pytestmark = pytest.mark.tier1

CORPUS_DIR = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, ".fuzz-corpus"
)

APP_NAMES = ["motd", "stacks", "wiki", "feed"]


class TestHonestSoundness:
    @pytest.mark.parametrize("app_name", APP_NAMES)
    @pytest.mark.parametrize("mix,seed", [("mixed", 3), ("write-heavy", 17)])
    def test_no_unpredicted_effects(self, app_name, mix, seed):
        result = crosscheck_app(
            make_app(app_name), n_requests=50, mix=mix, seed=seed
        )
        assert result.sound, result.unpredicted


def _corpus_workloads():
    """Unique serving configurations stored in the persisted corpus."""
    seen = {}
    for prop in ("soundness", "completeness"):
        for _path, case in read_corpus(CORPUS_DIR, prop):
            wl = getattr(case, "workload", None)
            if wl is None:
                continue
            key = (wl.app, wl.n, wl.mix, wl.workload_seed)
            seen.setdefault(key, wl)
    return list(seen.values())


class TestCorpusReplay:
    def test_corpus_configurations_crosscheck_sound(self):
        workloads = _corpus_workloads()
        if not workloads:
            pytest.skip("no persisted fuzz corpus in this checkout")
        for wl in workloads:
            result = crosscheck_app(
                make_app(wl.app),
                n_requests=max(wl.n, 4),
                mix=wl.mix,
                seed=wl.workload_seed,
            )
            assert result.sound, (wl, result.unpredicted)


def smuggle_helper(box):
    box["ctx"].write("hidden", 1)


def smuggling_handler(ctx, req):
    smuggle_helper({"ctx": ctx})
    ctx.respond({})


def smuggle_read_helper(box):
    return box["ctx"].read("hidden")


def smuggling_read_handler(ctx, req):
    smuggle_read_helper({"ctx": ctx})
    ctx.respond({})


class TestGateFires:
    def test_smuggled_effect_fails_the_gate(self):
        def init(ic):
            ic.create_var("hidden", 0)
            ic.register_route("go", "handle")

        app = AppSpec("smuggle", {"handle": smuggling_handler}, init)
        requests = [Request.make(f"r{i:03d}", "go") for i in range(5)]
        result = crosscheck_app(app, requests=requests)
        assert not result.sound
        assert result.unpredicted == ["handle: write of 'hidden' was not predicted"]

    def test_smuggled_read_fails_the_gate(self):
        def init(ic):
            ic.create_var("hidden", 0)
            ic.register_route("go", "handle")

        app = AppSpec("smuggle-read", {"handle": smuggling_read_handler}, init)
        requests = [Request.make(f"r{i:03d}", "go") for i in range(3)]
        result = crosscheck_app(app, requests=requests)
        assert not result.sound
        assert result.unpredicted == ["handle: read of 'hidden' was not predicted"]


def match_statement_handler(ctx, req):
    match req["cmd"]:
        case "read":
            ctx.update("counter", lambda v: v + 1)
        case _:
            ctx.read("counter")
    ctx.respond({})


class TestUnmodeledSyntaxStaysSound:
    def test_match_statement_handler_crosschecks_sound(self):
        # ``predict_footprints`` visits every call in the body, so ctx
        # operations inside ``match`` arms are predicted like any other.
        def init(ic):
            ic.create_var("counter", 0)
            ic.register_route("go", "handle")

        app = AppSpec("matcher", {"handle": match_statement_handler}, init)
        requests = [
            Request.make(f"r{i:03d}", "go", cmd=("read" if i % 2 else "skip"))
            for i in range(6)
        ]
        result = crosscheck_app(app, requests=requests)
        assert result.sound, result.unpredicted
