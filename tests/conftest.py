"""Fixtures shared across suites."""

import pytest

from repro.cli import EXIT_OK, main


@pytest.fixture(scope="session")
def five_wiki_epochs():
    """An honest wiki run sealed into exactly five epochs."""
    from repro.apps import wiki_app
    from repro.continuous import EpochSealer
    from repro.kem.scheduler import RandomScheduler
    from repro.server import KarousosPolicy, run_server
    from repro.store import IsolationLevel, KVStore
    from repro.workload import wiki_workload

    sealer = EpochSealer(3)
    run_server(
        wiki_app(), wiki_workload(15, seed=5), KarousosPolicy(),
        store=KVStore(IsolationLevel.SERIALIZABLE),
        scheduler=RandomScheduler(1), concurrency=1,  # every response drains
        sealer=sealer,
    )
    assert len(sealer.epochs) == 5
    return sealer.epochs


@pytest.fixture(scope="session")
def served_store(tmp_path_factory):
    """``served_store(app, *serve_args)`` runs ``repro serve`` into a fresh
    store directory and returns its path -- the one on-disk shape every
    ``audit`` / ``plan`` / ``attack`` invocation reads."""

    def serve(app, *serve_args):
        path = tmp_path_factory.mktemp(f"served-{app}") / "store"
        code = main(["serve", "--app", app, "--store-path", str(path), *serve_args])
        assert code == EXIT_OK
        return path

    return serve
