"""Fixtures shared by the CLI suites."""

import pytest

from repro.cli import EXIT_OK, main


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
