"""Golden-pinned static footprints for every bundled app.

``predict_footprints`` is upstream of three consumers: the crosscheck
soundness gate, the R1-R9 linter, and (through the effect analyzer) the
conflict matrix of ``repro analyze``.  A silent change to what it predicts can
therefore loosen the audit's instrumentation contract without any test
noticing -- these goldens freeze the exact per-handler summaries for
each bundled app, so every drift is a reviewed diff against a committed
file rather than an accident.

An *intentional* prediction change must bump ``FOOTPRINTS_SPEC`` in
``repro.analysis.lint`` and regenerate with::

    KAROUSOS_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/integration/test_footprints_golden.py
"""

import json
import os

import pytest

from repro.analysis.lint import FOOTPRINTS_SPEC, predict_footprints
from repro.apps import feed_app, motd_app, stackdump_app, wiki_app

pytestmark = pytest.mark.tier1

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "golden")

APPS = {
    "motd": motd_app,
    "stacks": stackdump_app,
    "wiki": wiki_app,
    "feed": feed_app,
}


def golden_path(app_name: str) -> str:
    return os.path.join(GOLDEN_DIR, f"footprints_{app_name}.json")


def compute_footprints(app_name: str) -> dict:
    app = APPS[app_name]()
    return {
        "spec": FOOTPRINTS_SPEC,
        "app": app.name,
        "handlers": {
            fid: summary.to_dict()
            for fid, summary in sorted(predict_footprints(app).items())
        },
    }


@pytest.fixture(scope="module", params=sorted(APPS), ids=str)
def app_footprints(request):
    return request.param, compute_footprints(request.param)


def test_footprints_match_golden(app_footprints):
    app_name, footprints = app_footprints
    path = golden_path(app_name)
    if os.environ.get("KAROUSOS_REGEN_GOLDEN"):
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(footprints, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return
    with open(path, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert footprints == golden, (
        f"static footprints for {app_name} drifted from {path}; an "
        "intentional prediction change must bump FOOTPRINTS_SPEC and "
        "regenerate with KAROUSOS_REGEN_GOLDEN=1"
    )


def test_no_handler_is_opaque(app_footprints):
    """Every bundled handler has readable source: an opaque summary here
    means the analysis lost sight of a handler, not that one is exotic."""
    app_name, footprints = app_footprints
    for fid, summary in footprints["handlers"].items():
        assert not summary["opaque"], (app_name, fid)
