"""The paper's evaluation applications (section 6).

* :mod:`repro.apps.motd` -- message of the day: single handler, shared
  hashmap, no transactional state.
* :mod:`repro.apps.stackdump` -- stack-dump logging: handler chains over
  the transactional store, concurrent-duplicate retry errors.
* :mod:`repro.apps.wiki` -- a wiki (pages, comments, render) standing in
  for Wiki.js: transactional storage plus shared caches.
* :mod:`repro.apps.feed` -- a social feed: fan-out-on-write timeline
  delivery plus a cross-user shared cache on the read path.

:func:`make_app` is the registry by name that the CLI, the fleet daemon
and the fuzzer build apps from.
"""

from typing import Callable, Dict, Tuple

from repro.apps.feed import feed_app
from repro.apps.motd import motd_app
from repro.apps.stackdump import stackdump_app
from repro.apps.wiki import wiki_app
from repro.kem.program import AppSpec

# name -> (factory, whether the app runs over the transactional store)
_APPS: Dict[str, Tuple[Callable[[], AppSpec], bool]] = {
    "motd": (motd_app, False),
    "stacks": (stackdump_app, True),
    "wiki": (wiki_app, True),
    "feed": (feed_app, True),
}
APP_NAMES = tuple(_APPS)


def make_app(name: str) -> AppSpec:
    return _APPS[name][0]()


def app_needs_store(name: str) -> bool:
    return _APPS[name][1]


__all__ = [
    "APP_NAMES",
    "app_needs_store",
    "feed_app",
    "make_app",
    "motd_app",
    "stackdump_app",
    "wiki_app",
]
