"""Session-wide test setup.

Every persistent cache points at a fresh directory for the whole session,
so no test reads results an earlier run (or a developer's battery) left in
``~/.cache/repro-slate``.  Those entries are keyed on inputs, not on code:
a change that moves a simulated number would otherwise still pass every
golden on a machine whose cache is warm.  Subprocesses a test starts
inherit the variable.
"""

import pytest

from repro.config import CACHE_DIR_ENV
from repro.slate import profiler


@pytest.fixture(scope="session", autouse=True)
def session_cache_dir(tmp_path_factory):
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(CACHE_DIR_ENV, str(tmp_path_factory.mktemp("repro-cache")))
        profiler.reset_profile_cache()
        yield
    profiler.reset_profile_cache()
