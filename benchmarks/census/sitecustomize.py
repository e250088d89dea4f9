"""Function census hook: record which functions under ``src/repro`` run.

Put this directory first on ``PYTHONPATH`` and point ``CENSUS_OUT`` at a
directory; every interpreter that starts with that environment then
appends one ``file<TAB>first line<TAB>name`` line per first-seen code
object under ``src/repro`` to ``$CENSUS_OUT/<pid>.txt``.  ``file`` is
relative to ``src/repro``.  The hook is installed with both
``sys.setprofile`` and ``threading.setprofile``, and a forked child
writes to its own file, so pool workers, daemon threads and client
processes are all counted.  Without ``CENSUS_OUT`` it does nothing.

``analyze.py`` in this directory matches the records against every
``def`` in the package.
"""

from __future__ import annotations

import os
import sys
import threading

__all__ = ["install"]


def install(root: str, out_dir: str) -> None:
    """Record every code object under ``root`` that runs in this process."""
    root = os.path.realpath(root) + os.sep
    os.makedirs(out_dir, exist_ok=True)
    state = {}
    seen: set = set()
    where: dict[str, "str | None"] = {}

    def reopen() -> None:
        state["out"] = open(
            os.path.join(out_dir, f"{os.getpid()}.txt"), "a", buffering=1
        )

    def hook(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if code in seen:
            return
        seen.add(code)
        filename = code.co_filename
        rel = where.get(filename, "")
        if rel == "":
            path = os.path.realpath(filename)
            rel = where[filename] = (
                path[len(root):] if path.startswith(root) else None
            )
        if rel is not None:
            state["out"].write(f"{rel}\t{code.co_firstlineno}\t{code.co_name}\n")

    reopen()
    os.register_at_fork(after_in_child=reopen)
    threading.setprofile(hook)
    sys.setprofile(hook)


if os.environ.get("CENSUS_OUT"):
    install(
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..", "src", "repro"),
        os.environ["CENSUS_OUT"],
    )
