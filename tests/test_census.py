"""The function census (``benchmarks/census``) on a fixture package.

The hook runs in a child interpreter over a five-function package; the
analyzer then sorts the package's defs into run by a workload, reached
only by tests, and reached by nothing.
"""

import os
import subprocess
import sys
import textwrap

from benchmarks.census import analyze

HOOK = os.path.join(os.path.dirname(analyze.__file__), "sitecustomize.py")

FIXTURE = '''\
import functools


def called():
    return 1


def uncalled():
    return 2


@functools.lru_cache(maxsize=None)
def decorated(x):
    return x


def generator():
    yield 1
    yield 2


def tested_only():
    return 3
'''


def record(root, out, calls: str) -> set:
    """Run ``calls`` on the fixture under the hook; the records it wrote."""
    script = textwrap.dedent(
        f"""
        import importlib.util, sys
        spec = importlib.util.spec_from_file_location("census_hook", {HOOK!r})
        hook = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(hook)
        hook.install({str(root)!r}, {str(out)!r})
        sys.path.insert(0, {str(root.parent)!r})
        from pkg import mod
        {calls}
        """
    )
    env = {k: v for k, v in os.environ.items() if k != "CENSUS_OUT"}
    subprocess.run([sys.executable, "-c", script], check=True, env=env)
    return analyze.records(out)


def test_census_sorts_defs_by_what_reached_them(tmp_path):
    root = tmp_path / "pkg"
    root.mkdir()
    (root / "__init__.py").write_text("")
    (root / "mod.py").write_text(FIXTURE)
    workload = record(
        root, tmp_path / "workload", "mod.called(); mod.decorated(1); list(mod.generator())"
    )
    tests = record(root, tmp_path / "tests", "mod.called(); mod.tested_only()")

    defs = analyze.functions(root)
    by_name = {d.name: d for d in defs}
    assert list(by_name) == ["called", "uncalled", "decorated", "generator", "tested_only"]
    # A decorated function's code object starts at its decorator.
    decorated = by_name["decorated"]
    assert decorated.first_line == decorated.line - 1
    assert ("mod.py", decorated.first_line, "decorated") in workload
    assert ("mod.py", decorated.line, "decorated") not in workload
    # A generator resumed several times is recorded once.
    assert sum(name == "generator" for _, _, name in workload) == 1

    groups = analyze.census(defs, workload, tests)
    assert {tag: [d.name for d in group] for tag, group in groups.items()} == {
        "workload": ["called", "decorated", "generator"],
        "tests": ["tested_only"],
        "none": ["uncalled"],
    }
    assert by_name["uncalled"].lines == 2
    assert by_name["generator"].lines == 3
