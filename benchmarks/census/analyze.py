"""Count the functions under ``src/repro`` that no workload runs.

    python -m benchmarks.census.analyze WORKLOAD_DIR TESTS_DIR

``WORKLOAD_DIR`` and ``TESTS_DIR`` hold the records ``sitecustomize.py``
wrote during the run list (``run.sh``) and during tier-1.  The function
universe is every ``def`` and ``async def`` in the package (``ast.walk``,
so nested functions count too).  A record matches a def by file, name
and either the ``def`` line or its first decorator's line (a decorated
function's code object starts at the decorator).  A function's size is
``end_lineno - lineno + 1``.  Four count lines come first, then each
function that no workload runs, tagged ``tests`` or ``none``.
"""

from __future__ import annotations

import argparse
import ast
from pathlib import Path
from typing import Iterable, NamedTuple

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


class Def(NamedTuple):
    file: str
    name: str
    line: int
    first_line: int
    lines: int


def functions(root: Path = SRC) -> list[Def]:
    """Every function definition under ``root``, files relative to it."""
    out = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = node.decorator_list[0].lineno if node.decorator_list else node.lineno
                out.append(
                    Def(rel, node.name, node.lineno, first, node.end_lineno - node.lineno + 1)
                )
    return out


def records(directory: Path) -> set[tuple[str, int, str]]:
    """``(file, first line, name)`` of every code object the hook saw."""
    seen = set()
    for path in Path(directory).glob("*.txt"):
        for line in path.read_text().splitlines():
            file, lineno, name = line.split("\t")
            seen.add((file, int(lineno), name))
    return seen


def reached(defs: Iterable[Def], seen: set[tuple[str, int, str]]) -> set[Def]:
    return {
        d
        for d in defs
        if (d.file, d.line, d.name) in seen or (d.file, d.first_line, d.name) in seen
    }


def census(defs: list[Def], workload: set, tests: set) -> dict[str, list[Def]]:
    """Split ``defs`` into run by a workload, only by tests, and by nothing."""
    run = reached(defs, workload)
    by_tests = reached(defs, tests)
    unrun = [d for d in defs if d not in run]
    return {
        "workload": [d for d in defs if d in run],
        "tests": [d for d in unrun if d in by_tests],
        "none": [d for d in unrun if d not in by_tests],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload_dir", type=Path)
    parser.add_argument("tests_dir", type=Path)
    args = parser.parse_args(argv)
    defs = functions()
    groups = census(defs, records(args.workload_dir), records(args.tests_dir))
    unrun = groups["tests"] + groups["none"]

    def size(group: list[Def]) -> str:
        return f"{len(group)} ({sum(d.lines for d in group)} lines)"

    print(f"functions: {len(defs)}")
    print(f"never run by a workload: {size(unrun)}")
    print(f"  reached only by tier-1: {size(groups['tests'])}")
    print(f"  reached by nothing: {size(groups['none'])}")
    for tag in ("tests", "none"):
        for d in groups[tag]:
            print(f"{tag}\t{d.file}:{d.line}\t{d.name}\t{d.lines}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
