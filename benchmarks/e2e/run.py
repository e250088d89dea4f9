"""Run one workload of the end-to-end benchmark.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: every
end-to-end metric of ``BENCHMARK.json`` (``--trace 0``) or every per-layer
metric (``--trace 1``).  Exits non-zero, without a result, when a worker
fails or the program's source is missing; exits 1 after printing the result
when a correctness check fails.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def main() -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from benchmarks.e2e.measure import main as measure_main

    return measure_main(sys.argv[1:])


if __name__ == "__main__":
    raise SystemExit(main())
