#!/usr/bin/env python3
"""Line coverage of ``src/blindeval`` under the tier-1 tests, with the
standard library alone.

Usage, from the repository root:

    PYTHONPATH=src python3 scripts/line_coverage.py [pytest arguments]

It runs pytest in this process (``-q --continue-on-collection-errors`` and
the arguments given) under a ``sys.settrace`` hook, which ``threading``
passes on to every thread the tests start.  The hook marks each line that
runs in a module of the package.  The executable lines of a module are those
``co_lines`` names in any code object compiled from its source.  The script
prints every executable line that never ran, grouped by file as line ranges,
then the totals, and exits with pytest's status.

Code that runs in a child process, such as a test's fresh interpreter, is
not seen.  Tracing slows the tests several times over, so the script is not
part of the test suite.
"""

from __future__ import annotations

import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "blindeval"


def executable_lines(path: Path) -> set[int]:
    """Every line number that ``co_lines`` gives for the code of ``path``."""
    lines: set[int] = set()
    codes = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: a module's RESUME
        codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def line_ranges(numbers: list[int]) -> str:
    """``1, 4-6, 9`` for ``[1, 4, 5, 6, 9]``."""
    ranges: list[list[int]] = []
    for n in numbers:
        if ranges and n == ranges[-1][1] + 1:
            ranges[-1][1] = n
        else:
            ranges.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in ranges)


def main(argv: list[str]) -> int:
    import pytest

    executable = {str(path): executable_lines(path) for path in sorted(PACKAGE.glob("*.py"))}
    # one mark per line, allocated before the tests run, so that marking a
    # line allocates nothing that a test's tracemalloc guard would count
    marks = {name: bytearray(max(lines, default=0) + 1) for name, lines in executable.items()}

    def local_tracer(marked: bytearray):
        def trace(frame, event, arg):
            if event == "line":
                marked[frame.f_lineno] = 1
            return trace
        return trace

    tracers = {name: local_tracer(marked) for name, marked in marks.items()}

    def global_trace(frame, event, arg):
        return tracers.get(frame.f_code.co_filename)

    threading.settrace(global_trace)
    sys.settrace(global_trace)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
                              *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = ran = 0
    print()
    for name, lines in executable.items():
        missed = sorted(n for n in lines if not marks[name][n])
        total += len(lines)
        ran += len(lines) - len(missed)
        if missed:
            print(f"{Path(name).relative_to(ROOT)}: {line_ranges(missed)}")
    print(f"{ran} of {total} executable lines ran ({100 * ran / max(total, 1):.1f}%)")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
