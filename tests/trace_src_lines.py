"""Lines of src/covact that tier-1 never runs.

Run from a checkout, pinned to one CPU so the jobs that ``workers.run_jobs``
would fork run in this process: ``taskset -c 0 python tests/trace_src_lines.py``.

Runs tier-1 (pytest over ``tests/``) in this process with a line tracer on
every frame of a ``src/covact`` module (``sys.settrace`` and
``threading.settrace``; stdlib only), then prints every executable line that
never ran, docstrings aside, as ``module:line function: text``.  A line that
cannot run in this process is listed in ALLOWED, keyed by module, function
and stripped source text, so it survives edits elsewhere in the file; a
text that several missed lines share is listed once per line.  Exits
1 when tier-1 fails, when a line outside ALLOWED never ran, or when an
ALLOWED entry ran or no longer exists, so the list stays exact.  pytest does
not collect this file.
"""

import ast
import os
import sys
import threading
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "covact"

ALLOWED = [
    # Runs only in a forked worker, which the tracer of this process cannot see.
    ("workers", "_init_worker", "if (prctl := getattr(ctypes.CDLL(None), \"prctl\", None)) is not None:"),
    ("workers", "_init_worker", "prctl(1, signal.SIGKILL)"),
    ("workers", "_init_worker", "if os.getppid() != parent:"),
    ("workers", "_init_worker", "os._exit(1)"),
    # Runs only as ``python -m covact``: in a subprocess of
    # test_python_m_covact_is_the_cli and in CI's CLI golden step.
    ("__main__", "<module>", "import sys"),
    ("__main__", "<module>", "from .cli import main"),
    ("__main__", "<module>", "if __name__ == \"__main__\":"),
    ("__main__", "<module>", "sys.exit(main())"),
    # Reachable only through the lstsq fallback, when parallel columns make
    # the bordered KKT system singular: a non-finite solve, a zero total and
    # an empty support.
    ("skc", "_simplex_qp", "raise np.linalg.LinAlgError"),
    ("skc", "_simplex_qp", "break"),
    ("skc", "_simplex_qp", "free[int(np.argmin(np.diag(Q)))] = True"),
    ("skc", "_simplex_qp", "u[:] = 0.0"),
    ("skc", "_simplex_qp", "u[free] = 1.0"),
    # Halley's guards: a zero denominator and the two branch clamps, never
    # met in ~127k probe arguments on either branch.
    ("lambertw", "lambert_w", "break"),
    ("lambertw", "lambert_w", "w = -1.0 + 1e-16"),
    ("lambertw", "lambert_w", "w = -1.0 - 1e-16"),
]


def executable_lines(path):
    """{line: (function, stripped text)} for every line of path that compiles to code, docstrings aside."""
    source = path.read_text()
    tree = ast.parse(source)
    docstrings, owner = set(), {}

    def visit(node, name):
        body = getattr(node, "body", None)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and body:
            first = body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name if name == "<module>" else f"{name}.{child.name}"
                owner.update(dict.fromkeys(range(child.lineno, child.end_lineno + 1), inner))
                visit(child, inner)
            else:
                visit(child, name)

    visit(tree, "<module>")
    lines, codes = set(), [compile(source, str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0 and None: no source line
        codes.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    text = source.splitlines()
    return {line: (owner.get(line, "<module>"), text[line - 1].strip()) for line in sorted(lines - docstrings)}


def traced(run):
    """run() under a line tracer on every frame of a src/covact module (``sys.settrace`` and ``threading.settrace``).

    Returns run's result and {module path: set of lines that ran}.
    """
    files = {str(path) for path in PACKAGE.glob("*.py")}
    ran = {filename: set() for filename in files}
    tracers = {}

    def tracer_for(filename):
        if filename not in tracers:
            real = os.path.realpath(filename)
            if real in files:
                hits = ran[real]

                def local(frame, event, arg):
                    if event == "line":
                        hits.add(frame.f_lineno)
                    return local

                tracers[filename] = local
            else:
                tracers[filename] = None
        return tracers[filename]

    def trace(frame, event, arg):
        return tracer_for(frame.f_code.co_filename)

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        return run(), ran
    finally:
        sys.settrace(None)
        threading.settrace(None)


def unrun_lines(ran):
    """(module, line, function, text) of every executable line that ``ran`` (from traced) does not hold, by module and line."""
    for filename in sorted(ran):
        module = Path(filename).stem
        for line, (function, text) in executable_lines(Path(filename)).items():
            if line not in ran[filename]:
                yield module, line, function, text


def main():
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    os.chdir(ROOT)
    status, ran = traced(lambda: pytest.main(["-q", "--continue-on-collection-errors", "tests"]))
    missed, unused = [], Counter(ALLOWED)
    for module, line, function, text in unrun_lines(ran):
        key = (module, function, text)
        if unused[key] > 0:
            unused[key] -= 1
            print(f"allowed {module}:{line} {function}: {text}")
        else:
            missed.append(f"{module}:{line} {function}: {text}")
    stale = sorted(unused.elements())
    for line in missed:
        print(f"MISSED {line}")
    for module, function, text in stale:
        print(f"STALE ALLOWED {module} {function}: {text} (it ran, or no such line)")
    print(f"{len(missed)} lines missed outside ALLOWED, {len(ALLOWED) - len(stale)} of {len(ALLOWED)} allowed lines missed, {len(stale)} stale; pytest exit {int(status)}")
    return 1 if missed or stale or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
