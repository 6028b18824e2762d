"""List the lines of src/ctsim that the tier-1 suite never runs.

Usage, from the repository root::

    python tools/untested_lines.py [REPORT] [-- PYTEST_ARGS...]

Runs pytest in this process (on ``tests`` unless PYTEST_ARGS are given)
under a ``sys.settrace`` line tracer limited to ``src/ctsim``, then writes
REPORT (default ``untested-lines.txt``): every line of a function body
that never ran, by module, less the lines the tracer cannot reach by
construction (``ALLOWED``), which the report lists apart with their
reasons. Module and class bodies run at import and are not counted, nor
is anything a test runs in a child process. The report is written
whatever pytest returns. The tracer slows the suite about threefold, so a
wall-time gate (``test_c02_feedback_closure``'s) may fail under it: the
tests that fail under the tracer are run again, untraced, in a fresh
pytest, and the tool exits with that run's status. The report's first
line gives both statuses. Needs only the standard library and pytest.
"""

from __future__ import annotations

import inspect
import os
import subprocess
import sys
import threading
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "ctsim")

# lines no in-process trace can reach: (module, function, first line, last
# line, why). A range runs from the first line's first occurrence in the
# function to the last line's next one, both compared stripped; None for
# both means the whole function.
ALLOWED = [
    ("crypto.py", "_Checker.fork", "code = 1", "os._exit(code)",
     "the forked checker's body; its trace dies with the child"),
    ("crypto.py", "_leave_parent_cpu", None, None,
     "only the forked checker calls it"),
    ("crypto.py", "derive_child_key", "counter += 1",
     "k = (parent.private_key + tweak) % N",
     "re-derives a zero child key, probability about 2^-256"),
    ("crypto.py", "_rfc6979_nonce", 'k = _hmac(k, v + b"\\x00")',
     "v = _hmac(k, v)",
     "an RFC 6979 candidate out of range, probability about 2^-128"),
    ("crypto.py", "sign", "k = _rfc6979_nonce(key.private_key, sha256(msg))",
     "k = _rfc6979_nonce(key.private_key, sha256(msg))",
     "r or s zero, probability about 2^-256"),
]


def function_lines(path: str) -> dict[int, str]:
    """Each line of path that a function body's bytecode maps to, with
    the function's qualified name (the innermost one)."""
    with open(path) as fh:
        code = compile(fh.read(), path, "exec")
    lines: dict[int, str] = {}

    def walk(outer: types.CodeType) -> None:
        for const in outer.co_consts:
            if not isinstance(const, types.CodeType):
                continue
            if const.co_flags & inspect.CO_OPTIMIZED:   # not a class body
                name = getattr(const, "co_qualname", const.co_name)
                for _, _, line in const.co_lines():
                    if line is not None:
                        lines[line] = name
            walk(const)

    walk(code)
    return lines


def allowed_lines(path: str, lines: dict[int, str]) -> dict[int, str]:
    """The lines of path that ALLOWED excuses, with the reason; an entry
    that no longer matches the source is an error."""
    module = os.path.basename(path)
    with open(path) as fh:
        text = [line.strip() for line in fh]
    out: dict[int, str] = {}
    for mod, func, first, last, why in ALLOWED:
        if mod != module:
            continue
        body = sorted(n for n, name in lines.items()
                      if name == func or name.startswith(func + ".<locals>"))
        if not body:
            raise LookupError(f"{module}: no function {func}")
        if first is None:
            span = range(body[0], body[-1] + 1)
        else:
            try:
                start = next(n for n in range(body[0], body[-1] + 1)
                             if text[n - 1] == first)
                end = next(n for n in range(start, body[-1] + 1)
                           if text[n - 1] == last)
            except StopIteration:
                raise LookupError(f"{module}: {func} has no line "
                                  f"{first!r} .. {last!r}") from None
            span = range(start, end + 1)
        out.update((n, why) for n in span if n in lines)
    return out


class Failures:
    """A pytest plugin that keeps the node id of each test, or each test
    file that does not collect, that fails."""

    def __init__(self) -> None:
        self.ids: list[str] = []

    def pytest_runtest_logreport(self, report) -> None:
        if report.failed and report.nodeid not in self.ids:
            self.ids.append(report.nodeid)

    pytest_collectreport = pytest_runtest_logreport


def trace(pytest_args: list[str]) -> tuple[int, set[tuple[str, int]],
                                           list[str]]:
    """Run pytest under the tracer: its exit status, each (file, line) of
    src/ctsim that ran, and the node ids that failed."""
    import pytest

    hits: set[tuple[str, int]] = set()
    ours: dict[str, bool] = {}

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def start(frame, event, arg):
        name = frame.f_code.co_filename
        mine = ours.get(name)
        if mine is None:
            mine = ours[name] = os.path.realpath(name).startswith(
                SRC + os.sep)
        if not mine:
            return None
        # a call marks the line the function starts on
        hits.add((name, frame.f_lineno))
        return local

    failures = Failures()
    threading.settrace(start)
    sys.settrace(start)
    try:
        status = pytest.main(pytest_args, plugins=[failures])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return (int(status), {(os.path.realpath(f), n) for f, n in hits},
            failures.ids)


def rerun(ids: list[str]) -> int:
    """Run the node ids again in a fresh, untraced pytest: its status."""
    path = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "pytest", "-q", *ids],
                          cwd=ROOT, env=dict(os.environ, PYTHONPATH=path),
                          check=False).returncode


def report(status: int, untraced: int | None, failed: list[str],
           hits: set[tuple[str, int]]) -> str:
    missed, excused = [], []
    total = 0
    for module in sorted(os.listdir(SRC)):
        if not module.endswith(".py"):
            continue
        path = os.path.join(SRC, module)
        lines = function_lines(path)
        allowed = allowed_lines(path, lines)
        total += len(lines)
        with open(path) as fh:
            text = fh.read().splitlines()
        for n in sorted(lines):
            if (path, n) in hits:
                continue
            row = f"{module}:{n}  {lines[n]}  {text[n - 1].strip()}"
            if n in allowed:
                excused.append(f"{row}  [{allowed[n]}]")
            else:
                missed.append(row)
    return "\n".join([
        f"pytest exit status {status} traced, {untraced} untraced; "
        f"{total} function-body lines in src/ctsim, {len(missed)} never "
        f"run, {len(excused)} more allowed",
        "", "failed under the tracer, run again untraced:", *failed,
        "", "never run:", *missed, "", "allowed:", *excused, ""])


def main(argv: list[str]) -> int:
    args, pytest_args = argv, ["tests"]
    if "--" in argv:
        cut = argv.index("--")
        args, pytest_args = argv[:cut], argv[cut + 1:]
    out = args[0] if args else "untested-lines.txt"
    sys.path.insert(0, os.path.join(ROOT, "src"))
    status, untraced, hits, failed = 1, None, set(), []
    try:
        status, hits, failed = trace(pytest_args)
        # only a run whose tests failed has any to run again
        untraced = rerun(failed) if status == 1 and failed else status
    finally:
        with open(out, "w") as fh:
            fh.write(report(status, untraced, failed, hits))
        print(f"untested lines written to {out}")
    return untraced


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
