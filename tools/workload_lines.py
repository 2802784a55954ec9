"""The statements of src/kbforge that no benchmark workload runs.

    python3 tools/workload_lines.py [--seed N]

Copies src/ and bench/ to a temporary directory, so the checkout's
.bench_work/ history is untouched, and there runs
``bench/run.py --workload W --seconds 0 --seed N`` for each workload under a
line tracer limited to src/kbforge. Then prints, for each module, the
statements (found with ast) that neither run executed. A statement that did
not run is printed once, with its line span, and the statements nested in
it are not; a function whose body never ran is printed as its ``def``.
Edits nothing; the temporary directory is removed at the end.
"""

from __future__ import annotations

import argparse
import ast
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cold_build", "infer_new_text")

# Run in the child: runs a script under a tracer that records the
# (file, line) of every line event in a file under a prefix, and writes
# them as JSON when the script ends.
CHILD = r"""
import json, runpy, sys
prefix, out, script, *argv = sys.argv[1:]
hits = set()

def lines(frame, event, arg):
    if event == "line":
        hits.add((frame.f_code.co_filename, frame.f_lineno))
    return lines

def calls(frame, event, arg):
    return lines if frame.f_code.co_filename.startswith(prefix) else None

sys.argv = [script, *argv]
sys.settrace(calls)
try:
    runpy.run_path(script, run_name="__main__")
finally:
    sys.settrace(None)
    with open(out, "w") as fh:
        json.dump(sorted(hits), fh)
"""


def executed_lines(workdir: Path, workload: str, seed: int) -> tuple[dict, int]:
    """{module path under src/kbforge: set of executed lines} of one run,
    and the run's exit code."""
    package = workdir / "src" / "kbforge"
    out = workdir / f"lines-{workload}.json"
    cmd = [sys.executable, "-c", CHILD, str(package) + "/", str(out),
           str(workdir / "bench" / "run.py"), "--workload", workload,
           "--seconds", "0", "--seed", str(seed)]
    code = subprocess.run(cmd, cwd=workdir, stdout=subprocess.DEVNULL).returncode
    hits: dict[str, set[int]] = {}
    for filename, line in json.loads(out.read_text()):
        hits.setdefault(Path(filename).relative_to(package).as_posix(), set()).add(line)
    return hits, code


def _is_docstring(stmt: ast.stmt, first: bool) -> bool:
    return (first and isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str))


def _header(stmt: ast.stmt) -> range:
    """The lines a statement's own code sits on: all of a simple statement;
    a compound one's from its first decorator to the line before its body."""
    body = getattr(stmt, "body", None)
    if not isinstance(body, list) or not body:
        return range(stmt.lineno, stmt.end_lineno + 1)
    first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])])
    return range(first, max(body[0].lineno, stmt.lineno + 1))


def _blocks(stmt: ast.stmt) -> list[list[ast.stmt]]:
    """The statement lists nested directly in ``stmt``."""
    blocks = [getattr(stmt, name, None) for name in ("body", "orelse", "finalbody")]
    blocks += [h.body for h in getattr(stmt, "handlers", [])]
    blocks += [c.body for c in getattr(stmt, "cases", [])]
    return [b for b in blocks if isinstance(b, list) and b and isinstance(b[0], ast.stmt)]


def never_ran(body: list[ast.stmt], hit: set[int]) -> list[ast.stmt]:
    """The outermost statements of ``body`` that did not run, and each
    function whose def ran but whose body did not."""
    missed = []
    for i, stmt in enumerate(body):
        if _is_docstring(stmt, i == 0) or isinstance(stmt, (ast.Global, ast.Nonlocal)):
            continue  # compiled to no line of code
        if not hit.intersection(_header(stmt)):
            missed.append(stmt)
            continue
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            code = [s for j, s in enumerate(stmt.body) if not _is_docstring(s, j == 0)]
            if code and not hit.intersection(range(code[0].lineno, stmt.end_lineno + 1)):
                missed.append(stmt)
                continue
        for block in _blocks(stmt):
            missed += never_ran(block, hit)
    return missed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="workload-lines-") as tmp:
        workdir = Path(tmp)
        for name in ("src", "bench"):
            shutil.copytree(ROOT / name, workdir / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".bench_work"))
        hits: dict[str, set[int]] = {}
        for workload in WORKLOADS:
            run_hits, code = executed_lines(workdir, workload, args.seed)
            print(f"# {workload} seed {args.seed}: bench/run.py exited {code}")
            for module, lines in run_hits.items():
                hits.setdefault(module, set()).update(lines)

        package = workdir / "src" / "kbforge"
        total = 0
        for path in sorted(package.rglob("*.py")):
            module = path.relative_to(package).as_posix()
            source = path.read_text(encoding="utf-8")
            text = source.splitlines()
            missed = never_ran(ast.parse(source).body, hits.get(module, set()))
            total += len(missed)
            for stmt in missed:
                span = (f"{stmt.lineno}" if stmt.end_lineno == stmt.lineno
                        else f"{stmt.lineno}-{stmt.end_lineno}")
                print(f"{module}:{span}\t{text[stmt.lineno - 1].strip()}")
    print(f"# {total} statements or functions that neither workload ran")
    return 0


if __name__ == "__main__":
    sys.exit(main())
