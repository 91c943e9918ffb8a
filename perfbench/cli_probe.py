"""A fixed script of ``python3 -m kmagic.cli`` calls, run one at a time.

Measures the CLI layer for the traced run: ``cli.startup_s`` is the
median time of a fresh interpreter that only imports ``kmagic.cli`` (one
runs before each call), and ``cli.exec_s`` sums, over the script, each
call's time minus that median.  Times are taken with the caller's
``timed``, which scales them to the nominal CPU speed.  Each call's exit
code and stdout bytes must equal those of the same command run
in-process through ``kmagic.cli.main``.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path

import corpus


def _script(workdir: Path) -> list[list[str]]:
    g, q, lab = str(workdir / "g.txt"), str(workdir / "q.txt"), str(workdir / "lab.json")
    tiny = str(workdir / "corpus")
    return [
        ["gen", "--family", "petersen"],
        ["gen", "--family", "circulant", "--n", "9", "--offsets", "1,2"],
        ["label", g, "--k", "5", "--c", "1", "-o", lab],
        ["verify", g, lab],
        ["spectrum", g, "--k", "4"],
        ["spectrum", g, "--k", "4", "--method", "both"],
        ["factorize", q, "--mode", "two-factors"],
        ["factorize", g, "--mode", "f-factor", "--h", "1"],
        ["null-set", g, "--kmax", "6"],
        ["compare", "--corpus", tiny, "--k-range", "3..5"],
    ]


def _write_inputs(workdir: Path, seed: int) -> None:
    rng = random.Random(f"cli/{seed}")
    (workdir / "corpus").mkdir(parents=True, exist_ok=True)
    (workdir / "g.txt").write_text(corpus._text(*corpus._random_regular(rng, 3, 10)), encoding="ascii")
    (workdir / "q.txt").write_text(corpus._text(*corpus._random_regular(rng, 4, 9)), encoding="ascii")
    for i, (r, n) in enumerate(((3, 8), (4, 7), (3, 10))):
        text = corpus._text(*corpus._random_regular(rng, r, n))
        (workdir / "corpus" / f"g{i}.txt").write_text(text, encoding="ascii")


def _in_process(argv: list[str]) -> tuple[int, bytes]:
    from kmagic import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, buf.getvalue().encode("ascii")


def run(lib: Path, workdir: Path, seed: int, timed) -> tuple[dict[str, float], int, list[str]]:
    """(metrics, calls attempted, problems).  timed(fn) -> (fn(), seconds)."""
    workdir.mkdir(parents=True, exist_ok=True)
    _write_inputs(workdir, seed)
    env = {**os.environ, "PYTHONPATH": str(lib)}
    env.pop("MAGIC_SOLVER_BUDGET", None)

    def startup() -> float:
        return timed(lambda: subprocess.run([sys.executable, "-c", "import kmagic.cli"], env=env, check=True))[1]

    startup()  # the first start also warms the file cache
    problems, starts, calls = [], [], []
    script = _script(workdir)
    for argv in script:
        starts.append(startup())
        proc, seconds = timed(lambda: subprocess.run(
            [sys.executable, "-m", "kmagic.cli", *argv], env=env, capture_output=True
        ))
        calls.append(seconds)
        if "-o" in argv:  # compare the written file, then rewrite it in-process
            written = Path(argv[argv.index("-o") + 1]).read_bytes()
        code, out = _in_process(argv)
        if "-o" in argv:
            if Path(argv[argv.index("-o") + 1]).read_bytes() != written:
                problems.append(f"cli {argv[0]}: output file differs from in-process run")
        if proc.returncode != code or proc.stdout != out:
            problems.append(
                f"cli {' '.join(argv)}: exit {proc.returncode}/{code}, "
                f"stdout {'same' if proc.stdout == out else 'differs'}"
            )
    start = statistics.median(starts)
    metrics = {"cli.startup_s": start, "cli.exec_s": sum(calls) - len(calls) * start}
    return metrics, len(script), problems
