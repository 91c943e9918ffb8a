"""kmagic benchmark: seeded workloads, end-to-end metrics, traced per-layer run.

Usage, from the root of a kmagic checkout:

    python3 perfbench/run.py --workload spectrum-oracle --seed 0 --seconds 30 --trace 0

The package is first built with its own build script (``setup.py
build``) into .bench_build/, untimed; the benchmark then imports kmagic
from there.  One client runs jobs one at a time (a closed loop), round
after round, and starts no round it does not expect to finish within
--seconds.  The clock of the timed phase runs only while a job is inside
kmagic: generating the next input and checking the last answer are the
client's think time.  Job and set-up times are reported at a nominal
CPU speed: each is scaled by how much slower than nominal a fixed gauge
loop ran on the same CPU right around it (see CpuChooser and Tally), so
that the load other tenants put on a shared host drops out.  The raw
wall times are printed too.  Every answer is checked; with --seed 0
every decided answer is also compared with perfbench/reference/.

--trace 0 prints the end-to-end metrics.  --trace 1 runs each round
untraced and then traced, and prints the per-layer metrics.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402  (imports nothing heavy; networkx is loaded lazily)

BUILD_DIR = Path(".bench_build") / "py"
LIB = BUILD_DIR / "lib"
STAMP = BUILD_DIR / "source.sha256"
REFERENCE_DIR = HERE / "reference"
DEFAULT_SEED = 0
SETUP_PROBES = 8
MIN_JOBS = 100
MAX_OVERRUN = 3  # a slow machine may stretch a run to this many --seconds to reach MIN_JOBS
# Job times are reported for a CPU that runs the gauge loop (CpuChooser)
# in this time: the 2-vCPU Xeon build machine at full speed.
NOMINAL_GAUGE_S = 450e-6


# ---------------------------------------------------------------------------
# build (untimed)


def _source_digest() -> str:
    h = hashlib.sha256()
    files = [Path("setup.py"), Path("pyproject.toml")]
    files += sorted(p for p in Path("src").rglob("*") if p.is_file() and "__pycache__" not in p.parts)
    for path in files:
        h.update(str(path).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def build() -> Path:
    """Build the package as its build script does; rebuild when sources change."""
    if not (Path("setup.py").is_file() and Path("src/kmagic").is_dir()):
        raise SystemExit("run.py: no kmagic source tree (setup.py, src/kmagic) in the working directory")
    digest = _source_digest()
    if STAMP.is_file() and STAMP.read_text() == digest and LIB.is_dir():
        return LIB.resolve()
    shutil.rmtree(BUILD_DIR, ignore_errors=True)
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build", "--build-base", str(BUILD_DIR),
         "--build-lib", str(LIB)],
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit("run.py: setup.py build failed")
    STAMP.write_text(digest)
    return LIB.resolve()


# ---------------------------------------------------------------------------
# set-up: import kmagic, generate and parse the first rounds


def parse_round(rnd: corpus.Round) -> dict:
    import kmagic

    return {key: kmagic.parse_graph(text) for key, text in rnd.graphs.items()}


def setup(workload: str, seed: int) -> tuple[float, list]:
    """Timed set-up; returns (seconds, [(round, graphs)] for warm-up and
    round 0).  The seconds are scaled to the nominal CPU speed like job
    times (see Tally)."""

    def work():
        import kmagic  # noqa: F401

        rounds = [corpus.make_round(workload, seed, i) for i in (corpus.WARMUP, 0)]
        return [(rnd, parse_round(rnd)) for rnd in rounds]

    parsed, seconds = timed(work)
    return seconds, parsed


def timed(fn) -> tuple:
    """(fn(), its wall time scaled to the nominal CPU speed, as job times are)."""
    before = CHOOSER.settle()
    t0 = time.perf_counter()
    out = fn()
    seconds = time.perf_counter() - t0
    return out, seconds * NOMINAL_GAUGE_S / ((before + CHOOSER.gauge()) / 2)


def probe_setup(workload: str, seed: int) -> list[float]:
    """Set-up time of fresh processes, each importing kmagic anew."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload,
             "--seed", str(seed)],
            capture_output=True, text=True, check=True,
        )
        out.append(float(proc.stdout.split()[-1]))
    return out


# ---------------------------------------------------------------------------
# measurement


class CpuChooser:
    """Keeps the client on the faster of its CPUs and gauges that CPU's speed.

    On a shared host a CPU runs this code 1.3-2x slower for seconds or
    minutes at a time while other tenants load the core under it, and
    the CPUs of a small machine need not slow down together.  The gauge
    is the best of three timings of a short fixed loop of integer
    arithmetic, dict and list building and a sort, which slows down with
    the CPU about as kmagic's search kernel and networkx's matching do.
    ``settle`` runs before a job, outside the timed clock: at most every
    INTERVAL seconds it gauges each allowed CPU and moves the client to
    the fastest (only this process's own affinity changes); it returns
    the current CPU's latest gauge.  ``gauge`` runs after every job.
    ``best`` is the fastest gauge of the run; it is printed, not used,
    because in a run that sees the CPU only under load it is not the
    CPU's full speed."""

    INTERVAL = 0.25
    KEYS = random.Random(0).sample(range(10**6), 750)

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self.last = float("-inf")
        self.best = float("inf")
        self.recent: float | None = None

    @classmethod
    def _loop(cls) -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(2000):
            acc += (i * 7919) % 1009
        table = {}
        for key in cls.KEYS:
            table[key] = [key, acc]
        for key in cls.KEYS:
            acc += table[key][0]
        sorted(table, key=table.get)
        return time.perf_counter() - t0

    def gauge(self) -> float:
        self.recent = min(self._loop() for _ in range(3))
        self.best = min(self.best, self.recent)
        return self.recent

    def settle(self) -> float:
        if len(self.cpus) > 1 and time.perf_counter() - self.last >= self.INTERVAL:
            speed = {}
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                speed[cpu] = self.gauge()
            cpu = min(speed, key=speed.get)
            os.sched_setaffinity(0, {cpu})
            self.recent = speed[cpu]
            self.last = time.perf_counter()
        elif self.recent is None:
            self.gauge()
        return self.recent


CHOOSER = CpuChooser()


class Tally:
    """Job outcomes of one phase, plus any other checked operations.

    ``latencies`` are wall times.  ``gauges`` hold, per job, the mean of
    the gauge loop's time right before and right after it: how slow the
    CPU ran around that job.  ``at_nominal_speed`` scales each wall time by
    NOMINAL_GAUGE_S over the job's own gauge, giving the time the job
    would take on a CPU that runs the gauge loop in NOMINAL_GAUGE_S.
    That takes out the slowdown other tenants impose on the CPU (it moves
    job times and the gauge together) and keeps any change in the
    program's own work: the gauge runs no kmagic code.  On the 2-vCPU
    build machine, one round of each workload repeated for 80-150 s had
    a round-to-round coefficient of variation of 8-17% in wall time and
    3-7% scaled by a gauge of this kind."""

    def __init__(self) -> None:
        self.attempted = 0
        self.busy = 0.0  # timed seconds
        self.latencies: list[float] = []
        self.gauges: list[float] = []
        self.answers: dict[str, str] = {}
        self.digests: dict[int, str] = {}
        self.undecided = 0
        self.failed_jobs: set[str] = set()
        self.problems: list[str] = []

    def record(self, job_id: str, seconds: float, gauge: float, answer: str, problems: list[str]) -> None:
        self.attempted += 1
        self.latencies.append(seconds)
        self.gauges.append(gauge)
        self.answers[job_id] = answer
        self.undecided += "?" in answer
        self.fail(job_id, problems)

    def fail(self, job_id: str, problems: list[str]) -> None:
        if problems:
            self.failed_jobs.add(job_id)
            self.problems.extend(f"{job_id}: {p}" for p in problems)

    def at_nominal_speed(self) -> list[float]:
        return [t * NOMINAL_GAUGE_S / g for t, g in zip(self.latencies, self.gauges)]


def run_round(workload: str, rnd: corpus.Round, graphs: dict, tally: Tally) -> None:
    """Run and check every job of a round."""
    from jobs import check_job, run_job

    context: dict = {}
    current = None
    for job_id, key, args in rnd.jobs:
        if key != current:
            context, current = {}, key
        G = graphs[key]
        before = CHOOSER.settle()
        t0 = time.perf_counter()
        try:
            out = run_job(workload, G, args)
        except Exception as exc:  # a job that raises is a failed job, not a crash
            out = exc
        dt = time.perf_counter() - t0
        gauge = (before + CHOOSER.gauge()) / 2
        tally.busy += dt
        if isinstance(out, Exception):
            tally.record(job_id, dt, gauge, "!", [f"raised {out!r}"])
        else:
            tally.record(job_id, dt, gauge, *check_job(workload, G, args, out, context))
    tally.digests[rnd.index] = rnd.digest()


def measure(workload: str, seed: int, seconds: float, first: tuple, step, min_jobs: int = 0) -> None:
    """step(round, graphs) for rounds 0, 1, ... until the next round would
    end after `seconds` and at least `min_jobs` jobs ran."""
    start = time.perf_counter()
    index = jobs = 0
    while True:
        elapsed = time.perf_counter() - start
        if index and elapsed + elapsed / index > seconds and (
            jobs >= min_jobs or elapsed > MAX_OVERRUN * seconds
        ):
            return
        if index == 0:
            rnd, graphs = first
        else:
            rnd = corpus.make_round(workload, seed, index)
            graphs = parse_round(rnd)
        step(rnd, graphs)
        jobs += len(rnd.jobs)
        index += 1


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------------------------
# answer checks beyond the per-job ones


def kernel_cross_check() -> tuple[int, list[str]]:
    """Every importable kernel must agree on status, nodes and labeling."""
    import kmagic
    from kmagic.solver import available_kernels

    from jobs import BUDGETS

    kernels = available_kernels()
    budget = BUDGETS["spectrum-oracle"]
    problems, cases = [], 0
    for name, text, k in corpus.kernel_check_cases():
        G = kmagic.parse_graph(text)
        for c in range(k):
            cases += 1
            results = {kn: kmagic.search_labeling(G, k, c, budget, kernel=impl) for kn, impl in kernels.items()}
            first = next(iter(results.values()))
            for kn, res in results.items():
                same_lab = (res.labeling is None) == (first.labeling is None) and (
                    res.labeling is None or res.labeling.labels == first.labeling.labels
                )
                if res.status != first.status or res.nodes != first.nodes or not same_lab:
                    problems.append(f"kernel {kn} disagrees on {name} k={k} c={c}")
    return cases, problems


def reference_check(workload: str, tally: Tally) -> dict:
    """Compare decided answers with the committed reference (seed 0 only).

    A flipped answer fails its job; the counts are returned."""
    path = REFERENCE_DIR / f"{workload}.json"
    ref = json.loads(path.read_text(encoding="ascii"))
    out = {"compared": 0, "flipped": 0, "newly_decided": 0, "newly_undecided": 0, "not_covered": 0}
    for job_id, answer in tally.answers.items():
        index = int(job_id.split(".")[0])
        entry = ref["rounds"].get(str(index))
        if entry is None or entry["digest"] != tally.digests[index]:
            out["not_covered"] += 1
            continue
        want = entry["answers"][job_id]
        out["compared"] += 1
        if len(want) != len(answer) or any(
            a in "yn" and w in "yn" and a != w for a, w in zip(answer, want)
        ):
            out["flipped"] += 1
            tally.fail(job_id, [f"answer {answer!r}, reference {want!r}"])
        out["newly_decided"] += sum(w == "?" and a in "yn" for a, w in zip(answer, want))
        out["newly_undecided"] += sum(w in "yn" and a == "?" for a, w in zip(answer, want))
    return out


def write_reference(workload: str, rounds: int) -> None:
    """Record the answers of rounds 0..rounds-1 at the default seed."""
    import networkx

    data = {"workload": workload, "seed": DEFAULT_SEED, "networkx": networkx.__version__, "rounds": {}}
    for index in range(rounds):
        rnd = corpus.make_round(workload, DEFAULT_SEED, index)
        tally = Tally()
        run_round(workload, rnd, parse_round(rnd), tally)
        if tally.problems:
            raise SystemExit("refusing to record a reference with failed checks:\n" + "\n".join(tally.problems))
        data["rounds"][str(index)] = {"digest": tally.digests[index], "answers": tally.answers}
        print(f"round {index}: {len(tally.answers)} jobs", flush=True)
    REFERENCE_DIR.mkdir(exist_ok=True)
    (REFERENCE_DIR / f"{workload}.json").write_text(
        json.dumps(data, sort_keys=True, indent=0) + "\n", encoding="ascii"
    )


# ---------------------------------------------------------------------------


def environment() -> dict:
    import networkx
    from kmagic.solver import KERNEL

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "kernel": KERNEL,
        "python": platform.python_version(),
        "networkx": networkx.__version__,
        "commit": commit,
        "nproc": len(CHOOSER.cpus),  # the CPUs allowed at start; the client pins itself to one
    }


def run_plain(args, first: tuple, setup_s: float, probes: list[float]) -> tuple[Tally, dict]:
    tally = Tally()
    measure(args.workload, args.seed, args.seconds, first,
            lambda rnd, graphs: run_round(args.workload, rnd, graphs, tally), MIN_JOBS)
    jobs = len(tally.latencies)
    nominal = tally.at_nominal_speed()
    metrics = {
        "jobs_per_s": (jobs / sum(nominal), "1/s"),
        "latency_p50_ms": (1000 * percentile(nominal, 50), "ms"),
        "latency_p90_ms": (1000 * percentile(nominal, 90), "ms"),
        "decided_frac": (1 - tally.undecided / jobs, "ratio"),
        "setup_s": (statistics.median(probes + [setup_s]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return tally, metrics


def run_traced(args, first: tuple, lib: Path, setup_tracer, extra: Tally) -> tuple[Tally, dict]:
    """Each round runs untraced, then again traced on freshly parsed
    graphs, so the two timings behind the overhead are close in time."""
    import cli_probe
    import tracer

    plain, tally, tr = Tally(), Tally(), tracer.Tracer()

    def step(rnd, graphs):
        run_round(args.workload, rnd, graphs, plain)
        replay = parse_round(rnd)
        tr.install()
        try:
            run_round(args.workload, rnd, replay, tally)
        finally:
            tr.uninstall()

    measure(args.workload, args.seed, args.seconds, first, step)
    tr.write(BUILD_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
    values = tr.metrics(tally.busy)
    values["graphs.parse_graph.busy_s"] = setup_tracer.busy["graphs.parse_graph"]
    cli_values, cli_calls, cli_problems = cli_probe.run(lib, BUILD_DIR / f"cli-{args.seed}", args.seed, timed)
    values.update(cli_values)
    values["trace.overhead_frac"] = 1 - sum(plain.at_nominal_speed()) / sum(
        tally.at_nominal_speed()
    )
    values["trace.wall_s"] = tally.busy
    values["trace.jobs"] = len(tally.latencies)
    for i, problem in enumerate(cli_problems):
        extra.fail(f"cli.{i}", [problem])
    extra.attempted += plain.attempted + cli_calls
    for problem in plain.problems:
        extra.fail("untraced " + problem.split(":")[0], [problem])
    return tally, {name: (v, tracer.unit(name)) for name, v in values.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--write-reference", type=int, metavar="ROUNDS",
                    help="record reference answers for this many rounds at the default seed")
    args = ap.parse_args()

    if args.setup_probe:
        sys.path.insert(0, str(LIB.resolve()))
        print(setup(args.workload, args.seed)[0])
        return 0

    lib = build()
    probes = [] if args.trace or args.write_reference else probe_setup(args.workload, args.seed)
    sys.path.insert(0, str(lib))
    if args.write_reference:
        write_reference(args.workload, args.write_reference)
        return 0

    setup_tracer = None
    if args.trace:
        import kmagic  # noqa: F401  (the tracer patches loaded modules)
        import tracer

        setup_tracer = tracer.Tracer().install()
    setup_s, ((warm_round, warm_graphs), first) = setup(args.workload, args.seed)
    if setup_tracer is not None:
        setup_tracer.uninstall()

    import kmagic

    if Path(kmagic.__file__).resolve().parent != lib / "kmagic":
        raise SystemExit(f"run.py: imported kmagic from {kmagic.__file__}, not from the build")
    env = environment()

    # warm-up jobs, kernel cross-checks and CLI calls are checked like jobs
    extra = Tally()
    run_round(args.workload, warm_round, warm_graphs, extra)
    if args.trace:
        tally, metrics = run_traced(args, first, lib, setup_tracer, extra)
    else:
        tally, metrics = run_plain(args, first, setup_s, probes)
    if args.workload == "spectrum-oracle":
        cases, problems = kernel_cross_check()
        extra.attempted += cases
        for i, problem in enumerate(problems):
            extra.fail(f"kernel-check.{i}", [problem])
    ref = reference_check(args.workload, tally) if args.seed == DEFAULT_SEED else None

    inputs = hashlib.sha256("".join(tally.digests[i] for i in sorted(tally.digests)).encode())
    jobs = len(tally.latencies)
    failed = len(tally.failed_jobs) + len(extra.failed_jobs)
    print(f"env: {json.dumps(env, sort_keys=True)}")
    print(f"inputs: workload={args.workload} seed={args.seed} rounds={len(tally.digests)} "
          f"round0={tally.digests[0][:16]} all={inputs.hexdigest()[:16]}")
    print(f"jobs: measured={jobs} undecided={tally.undecided} latency_samples={jobs}")
    print(f"wall: timed_s={tally.busy:.3f} jobs_per_s={jobs / tally.busy:.4g} "
          f"latency_p50_ms={1000 * percentile(tally.latencies, 50):.6g} "
          f"latency_p90_ms={1000 * percentile(tally.latencies, 90):.6g}")
    print(f"cpu: best_gauge_us={1e6 * CHOOSER.best:.1f} nominal_gauge_us={1e6 * NOMINAL_GAUGE_S:.1f} "
          f"timed_s_at_nominal_speed={sum(tally.at_nominal_speed()):.3f}")
    print("reference: " + ("not checked (seed is not the default)" if ref is None else json.dumps(ref, sort_keys=True)))
    for problem in extra.problems + tally.problems:
        print(f"FAILED {problem}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": tally.attempted + extra.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
