"""Benchmark of the fct command line, end to end and per layer.

    python3 perfbench/run.py --workload grid|cold --seed N --seconds S --trace 0|1
                             [--backend compiled|python]

Run from the root of a checkout.  Every request is a fresh interpreter
that calls fct.cli.entry() with PYTHONPATH=src, as a user's command line
call does, in a closed loop with one client.

Workloads:
  grid  one pass is `fct grid acceptance` (16 identities over 22 cells,
        caches reused across them).  Chain census heavy.  The seed is
        recorded only: the input is the fixed acceptance grid.
  cold  one pass is the fixed request list COLD, one process per
        request, nothing reused.  Noncrossing and Weyl group heavy.
        The seed sets the request order only.

--trace 0 measures passes for --seconds seconds (always at least one)
and reports the end-to-end metrics of BENCHMARK.json, in seconds at
the reference host speed (see Speed).  --trace 1 runs
each request of one pass untraced and then traced, plus the kernel
probe, and reports the per-layer metrics.  Every output is compared with reference.json and
with the Fuss-Catalan number; a mismatch counts as a failed operation.

The compiled kernel core is built once from src/fct/_fastcore.c into
$CARGO_TARGET_DIR (default .bench_build).  --backend python sets
FCT_BACKEND=python for the requests instead; the kernel probe still
compares both cores.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import signal
import subprocess
import sys
import sysconfig
import threading
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter

import tracer

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
CORE_SOURCE = SRC / "fct" / "_fastcore.c"

GRID = ["grid", "acceptance"]
# About 6 to 9 s a pass on the compiled core, so a run holds several
# passes and reports their median; the E7 request sets peak_rss_mb.
COLD = [
    ["verify", "counts", "--type", "B5", "-k", "1"],
    ["triangle", "M", "--type", "B4", "-k", "2", "--json"],
    ["triangle", "M", "--type", "D4", "-k", "2", "--json"],
    ["triangle", "H", "--type", "E7", "-k", "1", "--json"],
    ["verify", "lattice-nar", "--type", "F4", "-k", "2"],
    ["dump", "nc", "--type", "B4", "-k", "2"],
    ["dump", "nn", "--type", "F4", "-k", "3"],
    ["dump", "regions", "--type", "B3", "-k", "2"],
    ["triangle", "F", "--type", "E6", "-k", "2", "--json"],
    ["verify", "h=m", "--type", "A4", "-k", "2"],
]
USAGE_ERROR = ["verify", "counts", "--type", "A2", "-k", "0"]

SETUP_SPAWNS = 15
# Median seconds of speed_sample() on the reference host (2 cores); the
# iterations of the untimed loop that precedes the samples after a
# process; and the seconds of samples per second of the process.
SPEED_REF_S = 0.054
WARM_UP = 10_000
SPEED_SHARE = 0.05
# Times reported in seconds at the reference speed.
SPEED_ADJUSTED = ("setup_s", "wall_s", "req_iqm_s")
REQUEST_TIMEOUT_S = 150
GRID_COUNT_COLUMNS = ("|NN|", "facets", "|NC|")
# Spans whose duration includes the work of the layers below them; the
# rest of the traced time is self time of a named layer stage.
WRAPPER_SPANS = (tracer.ROOT, "verify.")


class BenchError(Exception):
    """The benchmark itself cannot run (as opposed to a failed operation)."""


def speed_sample(iterations: int = 50_000) -> float:
    """Seconds a fixed pure-Python loop takes now (see Speed)."""
    gc.disable()
    try:
        t0 = perf_counter()
        counts, seen, rows, x = {}, set(), [], 1
        for i in range(iterations):
            x = (x * 1103515245 + 12345) % 2147483648
            cell = (x & 4095, i & 7)
            counts[cell] = counts.get(cell, 0) + 1
            if x & 1:
                seen.add(x & 65535)
            rows.append(tuple(sorted((x & 7, i & 3, x >> 28))))
            if len(rows) > 5000:
                rows.clear()
        return perf_counter() - t0
    finally:
        gc.enable()


class Speed:
    """The host's speed, sampled between the processes of a run.

    On a shared host the speed of the machine drifts by tens of per cent
    within a minute, and a request slows down with it: over 30 cold
    passes the pass time and the samples taken between its requests
    correlated 0.92.  The run's times are multiplied by scale(), so they
    read as seconds at the reference speed: a change to fct moves them,
    the host's load much less.  Samples run in this process, never beside
    a request, each batch after a short untimed loop so that every
    sample finds the caches in the same state.
    """

    def __init__(self):
        self.samples = []

    def gap(self, seconds: float = 0.0) -> None:
        """At least one sample, and more until they add up to `seconds`."""
        speed_sample(WARM_UP)
        taken = [speed_sample()]
        while sum(taken) < seconds:
            taken.append(speed_sample())
        self.samples += taken

    def scale(self) -> float:
        return SPEED_REF_S * len(self.samples) / sum(self.samples)


def key(args) -> str:
    return " ".join(args)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Proc:
    code: int
    seconds: float
    rss_mb: float
    stdout: bytes
    stderr: bytes


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok


class Launcher:
    """Spawns child.py processes and measures each one."""

    def __init__(self, env: dict, core: Path, io_dir: Path):
        self.env = env
        self.core = core
        self.io = io_dir
        self.traces = 0
        self.speed = Speed()

    def spawn(self, argv) -> Proc:
        out, err = self.io / "stdout", self.io / "stderr"
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644),
        ]
        cmd = [sys.executable, str(HERE / "child.py"), *argv]
        if not self.speed.samples:
            self.speed.gap()
        t0 = perf_counter()
        pid = os.posix_spawn(sys.executable, cmd, self.env, file_actions=actions)
        timer = threading.Timer(REQUEST_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            timer.cancel()
        seconds = perf_counter() - t0
        self.speed.gap(SPEED_SHARE * seconds)
        return Proc(
            os.waitstatus_to_exitcode(status), seconds, usage.ru_maxrss / 1024,
            out.read_bytes(), err.read_bytes(),
        )

    def setup(self) -> Proc:
        return self.spawn(["setup", "--core", str(self.core)])

    def cli(self, args, trace: Path | None = None) -> Proc:
        extra = ["--trace", str(trace)] if trace else []
        return self.spawn(["cli", "--core", str(self.core), *extra, "--", *args])

    def traced_cli(self, args):
        self.traces += 1
        path = self.io / f"trace-{self.traces}.json"
        proc = self.cli(args, path)
        summary = json.loads(path.read_text()) if path.exists() else None
        return proc, summary

    def kernels(self) -> dict:
        path = self.io / "kernels.json"
        proc = self.spawn(["kernels", "--core", str(self.core), "--out", str(path)])
        if proc.code != 0:
            raise BenchError("kernel probe failed:\n" + proc.stderr.decode(errors="replace"))
        return json.loads(path.read_text())


# ---------------------------------------------------------------- build


def build_core(build_dir: Path) -> Path:
    """Directory holding fct/_fastcore, built from the shipped C once."""
    if not CORE_SOURCE.exists():
        raise BenchError(f"{CORE_SOURCE.relative_to(ROOT)} is missing; cannot build the compiled core")
    tag = sha256(CORE_SOURCE.read_bytes() + sys.version.encode())[:16]
    core = build_dir / "core" / tag
    if (core / "fct" / ("_fastcore" + sysconfig.get_config_var("EXT_SUFFIX"))).exists():
        return core
    staging = build_dir / "core" / (tag + ".tmp")
    log = build_dir / "core-build.log"
    with open(log, "wb") as fh:
        done = subprocess.run(
            [sys.executable, str(HERE / "build_core.py"), str(CORE_SOURCE),
             str(staging), str(staging / "temp")],
            stdout=fh, stderr=subprocess.STDOUT, cwd=ROOT,
        )
    if done.returncode != 0:
        raise BenchError(f"building the compiled core failed; see {log}")
    os.replace(staging, core)
    return core


def make_launcher(backend: str) -> Launcher:
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    io_dir = build_dir / "io"
    io_dir.mkdir(parents=True, exist_ok=True)
    return Launcher(child_env(backend), build_core(build_dir), io_dir)


def child_env(backend: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("FCT_BACKEND", None)
    if backend == "python":
        env["FCT_BACKEND"] = "python"
    return env


# ---------------------------------------------------------------- checks


def fuss_catalan(type_name: str, k: int) -> int:
    from fct.rootsys import TypeSpec, build_root_system, fuss_catalan_number

    return fuss_catalan_number(build_root_system(TypeSpec.parse(type_name)), k)


def request_count(args, stdout: bytes):
    """The number of objects a request's output shows, or None."""
    if args[0] == "dump" and args[1] in ("nn", "nc", "regions"):
        return len(json.loads(stdout))
    if args[0] == "triangle" and "--json" in args:
        payload = json.loads(stdout)
        rows, n = payload["monomials"], payload["n"]
        if args[1] == "H":
            return sum(c for _, _, c in rows)
        if args[1] == "F":
            return sum(c for i, j, c in rows if i + j == n)
        return sum(c for i, j, c in rows if i == j)
    return None


def arg_value(args, flag):
    return args[args.index(flag) + 1]


class Checker:
    """Compares outputs with reference.json and the Fuss-Catalan numbers."""

    def __init__(self, reference: dict):
        self.ref = reference
        self.expected = {
            key(args): fuss_catalan(arg_value(args, "--type"), int(arg_value(args, "-k")))
            for args in COLD
        }

    def request(self, tally: Tally, args, proc: Proc, families=()) -> None:
        name = key(args)
        problems = []
        if proc.code != 0:
            problems.append(f"exit {proc.code}")
        if sha256(proc.stdout) != self.ref["cold"][name]:
            problems.append("output differs from the reference")
        try:
            count = request_count(args, proc.stdout)
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"unreadable output ({exc})")
            count = None
        if count is not None and count != self.expected[name]:
            problems.append(f"count {count} != Fuss-Catalan {self.expected[name]}")
        problems += family_problems(families)
        tally.check(not problems, f"{name}: {', '.join(problems)}")

    def grid(self, tally: Tally, proc: Proc, families=()) -> None:
        ref = self.ref["grid"]
        status, counts = parse_grid(proc.stdout.decode(errors="replace"))
        for cell in ref["checks"]:
            got = status.get(cell, "missing")
            tally.check(got == "ok", f"grid {cell}: {got}")
        problems = []
        if proc.code != 0:
            problems.append(f"exit {proc.code}")
        if sha256(proc.stdout) != ref["sha256"]:
            problems.append("table differs from the reference")
        for (type_name, k), row in counts.items():
            want = fuss_catalan(type_name, int(k))
            if any(v != want for v in row):
                problems.append(f"{type_name} k={k} counts {row} != Fuss-Catalan {want}")
        problems += family_problems(families)
        tally.check(not problems, "grid table: " + ", ".join(problems))


def family_problems(families) -> list:
    return [
        f"{family} of {type_name} k={k}: {size} != Fuss-Catalan {want}"
        for family, type_name, k, size, want in families
        if size != want
    ]


def parse_grid(text: str):
    """(cell -> status) and ((type, k) -> counts) from the grid table."""
    lines = text.splitlines()
    head = next((i for i, line in enumerate(lines) if line.startswith("type ")), None)
    if head is None:
        return {}, {}
    header = lines[head].split()
    status, counts = {}, {}
    for line in lines[head + 1:]:
        cols = line.split()
        if len(cols) != len(header):
            break
        row = dict(zip(header, cols))
        cell = (row["type"], row["k"])
        counts[cell] = tuple(int(row[c]) for c in GRID_COUNT_COLUMNS)
        for ident in header[len(GRID_COUNT_COLUMNS) + 2:]:
            if row[ident] != "-":
                status[f"{row['type']} k={row['k']} {ident}"] = row[ident]
    return status, counts


# ---------------------------------------------------------------- workloads


class Workload:
    def __init__(self, name: str, seed: int, launcher: Launcher, checker: Checker):
        self.name = name
        self.rng = random.Random(seed)
        self.launcher = launcher
        self.checker = checker

    def requests(self):
        if self.name == "grid":
            return [GRID]
        order = list(COLD)
        self.rng.shuffle(order)
        return order

    def one_pass(self, tally: Tally):
        """Run one pass; returns its processes."""
        runs = [(args, self.launcher.cli(args)) for args in self.requests()]
        for args, proc in runs:
            self.check(tally, args, proc)
        return [proc for _, proc in runs]

    def traced_pass(self, tally: Tally):
        """Run each request of a pass untraced, then traced.

        Returns (untraced seconds, traced seconds, trace summaries).
        """
        plain = traced = 0.0
        summaries = []
        for args in self.requests():
            proc = self.launcher.cli(args)
            self.check(tally, args, proc)
            tproc, summary = self.launcher.traced_cli(args)
            if summary is None:
                tally.check(False, f"{key(args)}: no trace written")
                summary = {}
            self.check(tally, args, tproc, summary.get("families", ()))
            plain += proc.seconds
            traced += tproc.seconds
            summaries.append(summary)
        return plain, traced, summaries

    def check(self, tally: Tally, args, proc: Proc, families=()) -> None:
        if args is GRID:
            self.checker.grid(tally, proc, families)
        else:
            self.checker.request(tally, args, proc, families)


def interquartile_mean(values) -> float:
    """Mean of the values left after dropping a quarter at each end."""
    values = sorted(values)
    cut = len(values) // 4
    middle = values[cut:len(values) - cut]
    return sum(middle) / len(middle)


def end_to_end(workload: Workload, seconds: float, tally: Tally) -> dict:
    """Passes for `seconds` (a pass's wall time is its requests' latencies)."""
    walls, latencies, rss = [], [], []
    start = perf_counter()
    while True:
        procs = workload.one_pass(tally)
        walls.append(sum(p.seconds for p in procs))
        latencies += [p.seconds for p in procs]
        rss += [p.rss_mb for p in procs]
        elapsed = perf_counter() - start
        if elapsed * (len(walls) + 1) / len(walls) > seconds:
            break
    return {
        "wall_s": median(walls),
        "req_iqm_s": interquartile_mean(latencies),
        "peak_rss_mb": max(rss),
        "passes": len(walls),
    }


def per_layer(summaries, probe: dict, traced_wall: float, untraced_wall: float) -> dict:
    from fct.verify import IDENTITIES

    # every stage gets a row, so a stage the workload never enters reads 0
    spans = {name: {} for _, _, name, _, _ in tracer.SPANS}
    spans.update((tracer.identity_span(i), {}) for i in IDENTITIES)
    spans.update((name, {}) for name in ("poly.kfamily", "cli.emit", tracer.ROOT))
    counters = {name: {"calls": 0, "seconds": 0.0} for _, _, name, _ in tracer.COUNTERS}
    for s in summaries:
        for name, row in s.get("spans", {}).items():
            acc = spans.setdefault(name, {})
            for k, v in row.items():
                acc[k] = acc.get(k, 0) + v
        for name, row in s.get("counters", {}).items():
            acc = counters[name]
            acc["calls"] += row["calls"]
            acc["seconds"] += row["seconds"]
    out = {}
    for name, row in spans.items():
        builds = row.get("builds", 0)
        out[f"{name}.self_s"] = row.get("self_s", 0.0)
        out[f"{name}.total_s"] = row.get("total_s", 0.0)
        out[f"{name}.calls"] = row.get("calls", 0)
        out[f"{name}.size"] = row.get("size", 0)
        out[f"{name}.useful_ratio"] = row.get("distinct", 0) / builds if builds else 1.0
    for name, row in counters.items():
        out[f"{name}.calls"] = row["calls"]
        out[f"{name}.self_s"] = row["seconds"]
    out["ehrhart.walls.points"] = out.get("ehrhart.walls.size", 0)
    out["cli.emit.bytes"] = sum(s.get("emitted_bytes", 0) for s in summaries)
    out["cache.entries"] = max((s.get("cache_entries", 0) for s in summaries), default=0)
    root = spans[tracer.ROOT].get("total_s", 0.0)
    unattributed = sum(
        row.get("self_s", 0.0) for n, row in spans.items() if n.startswith(WRAPPER_SPANS)
    )
    out["trace.coverage"] = 1 - unattributed / root if root else 0.0
    out["trace.overhead"] = traced_wall / untraced_wall
    for name, row in probe["kernels"].items():
        out[f"kernels.{name}.pure_s"] = row["pure_s"]
        if row["compiled_s"]:
            out[f"kernels.{name}.speedup"] = row["pure_s"] / row["compiled_s"]
    return out


def select(values: dict, wanted: list) -> dict:
    """The metrics BENCHMARK.json lists, in its order, with their units."""
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}


# ---------------------------------------------------------------- main


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run(opts) -> int:
    if not (SRC / "fct" / "cli.py").exists():
        raise BenchError("no fct source tree at src/fct; run from the root of a checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((HERE / "reference.json").read_text())
    sys.path.insert(0, str(SRC))
    launcher = make_launcher(opts.backend)

    usage = launcher.cli(USAGE_ERROR)
    if usage.code != 2:
        raise BenchError(f"a usage error (-k 0) exited {usage.code}, not 2")
    setups = [launcher.setup() for _ in range(SETUP_SPAWNS)]
    backends = {p.stdout.decode().strip() for p in setups}
    if backends != {opts.backend} or any(p.code for p in setups):
        raise BenchError(f"requests resolve backend {backends}, not {opts.backend}")

    tally = Tally()
    workload = Workload(opts.workload, opts.seed, launcher, Checker(reference))
    values = {"setup_s": median(p.seconds for p in setups)}
    if opts.trace:
        untraced_wall, traced_wall, summaries = workload.traced_pass(tally)
        kernels = launcher.kernels()
        for name, row in kernels["kernels"].items():
            tally.check(row["agree"] is not False, f"kernel {name}: pure and compiled disagree")
        values.update(per_layer(summaries, kernels, traced_wall, untraced_wall))
        metrics = select(values, spec["per_layer"])
    else:
        values.update(end_to_end(workload, opts.seconds, tally))
        scale = launcher.speed.scale()
        for name in SPEED_ADJUSTED:
            values["raw_" + name] = values[name]
            values[name] *= scale
        metrics = select(values, spec["end_to_end"])

    meta = {
        "workload": opts.workload, "seed": opts.seed, "seconds": opts.seconds,
        "trace": opts.trace, "backend": opts.backend, "git_sha": git_sha(),
        "src_sha256": source_digest(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "passes": values.get("passes", 1),
        "fail_ratio": tally.failed / tally.attempted if tally.attempted else 0.0,
        "speed_ref_s": SPEED_REF_S, "speed_samples": len(launcher.speed.samples),
    }
    meta.update((k, v) for k, v in values.items() if k.startswith("raw_"))
    for problem in tally.problems[:10]:
        print("FAIL", problem, file=sys.stderr)
    print(json.dumps({"meta": meta}, sort_keys=True))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  fail_ratio = {tally.failed}/{tally.attempted}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["grid", "cold"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--backend", choices=["compiled", "python"], default="compiled")
    opts = parser.parse_args()
    try:
        return run(opts)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
