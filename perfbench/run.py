"""starcob benchmark: times the CLI sweeps a researcher runs, end to end, and
checks every verdict against its known answer.

    python3 perfbench/run.py --workload relations --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root (any directory holding `src/starcob` and this
directory works).  The load is a closed loop with one client: each `starcob`
invocation is a fresh process started by `launch.py`, and the next starts only
after the previous one has exited.  A round is one pass over the workload's
invocations; rounds repeat until `--seconds` have elapsed, stopping rather
than overrunning by more than half a round.

Workloads (why each exists, and which layers it loads):

* relations -- `verify ainfty-a` (N=4, 5), `ainfty-b` (N=6), `grading`
  (N=6), and the negative control `ainfty-a --n 3 --inject-fault
  drop-mu2N:k`.  `relation_sum` and the operation classifier dominate;
  `staralg`/`ring` take the rest; `barcobar`, `hochschild` and `gf2la` are
  idle.  STARCOB_THREADS is unset, so every sweep runs the serial path.
* duality -- `verify homotopy --n 3 --max-len 8` with STARCOB_THREADS=2, the
  only sweep that goes through a thread pool, plus the negative control
  `--inject-fault break-h`.  The control runs with STARCOB_THREADS=1: on the
  pool, a failing sweep cancels its queued strings once the first failure is
  read, so how much work it does depends on thread timing and its call counts
  do not repeat.
* tables -- fourteen short `cohomology --algebra A|B` runs over N = 16..128
  with the default --n-max and --j; the only workload where `hochschild` and
  `gf2la` work, and where interpreter start-up and report output weigh most.

The seed picks only inputs that cost the same: the fault component k, the
order of the invocations in each round, and the --seed passed to the CLI.
It never picks N or a window.

Verdicts are checked against answers taken from the paper and the acceptance
criteria, never from a recorded run: clean sweeps exit 0 with violation-count
0, each negative control exits 1 with at least one violation, each cohomology
table has exactly one nonzero cell, of dimension 1, at (2N, -2) for A and
(N, -2) for B, and one invocation per round is repeated and must print the
same bytes.  Traced runs also require every sweep to cover at least one item.

With --trace 0 the last line carries the end-to-end metrics: setup_s,
wall_s, cpu_s and peak_rss_mb.  failed_frac is printed in the table above it
and carried by the `failed`/`attempted` fields.  With --trace 1 the run makes
one untraced round and two traced rounds (this seed and the next one), checks
that every call and item count repeats exactly between the traced rounds,
and reports the per-layer metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
LAUNCH = os.path.join(HERE, "launch.py")
SPAWN = os.path.join(HERE, "spawn.py")
WORK = os.path.join(HERE, ".work")

SETUP_FIRST = 3
SETUP_EVERY_S = 2.0
RUN_DEADLINE_S = 170  # every run, traced or not, must exit within 180 s
DUALITY_THREADS = "2"  # what acceptance criterion 05 passes; nproc on the reference machine

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

_CALLS_SELF = lambda base: {f"{base}.calls": "count", f"{base}.self_s": "s"}
PER_LAYER: dict[str, str] = {
    "ainfty.relation_sum.calls": "count",
    "ainfty.relation_sum.s": "s",
    "ainfty.relation_sum.self_s": "s",
    "ainfty.relation_sum.per_s": "1/s",
    "ainfty.violations": "count",
    "ainfty.check_ainfty.self_s": "s",
    **_CALLS_SELF("ainfty.passing_windows"),
    "ainfty.op_grading_check.self_s": "s",
    **_CALLS_SELF("staralg.AlgElem.add"),
    **_CALLS_SELF("ring.mono_mul"),
    **_CALLS_SELF("staralg.mul_word"),
    **_CALLS_SELF("staralg.grading"),
    "gradegroup.check_multiplicativity.self_s": "s",
    **_CALLS_SELF("gradegroup.assign_grading"),
    "barcobar.verify_homotopy.s": "s",
    "barcobar.verify_homotopy.self_s": "s",
    "barcobar.verify_homotopy.threads": "count",
    "barcobar.enumerate_strings.items": "count",
    "barcobar.enumerate_strings.self_s": "s",
    **_CALLS_SELF("barcobar.cobar_diff"),
    **_CALLS_SELF("barcobar.homotopy_h"),
    **_CALLS_SELF("barcobar.phi"),
    **_CALLS_SELF("barcobar.psi"),
    **_CALLS_SELF("barcobar.TString"),
    **_CALLS_SELF("barcobar.CobElem.add"),
    **_CALLS_SELF("hochschild.cohomology_dim"),
    **_CALLS_SELF("hochschild.slice_basis"),
    "hochschild.slice_basis.items": "count",
    **_CALLS_SELF("hochschild.twisted_diff"),
    **_CALLS_SELF("hochschild.diff_matrix"),
    **_CALLS_SELF("gf2la.kernel_basis"),
    **_CALLS_SELF("gf2la.row_space_basis"),
    "gf2la.cells": "count",
    "cli.main.s": "s",
    "cli.main.self_s": "s",
    "cli.report_bytes": "bytes",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run: an unknown workload, or starcob.cli fails to import."""


# ---------------------------------------------------------------- workloads


@dataclass
class Invocation:
    key: str  # seed-independent identity, used to compare traced counts
    args: list[str]
    expect: Callable[[int, bytes], Optional[str]]  # (exit code, stdout) -> error or None
    sweep: str  # trace aggregate whose count must be > 0: "<name>.<calls|items>"
    env: dict = field(default_factory=dict)


def _verify_doc(out: bytes) -> dict:
    doc = json.loads(out)
    if doc.get("schema") != "starcob/1" or doc.get("command") != "verify":
        raise ValueError("not a starcob/1 verify report")
    if doc["violation-count"] != len(doc["violations"]):
        raise ValueError("violation-count disagrees with the violation list")
    return doc


def expect_clean(rc: int, out: bytes) -> Optional[str]:
    doc = _verify_doc(out)
    if rc != 0 or doc["violation-count"] != 0:
        return f"expected exit 0 with no violations, got exit {rc} with {doc['violation-count']}"
    return None


def expect_caught(rc: int, out: bytes) -> Optional[str]:
    doc = _verify_doc(out)
    if rc != 1 or doc["violation-count"] < 1:
        return f"injected fault not caught: exit {rc} with {doc['violation-count']} violation(s)"
    return None


def expect_table(model: str, big_n: int, cell: tuple[int, int]) -> Callable[[int, bytes], Optional[str]]:
    """The table over 2 < n <= 3N, j in (-1, -2) has exactly one nonzero cell,
    of dimension 1, at (2N, -2) for model A and (N, -2) for model B."""

    def check(rc: int, out: bytes) -> Optional[str]:
        doc = json.loads(out)
        if rc != 0 or doc.get("schema") != "starcob/1" or doc.get("command") != "cohomology":
            return f"cohomology exit {rc}, not a starcob/1 cohomology report"
        rows = doc["rows"]
        if len(rows) != 2 * (3 * big_n - 2):
            return f"{len(rows)} cells, expected {2 * (3 * big_n - 2)}"
        errors = [r for r in rows if "dim" not in r]
        if errors:
            return f"{len(errors)} cell(s) without a dimension"
        nonzero = [(r["n"], r["j"], r["dim"]) for r in rows if r["dim"]]
        if nonzero != [(cell[0], cell[1], 1)]:
            return f"nonzero cells {nonzero}, expected [{(cell[0], cell[1], 1)}] for model {model}"
        return None

    return check


def _verify(kind: str, n: int, cli_seed: int, *extra: str) -> list[str]:
    return ["verify", kind, "--n", str(n), "--seed", str(cli_seed), *extra]


def workload(name: str, seed: int, smoke: bool = False) -> tuple[list[Invocation], Invocation]:
    """The workload's invocations and the one repeated in every round."""
    rng = random.Random(f"{name}:{seed}")
    cli_seed = rng.randrange(2**31)
    if name == "relations":
        k = rng.randrange(2 * 3)  # fault component of the N=3 control; all 2N cost the same
        sizes = {"ainfty-a": (3,), "ainfty-b": (3,), "grading": (3,)} if smoke else {
            "ainfty-a": (4, 5),
            "ainfty-b": (6,),
            "grading": (6,),
        }
        window = ["--max-len", "6"] if smoke else []
        invs = [
            Invocation(f"{kind}/N={n}", _verify(kind, n, cli_seed, *window), expect_clean, sweep)
            for kind, sweep in (
                ("ainfty-a", "ainfty.relation_sum.calls"),
                ("ainfty-b", "ainfty.relation_sum.calls"),
                ("grading", "ainfty.passing_windows.items"),
            )
            for n in sizes[kind]
        ]
        control = Invocation(
            "control/drop-mu2N",
            _verify("ainfty-a", 3, cli_seed, "--inject-fault", f"drop-mu2N:{k}"),
            expect_caught,
            "ainfty.relation_sum.calls",
        )
        return invs + [control], control
    if name == "duality":
        max_len = "5" if smoke else "8"
        sweep = Invocation(
            "homotopy/N=3",
            _verify("homotopy", 3, cli_seed, "--max-len", max_len),
            expect_clean,
            "barcobar.enumerate_strings.items",
            {"STARCOB_THREADS": DUALITY_THREADS},
        )
        control = Invocation(
            "control/break-h",
            _verify("homotopy", 3, cli_seed, "--max-len", max_len, "--inject-fault", "break-h"),
            expect_caught,
            "barcobar.enumerate_strings.items",
            {"STARCOB_THREADS": "1"},
        )
        return [sweep, control], control
    if name == "tables":
        sizes = (3, 4) if smoke else (16, 24, 32, 48, 64, 96, 128)
        invs = []
        for big_n in sizes:
            for model, cell in (("A", (2 * big_n, -2)), ("B", (big_n, -2))):
                invs.append(
                    Invocation(
                        f"cohomology-{model}/N={big_n}",
                        ["cohomology", "--algebra", model, "--n", str(big_n), "--seed", str(cli_seed)],
                        expect_table(model, big_n, cell),
                        "hochschild.slice_basis.items",
                    )
                )
        return invs, invs[0]
    raise BenchError(f"unknown workload {name!r}")


WORKLOADS = ("relations", "duality", "tables")


# ---------------------------------------------------------------- running


@dataclass
class Result:
    inv: Invocation
    wall_s: float
    cpu_s: float
    rss_mb: float
    rc: int
    out: bytes
    error: Optional[str]
    trace: Optional[dict] = None


def _child_env(extra: dict) -> dict:
    # Bytecode caches are allowed so that, after the warm-up import, every
    # timed start-up imports starcob from cache, as an installed package does.
    env = {k: v for k, v in os.environ.items() if k not in ("STARCOB_THREADS", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONPATH"] = SRC
    env.update(extra)
    return env


class Spawner:
    """The small helper process (spawn.py) that starts and times every
    measured process; see spawn.py for why it exists."""

    def __init__(self, work: str):
        self.work = work
        self.proc = subprocess.Popen(
            [sys.executable, SPAWN],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,  # one process group: close() reaches a running child too
        )

    def run(self, cmd: list[str], env: dict) -> tuple[dict, bytes, str]:
        """Run `cmd` to exit; its launch-to-exit time, usage, stdout and stderr."""
        out_path = os.path.join(self.work, "stdout")
        err_path = os.path.join(self.work, "stderr")
        req = {"cmd": cmd, "env": env, "cwd": ROOT, "stdout": out_path, "stderr": err_path}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the spawner exited")
        with open(out_path, "rb") as fh:
            out = fh.read()
        with open(err_path, "rb") as fh:
            err = fh.read().decode(errors="replace")
        return json.loads(line), out, err

    def close(self) -> None:
        """Stop the spawner and any process it is running, and wait for it."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def invoke(sp: Spawner, inv: Invocation, trace_dir: Optional[str] = None) -> Result:
    """Run one CLI invocation to exit and check its verdict."""
    cmd = [sys.executable, LAUNCH]
    trace_path = None
    if trace_dir is not None:
        trace_path = os.path.join(trace_dir, "trace.json")
        cmd += ["--trace", trace_path]
    cmd += ["--", *inv.args]
    usage, out, stderr = sp.run(cmd, _child_env(inv.env))
    rc = usage["rc"]
    error = None
    try:
        error = inv.expect(rc, out)
    except (ValueError, KeyError, TypeError) as exc:
        error = f"unreadable report (exit {rc}): {exc}; stderr: {stderr[-300:]}"
    trace = None
    if trace_path is not None:
        try:
            with open(trace_path) as fh:
                trace = json.load(fh)
            os.unlink(trace_path)
        except (OSError, ValueError) as exc:
            error = error or f"no trace written: {exc}"
    return Result(inv, usage["wall_s"], usage["cpu_s"], usage["maxrss_kb"] / 1024.0, rc, out, error, trace)


def run_round(
    sp: Spawner,
    invs: list[Invocation],
    repeat: Invocation,
    rng: random.Random,
    trace_dir: Optional[str] = None,
    between: Callable[[], None] = lambda: None,
) -> list[Result]:
    order = invs + [repeat]
    rng.shuffle(order)
    results = []
    for inv in order:
        results.append(invoke(sp, inv, trace_dir))
        between()
    first, second = [r for r in results if r.inv is repeat]
    if first.out != second.out:
        second.error = second.error or "repeated invocation printed different bytes"
    return results


class SetupTimer:
    """Samples of `setup_s`: a fresh interpreter, from launch until `import
    starcob.cli` is done.  After one discarded warm-up that fills the
    bytecode cache, it takes SETUP_FIRST samples, then one more whenever
    SETUP_EVERY_S have passed since the last, so that the samples span the
    run as the timed rounds do."""

    def __init__(self, sp: Spawner):
        self.sp = sp
        self.samples: list[float] = []
        self.last = 0.0
        self.take()
        self.samples.clear()
        for _ in range(SETUP_FIRST):
            self.take()

    def take(self) -> None:
        usage, _, err = self.sp.run([sys.executable, "-c", "import starcob.cli"], _child_env({}))
        if usage["rc"] != 0:
            raise BenchError(f"importing starcob.cli failed: {err[-300:]}")
        self.samples.append(usage["wall_s"])
        self.last = time.perf_counter()

    def maybe_take(self) -> None:
        if time.perf_counter() - self.last >= SETUP_EVERY_S:
            self.take()


def calibrate() -> float:
    """A fixed pure-Python loop, timed beside each run to show machine drift.
    It is recorded only; no metric is rescaled by it."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def environment() -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "commit": commit,
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


# ---------------------------------------------------------------- metrics


def end_to_end(setup: list[float], rounds: list[list[Result]]) -> tuple[dict, list[str]]:
    walls = [sum(r.wall_s for r in rnd) for rnd in rounds]
    cpus = [sum(r.cpu_s for r in rnd) for rnd in rounds]
    rss = max(r.rss_mb for rnd in rounds for r in rnd)
    attempted = sum(len(rnd) for rnd in rounds)
    failed = sum(1 for rnd in rounds for r in rnd if r.error)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": rss,
    }
    lines = []
    for name, samples in (("setup_s", setup), ("wall_s", walls), ("cpu_s", cpus)):
        q1, q2, q3 = quartiles(samples)
        lines.append(f"{name:14s} {q2:10.4f} s      q1 {q1:.4f}  q3 {q3:.4f}  n={len(samples)}")
    lines.append(f"{'peak_rss_mb':14s} {rss:10.2f} MB     max over {attempted} invocations")
    lines.append(f"{'failed_frac':14s} {failed / attempted:10.4f} ratio  {failed} of {attempted} invocations")
    per_key: dict[str, list[Result]] = {}
    for rnd in rounds:
        for r in rnd:
            per_key.setdefault(r.inv.key, []).append(r)
    for key, results in per_key.items():
        wall = statistics.median(r.wall_s for r in results)
        cpu = statistics.median(r.cpu_s for r in results)
        rss = max(r.rss_mb for r in results)
        lines.append(f"  {key:24s} wall {wall:8.4f} s  cpu {cpu:8.4f} s  rss {rss:6.2f} MB  n={len(results)}")
    return metrics, lines


def per_layer(traced: list[list[Result]], untraced: list[Result]) -> dict:
    """Per-layer metrics from traced rounds: counts from the first (the rounds
    must agree), times as the median over rounds."""

    def round_aggs(rnd: list[Result]) -> dict:
        total: dict[str, dict] = {}
        for r in rnd:
            for name, a in r.trace["aggregates"].items():
                cur = total.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "items": 0})
                for key in cur:
                    cur[key] += a[key]
        return total

    aggs = [round_aggs(rnd) for rnd in traced]

    def get(name: str, key: str) -> float:
        vals = [a.get(name, {}).get(key, 0) for a in aggs]
        return vals[0] if key in ("calls", "items") else statistics.median(vals)

    out: dict[str, float] = {}
    for metric in PER_LAYER:
        base, key = metric.rsplit(".", 1)
        if key in ("calls", "s", "self_s", "items"):
            out[metric] = get(base, key)
    rs_calls, rs_s = get("ainfty.relation_sum", "calls"), get("ainfty.relation_sum", "s")
    out["ainfty.relation_sum.per_s"] = rs_calls / rs_s if rs_s else 0.0
    out["ainfty.violations"] = get("ainfty.check_ainfty", "items")
    out["barcobar.verify_homotopy.threads"] = max(
        (r.trace["threads"].get("barcobar.verify_homotopy", 0) for r in traced[0]), default=0
    )
    out["gf2la.cells"] = get("gf2la.kernel_basis", "items") + get("gf2la.row_space_basis", "items")
    out["cli.report_bytes"] = sum(len(r.out) for r in traced[0])
    traced_wall = statistics.median([sum(r.wall_s for r in rnd) for rnd in traced])
    out["trace.overhead_s"] = traced_wall - sum(r.wall_s for r in untraced)
    assert set(out) == set(PER_LAYER)
    return out


def check_traced(traced: list[list[Result]], untraced: list[Result]) -> None:
    """Mark a traced invocation failed when its sweep covered nothing, when
    its call and item counts differ from the other traced round, or when
    tracing changed its report."""

    def counts(r: Result) -> dict:
        return {n: (a["calls"], a["items"]) for n, a in r.trace["aggregates"].items()}

    reference: dict[str, dict] = {}
    plain = {tuple(r.inv.args): r.out for r in untraced}
    for rnd in traced:
        for r in rnd:
            if r.trace is None:
                continue
            name, key = r.inv.sweep.rsplit(".", 1)
            if r.trace["aggregates"].get(name, {}).get(key, 0) <= 0:
                r.error = r.error or f"empty sweep: {r.inv.sweep} is 0"
            c = counts(r)
            if reference.setdefault(r.inv.key, c) != c:
                diff = sorted(n for n in set(c) | set(reference[r.inv.key]) if c.get(n) != reference[r.inv.key].get(n))
                r.error = r.error or f"traced counts differ between rounds: {', '.join(diff)}"
            untraced_out = plain.get(tuple(r.inv.args))
            if untraced_out is not None and untraced_out != r.out:
                r.error = r.error or "tracing changed the report"


# ---------------------------------------------------------------- main


def _print_failures(rounds: list[list[Result]]) -> None:
    for rnd in rounds:
        for r in rnd:
            if r.error:
                print(f"FAILED {' '.join(r.inv.args)}: {r.error}")


def bench(sp: Spawner, name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    invs, repeat = workload(name, seed, smoke)
    rng = random.Random(f"order:{name}:{seed}")
    env = environment()
    env["loadavg_before"] = os.getloadavg()
    env["calibration_s_before"] = calibrate()
    setup = SetupTimer(sp)
    rounds: list[list[Result]] = []
    if not trace:
        t_start = time.perf_counter()
        while True:
            t_round = time.perf_counter()
            rounds.append(run_round(sp, invs, repeat, rng, between=setup.maybe_take))
            now = time.perf_counter()
            if smoke or now - t_start + (now - t_round) / 2 >= seconds:
                break
        metrics, lines = end_to_end(setup.samples, rounds)
        units = END_TO_END
    else:
        rounds.append(run_round(sp, invs, repeat, rng))
        traced = [run_round(sp, invs, repeat, rng, sp.work)]
        invs2, repeat2 = workload(name, seed + 1, smoke)
        traced.append(run_round(sp, invs2, repeat2, random.Random(f"order:{name}:{seed + 1}"), sp.work))
        check_traced(traced, rounds[0])
        rounds += traced
        metrics = per_layer(traced, rounds[0])
        units = PER_LAYER
        lines = [f"{m:44s} {metrics[m]:14.6g} {u}" for m, u in units.items()]
    env["loadavg_after"] = os.getloadavg()
    env["calibration_s_after"] = calibrate()
    attempted = sum(len(rnd) for rnd in rounds)
    failed = sum(1 for rnd in rounds for r in rnd if r.error)
    print(f"workload {name}  seed {seed}  rounds {len(rounds)}  trace {int(trace)}")
    for line in lines:
        print(line)
    _print_failures(rounds)
    print(json.dumps({"env": env}, sort_keys=True))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
    }


def self_check(sp: Spawner) -> bool:
    """The oracle must flag deliberately wrong expected answers."""
    table = workload("tables", 0, smoke=True)[0][0]
    wrong_cell = Invocation("wrong", table.args, expect_table("A", 3, (6, -1)), table.sweep)
    wrong_verdict = Invocation("wrong", _verify("ainfty-a", 3, 0, "--max-len", "6"), expect_caught, "")
    flagged = [invoke(sp, inv).error is not None for inv in (wrong_cell, wrong_verdict)]
    print(f"oracle self-check: wrong table answer flagged {flagged[0]}, wrong verdict flagged {flagged[1]}")
    return all(flagged)


def smoke(sp: Spawner) -> int:
    ok = self_check(sp)
    for name in WORKLOADS:
        for trace in (False, True):
            result = bench(sp, name, 0, 1, trace, smoke=True)
            expected = PER_LAYER if trace else END_TO_END
            ok = ok and result["correct"] and set(result["metrics"]) == set(expected)
            print(json.dumps(result, sort_keys=True))
    print("smoke:", "ok" if ok else "FAILED")
    return 0 if ok else 1


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny windows: every metric, plus an oracle self-check")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "starcob", "cli.py")):
        print(f"error: no starcob sources under {SRC}", file=sys.stderr)
        return 2
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")

    def on_deadline(signum, frame):
        raise TimeoutError(f"run exceeded {RUN_DEADLINE_S} s")

    os.makedirs(WORK, exist_ok=True)
    sp = Spawner(tempfile.mkdtemp(dir=WORK))
    signal.signal(signal.SIGALRM, on_deadline)
    signal.alarm(RUN_DEADLINE_S)
    try:
        if args.smoke:
            return smoke(sp)
        result = bench(sp, args.workload, args.seed, args.seconds, bool(args.trace))
    except (TimeoutError, BenchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        sp.close()
        shutil.rmtree(sp.work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass  # another run is using it
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
