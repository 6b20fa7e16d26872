"""Benchmark of the logfix pipeline, offline, with the mock LLM backend.

    python3 perfbench/run.py --workload audit|train|mine --seed N \\
        --seconds S --trace 0|1

Run it from the root of a logfix checkout. It generates the workload's
inputs from the seed (three times, to time set-up), then repeats the
workload for S seconds, each repetition in a fresh child process whose peak
RSS is read from its rusage. Every repetition's outputs are checked. The last
line of standard output is one JSON object: with --trace 0 it carries the
end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer ones,
measured on alternately traced and untraced repetitions.

This parent process imports neither logfix nor numpy: a child's peak RSS
starts from its parent's, so the parent stays small.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
NEEDED = (os.path.join("src", "logfix", "cli.py"),
          os.path.join("tests", "fixtures", "clean"))
WORKLOADS = ("audit", "train", "mine")
# Each workload's own stage, reported as stage_s.
MAIN_STAGE = {"audit": "fix", "train": "train", "mine": "mine"}
SETUP_REPEATS = 3
# Scratch space inside the checkout, removed when the run ends.
WORK_DIR = ".perfbench-work"
# The whole run ends within this many seconds.
TIME_LIMIT = 170.0


class ChildFailed(Exception):
    pass


class Bench:
    def __init__(self, root: str, work: str, deadline: float) -> None:
        self.root = root
        self.work = work
        self.deadline = deadline
        self.log = os.path.join(work, "children.log")
        # Git reads no user or system config. numpy's BLAS runs on one
        # thread: its idle threads busy-wait, which on a 2-CPU machine
        # doubled train's CPU time without shortening it.
        self.env = dict(os.environ, HOME=work, XDG_CONFIG_HOME=work,
                        GIT_CONFIG_NOSYSTEM="1", GIT_CONFIG_GLOBAL=os.devnull,
                        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                        MKL_NUM_THREADS="1")
        self.children = 0

    def child(self, *args: str) -> tuple[dict, float]:
        """Run the worker; returns its record and its peak RSS in MB."""
        self.children += 1
        record_path = os.path.join(self.work, f"record-{self.children}.json")
        with open(self.log, "ab") as log:
            proc = subprocess.Popen(
                [sys.executable, WORKER, *args, record_path], cwd=self.root,
                env=self.env, stdout=log, stderr=log, start_new_session=True)
        pid = 0
        try:
            while not pid:
                if time.monotonic() > self.deadline:
                    raise ChildFailed(f"worker {args[:2]} ran past the "
                                      f"{TIME_LIMIT:.0f} s limit")
                time.sleep(0.005)
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        finally:
            if not pid:  # stop the worker and whatever it started
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)
                os.wait4(proc.pid, 0)
            # reaped here, so that Popen does not wait for it again
            proc.returncode = os.waitstatus_to_exitcode(status) if pid else -1
        if proc.returncode != 0:
            raise ChildFailed(f"worker {args[:2]} exited {proc.returncode}")
        with open(record_path, encoding="utf-8") as fh:
            record = json.load(fh)
        return record, usage.ru_maxrss / 1024.0

    def log_tail(self, lines: int = 30) -> str:
        try:
            with open(self.log, encoding="utf-8", errors="replace") as fh:
                return "".join(fh.readlines()[-lines:])
        except OSError:
            return ""


def measure(bench: Bench, workload: str, size: str, seed: int,
            seconds: float, traced: bool) -> tuple[list, list]:
    setups = []
    for k in range(SETUP_REPEATS):
        folder = os.path.join(bench.work, f"setup-{k}")
        record, _ = bench.child("setup", workload, size, str(seed), folder)
        setups.append(record)
        if k:
            shutil.rmtree(folder)
    inputs = os.path.join(bench.work, "setup-0")
    reps = []
    start = time.monotonic()
    while True:
        trace_this = traced and len(reps) % 2 == 0
        t = time.monotonic()
        record, rss = bench.child("run", workload, inputs,
                                  "1" if trace_this else "0")
        record.update(traced=trace_this, peak_rss_mb=rss)
        reps.append(record)
        last = time.monotonic() - t
        done = time.monotonic() - start >= seconds
        if done and (not traced or len(reps) >= 2):
            break
        if time.monotonic() + 1.5 * last > bench.deadline:
            break
    return setups, reps


def summarize(spec: dict, workload: str, setups: list, reps: list,
              traced: bool, ok_ratio: float) -> dict:
    """Medians over the repetitions. A metric that a failed repetition left
    unmeasured reads 0."""
    def median(values) -> float:
        values = list(values)
        return statistics.median(values) if values else 0.0

    plain = [r for r in reps if not r["traced"]]
    if traced:
        traced_reps = [r for r in reps if "layers" in r] or [{"layers": {}}]
        values = {name: median(r["layers"][name] for r in traced_reps)
                  for name in traced_reps[0]["layers"]}
        values["trace.overhead_s"] = (median(r["wall_s"] for r in traced_reps)
                                      - median(r["wall_s"] for r in plain))
        for stage in {name for r in plain for name in r["stages"]}:
            values[f"stage.{stage}_s"] = median(
                r["stages"].get(stage, 0.0) for r in plain)
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": median(s["seconds"] for s in setups),
            "wall_s": median(r["wall_s"] for r in plain),
            "stage_s": median(r["stages"].get(MAIN_STAGE[workload], 0.0)
                              for r in plain),
            "peak_rss_mb": median(r["peak_rss_mb"] for r in plain),
            "f1_macro": median(r["f1"] for r in plain),
            "ok_ratio": ok_ratio,
        }
        wanted = spec["end_to_end"]
    return {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
            for m in wanted}


def problems_of(setups: list, reps: list) -> list[str]:
    found = []
    if len({s["digest"] for s in setups}) != 1:
        found.append("set-up wrote different inputs from the same seed")
    for i, r in enumerate(reps):
        found.extend(f"repetition {i}: {p}" for p in r["problems"])
    if len({json.dumps(r["digests"], sort_keys=True) for r in reps}) != 1:
        found.append("repetitions wrote different outputs")
    return found


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="input sizes; tiny is for the benchmark's own tests")
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    started = time.monotonic()
    args = parse_args(argv)
    root = os.getcwd()
    absent = [p for p in NEEDED if not os.path.exists(os.path.join(root, p))]
    if absent:
        print(f"perfbench: run from the root of a logfix checkout; "
              f"missing {', '.join(absent)}", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    work = os.path.join(root, WORK_DIR, f"{args.workload}-{args.seed}-"
                                        f"{os.getpid()}")
    os.makedirs(work)
    bench = Bench(root, work, started + TIME_LIMIT)
    try:
        setups, reps = measure(bench, args.workload, args.size, args.seed,
                               args.seconds, bool(args.trace))
    except ChildFailed as exc:
        print(f"perfbench: {exc}\n{bench.log_tail()}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    problems = problems_of(setups, reps)
    for p in problems:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    missing = sorted({m for r in reps for m in r["missing_patch_points"]})
    if missing:
        print(f"perfbench: not traced (absent): {', '.join(missing)}",
              file=sys.stderr)
    print(f"inputs: {json.dumps(setups[0]['sizes'], sort_keys=True)}")
    print(f"outputs: workload={args.workload} seed={args.seed} "
          f"{json.dumps(reps[0]['digests'], sort_keys=True)}")
    print("repetitions (wall_s, * traced): " + " ".join(
        f"{r['wall_s']:.3f}{'*' if r['traced'] else ''}" for r in reps))
    attempted = len(setups) + sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": summarize(spec, args.workload, setups, reps,
                             bool(args.trace), 1.0 - failed / attempted),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
