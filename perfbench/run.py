"""blindeval benchmark: one workload run, one JSON result line.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workloads are described in ``workloads.py``.  A run sets up two run
directories, builds the untimed reference tree in the first, writes all dirty
files back to disk, then measures in the second for about ``--seconds``
seconds, checking every measured iteration against the reference.  The last
line of standard output is ``{"correct", "attempted", "failed", "metrics"}``;
with ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``, with ``--trace 1`` its per-layer metrics, taken from a
traced measurement next to an untraced one.  The line before it records the
Python version, ``nproc``, commit (and whether ``src/`` differs from it),
seed, and the sha256 of the reference tree as ``rundir.snapshot`` normalises
it: runs of two commits at the same seed must print the same digest unless
the program's outputs changed.

Run isolation: the set-ups, the reference and each measurement run in a
fresh interpreter (``worker.py``) with ``PYTHONPATH=src``, because the package
is not installed and because state carries over inside one process:
``provider._DISPATCH_GATES`` is process-global and sized by the first config
seen per provider id, and the regex cache and the garbage collector's state
survive from one run to the next.  An analysis timed in the process that had
just generated its grid spread by up to ~20%; fresh processes on a settled
directory spread far less, so each analysis of ``analyze-large`` gets its own
process.  ``PYTHONHASHSEED`` is pinned for the same reason.
"""

from __future__ import annotations

import argparse
import array
import fcntl
import json
import os
import platform
import shutil
import statistics
import struct
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans
from workloads import WORKLOADS, workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_LIMIT_S = 170
GRID_PROCESSES = 4
MIN_ANALYSES = {"grid": 9, "analysis": 2}   # per kind; analyze-large also runs for --seconds


# ioctl(2) requests of chattr(1), and its "T" attribute (linux/fs.h)
FS_IOC_GETFLAGS = 2 << 30 | struct.calcsize("l") << 16 | ord("f") << 8 | 1
FS_IOC_SETFLAGS = 1 << 30 | struct.calcsize("l") << 16 | ord("f") << 8 | 2
FS_TOPDIR_FL = 0x00020000


class BenchError(Exception):
    pass


def step(task: dict, deadline: float) -> dict:
    """Run one worker step in a fresh interpreter and return its JSON result."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"), json.dumps(task)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"the run exceeded {RUN_LIMIT_S} s in its {task['step']} step")
    if proc.returncode != 0:
        raise BenchError(
            f"{task['step']} step exited {proc.returncode}: {proc.stderr.strip()[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def commit() -> tuple[str, bool | None]:
    """HEAD's commit and whether ``src/`` differs from it; ("unknown", None)
    outside a git checkout.  Git looks for the repository at the root only."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(["git", "--no-optional-locks", "-C", str(ROOT), *args], env=env,
                              capture_output=True, text=True, timeout=30)

    try:
        head = git("rev-parse", "HEAD")
        if head.returncode != 0:
            return "unknown", None
        status = git("status", "--porcelain", "--", "src")
    except (OSError, subprocess.TimeoutExpired):
        return "unknown", None
    return head.stdout.strip(), bool(status.stdout.strip()) if status.returncode == 0 else None


def spread_run_directories(work_root: Path) -> None:
    """Mark ``work_root`` as a top of directory hierarchies (``chattr +T``).

    ext4's Orlov allocator then places each run's work directory, and so the
    inodes of every file the run creates, in a part of the disk with few
    directories, rather than next to ``work_root``.  On a file system without
    a journal, ext4 skips free inodes that were freed in the last minute or
    so; where nearly every free inode is such, each new file scans them all.
    On the host the benchmark was built on, where the runs before had just
    removed ~10,000 files next to ``work_root``, creating a file cost 0.5 ms
    of system time there against 0.02-0.04 ms in a directory placed this
    way, and ``jobs_per_s`` fell run after run.  Where the attribute is not
    supported, runs go on without it.
    """
    try:
        fd = os.open(work_root, os.O_RDONLY)
    except OSError:
        return
    try:
        flags = array.array("i", [0])
        fcntl.ioctl(fd, FS_IOC_GETFLAGS, flags, True)
        if not flags[0] & FS_TOPDIR_FL:
            flags[0] |= FS_TOPDIR_FL
            fcntl.ioctl(fd, FS_IOC_SETFLAGS, flags, True)
    except OSError:
        pass
    finally:
        os.close(fd)


def measure(args, wl, work: Path) -> dict:
    """Set-ups, reference and measured samples of one run, as worker results."""
    deadline = time.monotonic() + RUN_LIMIT_S
    base = {"workload": wl.name, "seed": args.seed, "tiny": args.tiny}
    ref, dut = str(work / "reference"), str(work / "measured")
    setups = [step({**base, "step": "setup", "dir": d}, deadline) for d in (ref, dut)]
    reference = step({**base, "step": "reference", "dir": ref}, deadline)
    os.sync()  # settle: write back the set-up's files before anything is timed
    measured = {"plain": [], "traced": []}

    def sample(part: str, kind: str, seconds: float, n: int):
        task = {**base, "step": "measure", "part": part, "dir": dut, "ref": ref,
                "trash": str(work / "trash"), "seconds": seconds, "trace": kind == "traced",
                "spans": str(work / f"spans{n}.json")}
        result = step(task, deadline)
        if kind == "traced":
            with open(task["spans"], encoding="utf-8") as fh:
                result["dump"] = json.load(fh)
        measured[kind].append(result)

    # Samples are pooled over several fresh processes, because one process's
    # memory layout alone can shift a CPU-bound timing by ~10%.  Each
    # analysis gets its own process; untraced and traced ones alternate.
    # Analyses alternate with the grid samples, and more set-ups with the
    # analyses (one after each analysis on the grids, one after every two on
    # analyze-large), so that every kind of sample spreads over the run: the
    # speed of the 2-vCPU host the benchmark was built on drifts by tens of
    # per cent over tens of seconds, and ten grid set-ups timed back to back
    # in one process read alike, but from 9 to 16 ms from one run to the next.
    kinds = ["plain", "traced"] if args.trace else ["plain"]
    grids = GRID_PROCESSES if wl.timed == "grid" else 0
    analyses = MIN_ANALYSES[wl.timed] * len(kinds)
    done = 0

    def analyse():
        nonlocal done
        sample("analysis", kinds[done % len(kinds)], 0, grids + done)
        done += 1

    def set_up_more():
        task = {**base, "step": "setup", "dir": str(work / "setups" / str(len(setups)))}
        setups.append(step(task, deadline))

    for g in range(grids):
        sample("grid", kinds[g % len(kinds)], args.seconds / grids, g)
        while done < analyses * (g + 1) // grids:
            analyse()
            set_up_more()
    budget = args.seconds if wl.timed == "analysis" else 0
    start = time.monotonic()
    while done < analyses or time.monotonic() - start < budget:
        analyse()
        if done % 2 == 0 and time.monotonic() - start < budget:
            set_up_more()
    return {"setups": setups, "reference": reference, **measured}


def summarise(wl, runs: dict, trace: bool) -> dict:
    """The result line: correctness counts plus the metrics of this mode."""
    samples = [s for kind in ("plain", "traced") for r in runs[kind] for s in r["samples"]]
    grids = [s for s in samples if "grid_s" in s] or [u["grid"] for u in runs["setups"]]
    attempted = failed = 0
    for s in samples:
        ops = s.get("jobs", 0) + len(s["verb_rcs"])
        attempted += ops
        if s["ok"]:
            failed += s.get("failed_jobs", 0) + sum(rc != 0 for rc in s["verb_rcs"])
        else:
            failed += ops
    for u in runs["setups"]:
        if u["grid"]:
            attempted += u["grid"]["jobs"]
            failed += u["grid"]["failed_jobs"]
    correct = failed == 0 and runs["reference"]["ok"]

    if trace:
        headline = "grid_s" if wl.timed == "grid" else "analysis_s"
        plain = [s[headline] for r in runs["plain"] for s in r["samples"] if headline in s]
        traced = [s for r in runs["traced"] for s in r["samples"]]
        metrics = spans.layer_metrics(
            [r["dump"] for r in runs["traced"]], grids=sum("grid_s" in s for s in traced),
            analyses=sum("analysis_s" in s for s in traced), concurrency=wl.concurrency,
            cases=wl.cases)
        metrics["trace.overhead_share"] = statistics.median(
            s[headline] for s in traced if headline in s) / statistics.median(plain) - 1
    else:
        metrics = {
            "jobs_per_s": statistics.median(p["records"] / p["seconds"]
                                            for g in grids for p in g["passes"]),
            "analysis_s": statistics.median(s["analysis_s"] for s in samples if "analysis_s" in s),
            "provider_attempts_per_record": (sum(g["attempts"] for g in grids)
                                             / sum(g["records"] for g in grids)),
            "setup_s": statistics.median(u["setup_s"] for u in runs["setups"]),
            "peak_rss_mb": max(r["rss_mb"] for r in runs["plain"]),
        }
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def with_units(metrics: dict, trace: bool) -> dict:
    """Every metric BENCHMARK.json declares for this mode, with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="one replica per grid (smoke test)")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "blindeval" / "__init__.py").exists():
        print(f"error: no blindeval sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wl = workload(args.workload, args.tiny)
    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    spread_run_directories(work_root)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=work_root))
    try:
        runs = measure(args, wl, work)
        result = summarise(wl, runs, bool(args.trace))
        result["metrics"] = with_units(result["metrics"], bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        os.sync()  # leave no write-back of this run to slow the next one
    bad = [d for kind in ("plain", "traced") for r in runs[kind] for s in r["samples"]
           for d in s["diffs"]]
    if bad:
        print(f"output check: trees differ from the reference, e.g. {bad[:5]}")
    head, dirty = commit()
    env = {"python": platform.python_version(), "nproc": os.cpu_count(), "commit": head,
           "src_dirty": dirty, "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "reference_sha256": runs["reference"]["sha256"]}
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
