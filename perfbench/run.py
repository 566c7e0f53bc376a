"""Benchmark entry point for riskcap.

    python3 perfbench/run.py --workload capital-ln --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout; riskcap is imported from ``src/``
without installing it. The workload runs in a fresh worker process (its peak
RSS is the workload's alone). Untraced runs then time fresh-interpreter
imports of ``riskcap.cli`` as the set-up time. The output is a line with the
full record (inputs, versions, call counts, problems) and then the result
line ``{"correct", "attempted", "failed", "metrics"}``. Metric names and
units come from ``BENCHMARK.json``. Trace spans are kept under
``.perfbench_out/``.

Exits non-zero without a result line when the sources are missing or the
worker fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh-interpreter imports timed per run; the median is ``setup_s``.
SETUP_RUNS = 3
IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import riskcap.cli; "
    "print(time.perf_counter() - t)"
)
#: The worker must finish well inside the 180-second limit of a run.
WORKER_TIMEOUT_S = 150
SETUP_TIMEOUT_S = 20


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src: Path) -> str:
    """SHA-256 over riskcap's sources, naming the code when git cannot."""
    h = hashlib.sha256()
    for path in sorted((src / "riskcap").rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def time_setup(env: dict) -> list[float]:
    samples = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_SNIPPET], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="riskcap benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be non-negative and --seconds at least 1")
    if not (SRC / "riskcap" / "cli.py").is_file():
        print(f"error: riskcap sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        p.error(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=out_dir))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--workdir", str(workdir), "--spans", str(spans_path)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"error: worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = record["metrics"]
    if not args.trace:
        samples = time_setup(env)
        metrics["setup_s"] = statistics.median(samples)
        record["setup_samples_s"] = samples
    missing = {m["name"] for m in wanted} ^ set(metrics)
    if missing:
        print(f"error: metrics disagree with BENCHMARK.json: {sorted(missing)}", file=sys.stderr)
        return 1

    record.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        nproc=os.cpu_count(), cpus_usable=len(os.sched_getaffinity(0)),
        git_commit=git_commit(ROOT), src_sha256=source_digest(SRC), python=platform.python_version(),
    )
    print(json.dumps(record))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
