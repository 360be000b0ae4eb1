"""Benchmark normgeom on one seeded workload and print its metrics.

    python3 bench/run.py --workload smooth_roundtrip --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout; normgeom is imported from its
``src/`` and never from an installed copy. The run generates the
workload's spec and point files from ``--seed``, times set-up in several
fresh interpreters, and runs the library, CLI and tracing phases in one
more fresh interpreter (``worker.py``). Everything is single-threaded,
with BLAS pinned to one thread, and a closed loop: each call starts when
the previous one returns, so nothing queues and no layer waits.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, the end-to-end metrics with ``--trace 0`` and
the per-layer metrics with ``--trace 1``. The line before it holds the
provenance, the check details, the report digest and the tracing
overhead. Inputs, CLI reports and (with ``--trace 1``) the spans are left
in ``.bench_out/<workload>-seed<seed>/``.
"""

from __future__ import annotations

import os

BLAS_THREADS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS", "BLIS_NUM_THREADS")}
os.environ.update(BLAS_THREADS)  # before numpy loads, here and in every child

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import gen  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: The worker imports normgeom from this checkout's sources, ahead of any
#: installed copy.
WORKER_ENV = {**os.environ,
              "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC),
                                                          os.environ.get("PYTHONPATH")]))}

#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_PROBES = 5
#: Share of ``--seconds`` spent in CLI rounds; library passes get the rest.
CLI_SHARE = 0.15
MIN_PASSES = 3
WORKER_TIMEOUT_S = 150


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def write_inputs(workload: str, seed: int, out_dir: Path) -> tuple[list[dict], list[dict]]:
    """Write the spec, point and CLI point files; return the job's groups and CLI files.

    A CLI file starting at index ``j`` of its group runs with ``--seed j``,
    so each point gets the seed its library call gets: its index.
    """
    sizes = gen.SIZES[workload]
    groups, cli_files, offset = [], [], 0
    for gi, group in enumerate(gen.generate(workload, seed)):
        spec_file = out_dir / f"group{gi}-spec.json"
        points_file = out_dir / f"group{gi}-points.json"
        spec_file.write_text(json.dumps(group["spec"]), encoding="utf-8")
        points_file.write_text(json.dumps(group["points"]), encoding="utf-8")
        groups.append({"spec_file": str(spec_file), "points_file": str(points_file),
                       "labels": group["labels"]})
        for start in range(0, sizes["cli"], sizes["cli_file"]):
            chunk = group["points"][start: start + sizes["cli_file"]]
            path = out_dir / f"group{gi}-cli{start}.json"
            path.write_text(json.dumps(chunk), encoding="utf-8")
            cli_files.append({"spec_file": str(spec_file), "points_file": str(path),
                              "seed": start, "offset": offset + start, "count": len(chunk)})
        offset += len(group["points"])
    return groups, cli_files


def run_worker(job_file: Path, *extra: str) -> float:
    """Run worker.py in a fresh interpreter; return its wall time in seconds."""
    t = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(job_file), *extra],
                          cwd=ROOT, env=WORKER_ENV,
                          capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    elapsed = time.perf_counter() - t
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(extra)} exited {proc.returncode}:\n{proc.stderr}")
    return elapsed


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def provenance() -> dict:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "normgeom").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"git_sha": sha, "src_sha256": digest.hexdigest(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "jsonschema": metadata.version("jsonschema"), "blas_threads": BLAS_THREADS}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "normgeom" / "__init__.py").is_file():
        print(f"error: no normgeom sources under {SRC}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    groups, cli_files = write_inputs(args.workload, args.seed, out_dir)
    job = {"call": gen.CALLS[args.workload], "groups": groups, "cli_files": cli_files,
           "seconds": args.seconds, "cli_share": CLI_SHARE,
           "min_passes": MIN_PASSES, "trace": args.trace,
           "traced_per_group": gen.SIZES[args.workload]["traced"],
           "out_dir": str(out_dir), "result": str(out_dir / "result.json")}
    job_file = out_dir / "job.json"
    job_file.write_text(json.dumps(job), encoding="utf-8")

    try:
        setup = [run_worker(job_file, "--setup") for _ in range(SETUP_PROBES)]
        run_worker(job_file)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    res = json.loads(Path(job["result"]).read_text(encoding="utf-8"))

    cli, traced = res["cli"], res["traced"]
    check = traced["self_check"]
    checks = {
        "raised": res["errors"],
        "required_labels_wrong": res["wrong_required"],
        "verdicts_repeat_across_passes": res["repeatable"],
        "cli_problems": cli["problems"],
        "tracer_self_check": check,
    }
    correct = (not res["wrong_required"] and res["repeatable"] and not cli["problems"]
               and check["wrappers_match_profiler"] and not check["unbound"])
    attempted = res["points"] + len(cli_files)
    failed = len(res["errors"]) + len(cli["problems"])

    if args.trace:
        metrics = {name: {"value": value, "unit": "ms" if name.endswith("_ms") else "count"}
                   for name, value in traced["per_layer"].items()}
    else:
        best_ms = [1e3 * t for t in res["good_best"]]
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "good_points_per_s": {"value": 1e3 * len(best_ms) / sum(best_ms), "unit": "1/s"},
            "point_ms.p50": {"value": statistics.median(best_ms), "unit": "ms"},
            "point_ms.p95": {"value": percentile(best_ms, 95), "unit": "ms"},
            "cli_points_per_s": {"value": cli["points"] / cli["best_seconds"], "unit": "1/s"},
            "good_share": {"value": res["good"] / res["points"], "unit": "ratio"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }

    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "provenance": provenance(),
        "report_sha256": cli["sha256"],
        "tracing_overhead_ms_per_point": traced["overhead_ms_per_point"],
        "traced_points": traced["traced_points"],
        "points": res["points"], "good_points": res["good"],
        "library_passes": res["passes"],
        "cli_rounds": cli["rounds"], "cli_points": cli["points"],
        "setup_probes_s": setup,
        "checks": checks,
    }, sort_keys=True))
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
