"""One workload in a fresh interpreter: time the library, the CLI, then trace.

Run by ``run.py`` as ``python3 bench/worker.py JOB [--setup]``, with the
source tree's ``src`` on ``PYTHONPATH``. ``JOB`` is a JSON file naming the
group files, the time budget and the output paths.
With ``--setup`` the worker only imports normgeom, builds the norms and
loads the point files, which is what ``setup_s`` times. Otherwise it
writes its measurements and checks to the job's ``result`` path.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import normgeom as ng

#: The verdict (smooth or not) each label's construction implies.
EXPECTED_SMOOTH = {"corner": False, "generic": True, "smooth": True}

#: Labels whose verdict the run requires. "smooth" points span radii
#: 1e-3..1e3, where the classifier's absolute step floors are a known
#: defect; their misses count against ``good_share`` only.
REQUIRED = ("corner", "generic")


def load_groups(job) -> list[dict]:
    groups = []
    for g in job["groups"]:
        spec = ng.spec_from_dict(json.loads(Path(g["spec_file"]).read_text(encoding="utf-8")))
        points = [np.asarray(p, dtype=float)
                  for p in json.loads(Path(g["points_file"]).read_text(encoding="utf-8"))]
        groups.append({**g, "norm": spec, "arrays": points})
    return groups


def call_point(call: str, spec, x, seed: int):
    """Run the workload's library call; the outcome is what the CLI reports too."""
    if call == "roundtrip":
        report = ng.equivalence_roundtrip(spec, x, seed=seed)
        return {"smooth": report.smooth, "verdict": report.verdict}
    return {"smooth": ng.classify_point(spec, x, seed=seed).smooth}


def judge(outcome, label: str) -> bool:
    """A point is good when it ran, is not a violation and fits its label."""
    if "error" in outcome or outcome.get("verdict") == "violation":
        return False
    want = EXPECTED_SMOOTH.get(label)
    return want is None or outcome["smooth"] == want


def run_points(call, items):
    """One pass over ``(point id, norm, x, index in group)``: seconds and outcomes.

    The index in the group is the call's seed, as the CLI gives it.
    """
    times, outcomes = [], []
    for _, spec, x, seed in items:
        t = time.perf_counter()
        try:
            outcome = call_point(call, spec, x, seed)
        except Exception as exc:  # a raising point is a failed operation, not a crash
            outcome = {"error": f"{type(exc).__name__}: {exc}"}
        times.append(time.perf_counter() - t)
        outcomes.append(outcome)
    return times, outcomes


def cli_args(job, f, out: Path) -> list[str]:
    return [job["call"], f["spec_file"], "--points-file", f["points_file"],
            "--seed", str(f["seed"]), "--out", str(out)]


def run_cli_quietly(args) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return ng.run_cli(args)


def cli_round(job, prefix="report"):
    """One CLI run per CLI file: seconds, exit codes and report bytes, per file."""
    times, codes, reports = [], [], []
    for fi, f in enumerate(job["cli_files"]):
        out = Path(job["out_dir"]) / f"{prefix}-{fi}.json"
        t = time.perf_counter()
        codes.append(run_cli_quietly(cli_args(job, f, out)))
        times.append(time.perf_counter() - t)
        reports.append(out.read_bytes())
    return times, codes, reports


def measure(job, items):
    """Interleave library passes and CLI rounds within ``seconds``.

    A CLI round runs whenever the CLI has had less than its share of the
    time so far, so both are sampled across the whole run and a slow
    spell of the host cannot cover all of either. The run stops before a
    step that would, by the mean of its kind so far, overrun the budget.
    """
    passes, rounds = [], []
    lib_time = cli_time = 0.0
    while True:
        spent = lib_time + cli_time
        cli_next = cli_time <= job["cli_share"] * spent
        if cli_next:
            step = cli_time / len(rounds) if rounds else 0.0
        else:
            step = lib_time / len(passes) if passes else 0.0
        if (len(passes) >= job["min_passes"] and len(rounds) >= 2
                and spent + step > job["seconds"]):
            return passes, rounds
        t = time.perf_counter()
        if cli_next:
            rounds.append(cli_round(job))
            cli_time += time.perf_counter() - t
        else:
            passes.append(run_points(job["call"], items))
            lib_time += time.perf_counter() - t


def check_cli(job, rounds, outcomes) -> list[str]:
    """Exit codes, schema, byte-identity and verdicts of the CLI reports."""
    import jsonschema

    schema = json.loads(Path(ng.__file__).with_name("report_schema.json").read_text())
    problems = []
    for fi, f in enumerate(job["cli_files"]):
        data = {r[2][fi] for r in rounds}
        codes = {r[1][fi] for r in rounds}
        if len(data) != 1:
            problems.append(f"{f['points_file']}: CLI reports differ between rounds")
            continue
        try:
            report = json.loads(data.pop())
            jsonschema.validate(report, schema)
        except (ValueError, jsonschema.ValidationError) as exc:
            problems.append(f"{f['points_file']}: invalid CLI report: {exc}")
            continue
        expected = outcomes[f["offset"]: f["offset"] + f["count"]]
        got = [{k: r["result"][k] for k in ("smooth", "verdict") if k in r["result"]}
               for r in report["results"]]
        if got != expected:
            problems.append(f"{f['points_file']}: CLI verdicts differ from the library's")
        want = 0 if all(o.get("verdict", "consistent") == "consistent" for o in expected) else 1
        if codes != {want}:
            problems.append(f"{f['points_file']}: exit codes {sorted(codes)}, want {want}")
    return problems


def self_check(tracer, tracing) -> dict:
    """Wrapper counts against a profiler's counts of the same calls.

    When the benchmark was added, one ``classify_point`` cost 57 / 56 / 38
    ``value`` calls and a smooth roundtrip made 2 ``classify_point`` calls.
    Those figures are reported, and a later commit may change them; what
    must hold is that the wrappers see every call the profiler sees.
    """
    hexagon = ng.PolyhedralNorm([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    lp4 = ng.LpNorm(4.0, 3)
    lp_point = np.array([0.3, -0.5, 0.8]) / np.sum(np.array([0.3, -0.5, 0.8]) ** 4) ** 0.25
    value_codes = [cls.__dict__["value"].__wrapped__.__code__ for cls in tracing.norm_families()]
    classify_code = [tracer.by_name["norms.classify_point"].__code__]
    cases = {
        "classify_lp4_d3.value_calls": (lp4, lp_point, ng.classify_point, "norms.value", value_codes),
        "classify_linf_d3.value_calls": (ng.LInfNorm(3), [0.3, -0.5, 0.8], ng.classify_point,
                                         "norms.value", value_codes),
        "classify_hexagon.value_calls": (hexagon, [0.6, 0.2], ng.classify_point,
                                         "norms.value", value_codes),
        "roundtrip_lp4_d3.classify_calls": (lp4, lp_point, ng.equivalence_roundtrip,
                                            "norms.classify_point", classify_code),
    }
    counts, agree = {}, True
    for key, (spec, x, fn, name, codes) in cases.items():
        tracer.reset()
        profiled = tracing.profile_calls(codes, lambda: fn(spec, x))
        counted = sum(1 for rec in tracer.spans if rec[0] == name)
        counts[key] = counted
        agree &= counted == profiled
    tracer.reset()
    baseline = {"classify_lp4_d3.value_calls": 57, "classify_linf_d3.value_calls": 56,
                "classify_hexagon.value_calls": 38, "roundtrip_lp4_d3.classify_calls": 2}
    return {"counts": counts, "wrappers_match_profiler": agree,
            "matches_baseline": counts == baseline, "unbound": tracer.unbound()}


def traced_phase(job, items, best):
    """Replay the traced subset under spans, then (``--trace 1``) one CLI round."""
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    check = self_check(tracer, tracing)

    traced = [item for item in items if item[3] < job["traced_per_group"]]
    ids = {item[0] for item in traced}
    times = []
    for item in traced:
        tracer.point = item[0]
        times.extend(run_points(job["call"], [item])[0])
    tracer.point = None
    untraced = [best[pid] for pid, *_ in traced]
    result = {"self_check": check, "traced_points": len(traced),
              "overhead_ms_per_point":
                  1e3 * (statistics.median(times) - statistics.median(untraced))}
    if job["trace"]:
        cli_round(job, prefix="traced-report")
        tracing.write_spans(Path(job["out_dir"]) / "spans.json.gz", tracer.spans, tracer.counts)
        result["per_layer"] = tracing.layer_metrics(
            tracer, ids, sum(f["count"] for f in job["cli_files"]))
    return result


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    groups = load_groups(job)
    if "--setup" in sys.argv:
        return 0
    items, labels = [], []
    for g in groups:
        for i, (x, label) in enumerate(zip(g["arrays"], g["labels"])):
            items.append((len(items), g["norm"], x, i))
            labels.append(label)

    passes, rounds = measure(job, items)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outcomes = passes[0][1]
    good = [judge(o, label) for o, label in zip(outcomes, labels)]
    best = [min(col) for col in zip(*(times for times, _ in passes))]
    traced = traced_phase(job, items, best)

    result = {
        "points": len(items),
        "good": sum(good),
        "errors": [o["error"] for o in outcomes if "error" in o],
        "wrong_required": [i for i, (o, label) in enumerate(zip(outcomes, labels))
                           if label in REQUIRED and o.get("smooth") != EXPECTED_SMOOTH[label]],
        "repeatable": all(o == outcomes for _, o in passes[1:]),
        "passes": len(passes),
        "good_best": [t for t, ok in zip(best, good) if ok],
        "cli": {"rounds": len(rounds),
                "best_seconds": sum(min(col) for col in zip(*(r[0] for r in rounds))),
                "problems": check_cli(job, rounds, outcomes),
                "sha256": hashlib.sha256(b"".join(rounds[0][2])).hexdigest(),
                "points": sum(f["count"] for f in job["cli_files"])},
        "peak_rss_mb": peak_rss_mb,
        "traced": traced,
    }
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
