"""Compare the outputs of two normgeom source trees bit for bit.

    python3 tools/bitcheck.py OLD_SRC NEW_SRC

Each argument is a ``src`` directory holding a ``normgeom`` package. The
benchmark's corner_classify and smooth_roundtrip points at seeds 201 and
733 come from ``bench/gen.py``. One child interpreter per tree computes
every ``classify_point`` field at every point (seed = index in group) and
``equivalence_roundtrip(...).to_dict()`` at every smooth_roundtrip point.
Floats are compared as ``float.hex``, arrays as ``tobytes()``, and a
raised error by its type and message. Prints the count compared and each
mismatch as (workload, seed, group, index, field); exits 1 on any
mismatch and 2 on a bad argument or a failed child.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("corner_classify", "smooth_roundtrip")
SEEDS = (201, 733)
#: Child interpreters run single-threaded BLAS, as the benchmark does.
BLAS_THREADS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS", "BLIS_NUM_THREADS")}


def encode(value):
    """``value`` in a JSON form that keeps every bit."""
    if isinstance(value, (bool, str)) or value is None:
        return value
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, np.ndarray):
        return f"{value.dtype}{value.shape}:{value.tobytes().hex()}"
    if isinstance(value, dict):
        return {key: encode(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode(item) for item in value]
    if dataclasses.is_dataclass(value):  # a GradientFunctional
        return {field.name: encode(getattr(value, field.name))
                for field in dataclasses.fields(value)}
    raise TypeError(f"cannot encode {type(value).__name__}")


def outputs(groups: list[dict]) -> list[dict]:
    """Every output of the tree on ``sys.path`` at every point of ``groups``.

    Each group is a norm's JSON form, its points and whether to run the
    roundtrip; one output per call, keyed by field name.
    """
    import normgeom as ng

    def classify(spec, x, seed):
        verdict = ng.classify_point(spec, x, seed=seed)
        return {field.name: getattr(verdict, field.name)
                for field in dataclasses.fields(verdict)}

    def roundtrip(spec, x, seed):
        return ng.equivalence_roundtrip(spec, x, seed=seed).to_dict()

    out = []
    for group in groups:
        spec = ng.spec_from_dict(group["spec"])
        calls = (classify, roundtrip) if group["roundtrip"] else (classify,)
        for index, x in enumerate(group["points"]):
            for call in calls:
                try:
                    result = encode(call(spec, x, index))
                except Exception as exc:  # a refusal is an output too
                    result = {"raised": f"{type(exc).__name__}: {exc}"}
                out.append(result)
    return out


def child() -> None:
    """Read the groups from stdin and write their outputs to stdout."""
    import normgeom

    src = Path(os.environ["BITCHECK_SRC"]).resolve()
    if src not in Path(normgeom.__file__).resolve().parents:
        raise SystemExit(f"normgeom imported from {normgeom.__file__}, not from {src}")
    json.dump(outputs(json.load(sys.stdin)), sys.stdout)


def run_tree(src: Path, groups: list[dict]) -> list[dict]:
    env = {**os.environ, **BLAS_THREADS, "BITCHECK_SRC": str(src),
           "PYTHONPATH": os.pathsep.join([str(src), str(ROOT / "tools")])}
    proc = subprocess.run([sys.executable, "-c", "import bitcheck; bitcheck.child()"],
                          input=json.dumps(groups), env=env, cwd=ROOT,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"the child for {src} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/bitcheck.py OLD_SRC NEW_SRC", file=sys.stderr)
        return 2
    trees = [Path(arg).resolve() for arg in argv]
    for src in trees:
        if not (src / "normgeom" / "__init__.py").is_file():
            print(f"error: no normgeom package under {src}", file=sys.stderr)
            return 2

    sys.path.insert(0, str(ROOT / "bench"))
    import gen

    groups, keys = [], []
    for workload in WORKLOADS:
        for seed in SEEDS:
            for gi, group in enumerate(gen.generate(workload, seed)):
                roundtrip = gen.CALLS[workload] == "roundtrip"
                groups.append({"spec": group["spec"], "points": group["points"],
                               "roundtrip": roundtrip})
                for index in range(len(group["points"])):
                    keys.append((workload, seed, gi, index, "classify"))
                    if roundtrip:
                        keys.append((workload, seed, gi, index, "roundtrip"))
    try:
        old, new = (run_tree(src, groups) for src in trees)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    mismatches = 0
    for (workload, seed, gi, index, call), a, b in zip(keys, old, new, strict=True):
        for field in sorted(set(a) | set(b)):
            if a.get(field) != b.get(field):
                mismatches += 1
                print(f"mismatch: {workload} seed={seed} group={gi} index={index} "
                      f"{call}.{field}")
    print(f"{len(keys)} outputs compared, {mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
