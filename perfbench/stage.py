"""Run one stage of the benchmark in a fresh process and report its cost.

Usage: python3 perfbench/stage.py SPEC.json

SPEC names the checkout root, a round of named `phenorank` command lines
and where to write the result. The stage imports phenorank from the
checkout's `src/`, runs each command of the round through
`phenorank.cli.main`, repeats the round until `seconds` have passed
(whole rounds; one round when `seconds` is null), then runs the `final`
commands once. It writes each call's exit code and wall time, the hashes
of the `watch` files after every round, its own peak RSS and, when
traced, the span summary as JSON. One process per stage keeps each
stage's peak RSS its own.

With `reference` set, reference blocks (see reference.py) run before
the first call and after every call, and each call records the times of
the blocks run just before and just after it.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path


def _environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def _sha256(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def run(spec: dict) -> dict:
    root = Path(spec["root"])
    sys.path.insert(0, str(root / "src"))
    import phenorank
    from phenorank import cli
    found = Path(phenorank.__file__).resolve().parent
    if found != (root / "src" / "phenorank").resolve():
        raise SystemExit(f"imported phenorank from {found}, not from {root}/src")

    result = {"calls": [], "hashes": []}
    # set-up ends when `train` has its graph and cohort in memory
    load_cohort = cli.load_cohort

    def stamped_load_cohort(*args, **kwargs):
        cohort = load_cohort(*args, **kwargs)
        result.setdefault("loaded_at", time.monotonic())
        return cohort
    cli.load_cohort = stamped_load_cohort

    tracer = None
    if spec["trace"]:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    previous: list = []     # the reference blocks run just before a call
    if spec.get("reference"):
        from reference import reference_blocks
        previous = reference_blocks()

    def call(name, argv):
        nonlocal previous
        main = tracer.timed(f"cli.{name}", cli.main) if tracer else cli.main
        t0 = time.perf_counter()
        rc = main(argv)
        record = {"name": name, "rc": rc, "seconds": time.perf_counter() - t0}
        if spec.get("reference"):
            after = reference_blocks()
            record["ref_s"] = previous + after
            previous = after
        result["calls"].append(record)

    t_end = time.monotonic() + (spec["seconds"] or 0)
    while True:
        for name, argv in spec["round"]:
            call(name, argv)
        result["hashes"].append([_sha256(p) for p in spec.get("watch", [])])
        if time.monotonic() >= t_end:
            break
    for name, argv in spec.get("final", []):
        call(name, argv)
    result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # read after the commands, so that it adds nothing to set-up time
    result["env"] = _environment()
    if tracer is not None:
        result.update(tracer.summary())
        tracer.write(spec["spans_out"], spec["stage"])
    return result


if __name__ == "__main__":
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    out = run(spec)
    Path(spec["result"]).write_text(json.dumps(out), encoding="utf-8")
