"""Host-speed reference for the benchmark's time metrics.

A small shared host changes speed by up to 2x over seconds to minutes, in
CPU time as in wall time, so one run's raw command time says as much
about the host as about phenorank. The stage processes therefore run a
fixed reference block (the row gather, small matmul, scatter-add and
elementwise exp that dominate the model) BLOCKS times before and after
every serving command, and the serving times are scaled to a host on
which that block takes REFERENCE_S:

    scaled time = raw time * REFERENCE_S / median(blocks before and after)

The block uses its own arrays and random generator, so it changes no
byte that phenorank writes.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# Nominal time of one block; scaled times read as on a host this fast.
REFERENCE_S = 0.020
BLOCKS = 2                # blocks run between two commands
_inputs = None


def _make_inputs():
    import numpy as np
    rng = np.random.default_rng(0)
    # a subgraph-sized table (rows x embedding) and a patient-sized one
    return [(rng.standard_normal((n, d)), rng.integers(0, n, e),
             rng.standard_normal((d, d)) / d ** 0.5)
            for n, d, e in ((300, 64, 500), (40, 16, 60))]


def reference_block() -> float:
    """Run the fixed reference work once and return its wall time in s:
    20 rounds on the large table and 250 on the small one, so that numpy's
    per-call overhead weighs about as much as its arithmetic."""
    global _inputs
    import numpy as np
    if _inputs is None:
        _inputs = _make_inputs()
    t0 = perf_counter()
    total = 0.0
    for (table, rows, weight), rounds in zip(_inputs, (20, 250)):
        for _ in range(rounds):
            h = table[rows] @ weight
            out = np.zeros_like(table)
            np.add.at(out, rows, h)
            total += float(np.exp(-np.abs(out)).sum())
    seconds = perf_counter() - t0
    if not np.isfinite(total):
        raise ArithmeticError("reference block gave a non-finite sum")
    return seconds


def reference_blocks() -> list:
    return [reference_block() for _ in range(BLOCKS)]


def scaled_seconds(call: dict) -> float:
    """A call's wall time scaled to the reference host speed."""
    return call["seconds"] * REFERENCE_S / statistics.median(call["ref_s"])
