"""In-memory span recorder that wraps phenorank from outside the package.

`Tracer.install()` replaces public functions at the names where the
program looks them up (a module global read at call time, or a class
attribute) with timing wrappers, and wraps the VJP closure that each
traced autodiff op leaves on the active tape. Spans stay in memory as
parallel lists (name, start, end, parent) until the stage ends. Wrappers
only time and count: they never touch arguments or results, so a traced
run writes the same bytes as an untraced one.
"""

from __future__ import annotations

import json
import resource
from collections import defaultdict
from time import perf_counter

import numpy as np

# Spans whose per-call durations are kept for percentiles.
PERCENTILE_SPANS = ("kg.load_graph", "sampling.sample_phenotype_subgraph",
                    "training.save_checkpoint", "training.load_checkpoint",
                    "extraction.extract_patient_graph", "metrics.rank_genes",
                    "cli.write_manifest")

TAPE_OPS = ("segment_sum", "segment_softmax", "gather_rows", "matmul")


def _rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * resource.getpagesize() / 2 ** 20


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._stack: list[int] = []
        self.samples: dict[str, list] = defaultdict(list)

    # ------------------------------------------------------------ recording

    def timed(self, name: str, fn, observe=None, before=None):
        """`fn` wrapped in a span; `observe(result, args, ctx)` runs after
        the span closes, with `ctx = before(args)` taken before it opens."""
        def wrapper(*args, **kwargs):
            ctx = before(args) if before else None
            idx = len(self.names)
            self.names.append(name)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if observe:
                observe(result, args, ctx)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owners, attr: str, name: str, observe=None, before=None):
        """Wrap `attr` on every owner that the program reads it from."""
        for owner in owners:
            setattr(owner, attr,
                    self.timed(name, getattr(owner, attr), observe, before))

    def note(self, name: str, value):
        self.samples[name].append(value)

    # ----------------------------------------------------------- installing

    def install(self):
        from phenorank import autodiff, cli, metrics, model, training

        note = self.note
        self.patch([cli], "generate_dataset", "synthetic.generate_dataset",
                   before=lambda args: _rss_mb(),
                   observe=lambda r, a, rss0: note("synthetic.peak_alloc_mb",
                                                   _maxrss_mb() - rss0))
        self.patch([cli], "load_graph", "kg.load_graph",
                   observe=lambda g, a, c: note("kg.arcs", g.arc_count))

        def observe_subgraph(sg, args, ctx):
            note("sampling.subgraph_nodes", sg.n_nodes)
            note("sampling.subgraph_arcs", sg.n_arcs)
            note("sampling.candidate_genes", int(sg.gene_locals.size))
        self.patch([cli, training], "sample_phenotype_subgraph",
                   "sampling.sample_phenotype_subgraph", observe=observe_subgraph)

        def observe_labels(labels, args, ctx):
            note("sampling.label_subgraph", id(args[0]))
            note("sampling.degenerate", int(labels.degenerate))
        self.patch([training], "label_supervision_edges",
                   "sampling.label_supervision_edges", observe=observe_labels)

        for fn in ("gat_forward", "patient_representation", "score_edges",
                   "score_genes"):
            self.patch([model], fn, f"model.{fn}")

        def observe_backward(grads, args, ctx):
            note("autodiff.tape_records", len(args[0].records))
            note("autodiff.grad_mb",
                 sum(g.nbytes for g in grads.values()) / 2 ** 20)
        self.patch([autodiff.Tape], "backward", "autodiff.Tape.backward",
                   observe=observe_backward)

        for op in TAPE_OPS:
            self.patch([autodiff], op, f"autodiff.{op}",
                       observe=self._vjp_wrapper(autodiff, f"autodiff.{op}.vjp"))

        self.patch([training], "subgraph_loss", "losses.subgraph_loss")
        self.patch([training], "gene_loss", "losses.gene_loss",
                   observe=lambda r, a, c: note("losses.hard_negatives", r[1]))

        def observe_adam(result, args, ctx):
            arrays, grads = args[0], args[1]
            g = grads.get("embed")
            useful = 0 if g is None else int(np.count_nonzero(np.any(g != 0, axis=1)))
            note("training.adam_useful_row_ratio", useful / arrays["embed"].shape[0])
        self.patch([training], "adam_step", "training.adam_step", observe=observe_adam)
        self.patch([training], "clip_gradients", "training.clip_gradients")
        self.patch([cli], "save_checkpoint", "training.save_checkpoint")
        self.patch([cli], "load_checkpoint", "training.load_checkpoint")

        def observe_extract(pg, args, ctx):
            note("extraction.patient_graph_nodes", len(pg.nodes))
            note("extraction.selected_genes", len(pg.selected_genes))
        self.patch([cli], "extract_patient_graph",
                   "extraction.extract_patient_graph", observe=observe_extract)
        # cli ranks predictions; training validation imports it from metrics
        self.patch([cli, metrics], "rank_genes", "metrics.rank_genes")
        self.patch([cli], "write_manifest", "cli.write_manifest")

    def _vjp_wrapper(self, autodiff, name: str):
        """Observer that wraps the VJP of the record the op just appended."""
        def observe(out, args, ctx):
            tape = autodiff._ACTIVE_TAPE
            if tape is not None and tape.records and tape.records[-1][0] is out:
                o, parents, vjp = tape.records[-1]
                tape.records[-1] = (o, parents, self.timed(name, vjp))
        return observe

    # ------------------------------------------------------------ reporting

    def summary(self) -> dict:
        """Per span name: calls, inclusive and self seconds, and (for
        PERCENTILE_SPANS) per-call durations; plus the raw samples."""
        covered = [0.0] * len(self.names)
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        spans: dict = {}
        for i, name in enumerate(self.names):
            d = self.end[i] - self.start[i]
            s = spans.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            s["count"] += 1
            s["total_s"] += d
            s["self_s"] += d - covered[i]
            if name in PERCENTILE_SPANS:
                s.setdefault("durations_s", []).append(d)
        return {"spans": spans, "samples": dict(self.samples)}

    def write(self, path, stage: str):
        """Append every span as one JSON line."""
        with open(path, "a", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({"stage": stage, "id": i, "name": name,
                                     "start": self.start[i], "end": self.end[i],
                                     "parent": self.parent[i]}) + "\n")
