"""Output checks that share no code path with phenorank.

The checks read the files the CLI wrote and the inputs it was given, and
recompute what they must contain: the m-hop neighbourhood by a BFS of
their own over edges.tsv, and Hit@k, MRR and inclusion from pred.jsonl,
patient_graphs.jsonl and test.jsonl. Each check returns a list of error
strings, empty when the output is right. `self_test` shows that each
check rejects a corrupted copy of a real output.
"""

from __future__ import annotations

import copy
import csv
import json
import math
from collections import deque
from pathlib import Path

TOLERANCE = 1e-9
MAX_ERRORS = 5


def read_jsonl(path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


class Graph:
    """Node types and undirected adjacency, read straight from the TSVs."""

    def __init__(self, nodes_path, edges_path):
        self.types: dict[str, str] = {}
        with open(nodes_path, encoding="utf-8") as fh:
            for line in fh:
                line = line.rstrip("\n")
                if line and not line.startswith("#"):
                    key, kind, _ = line.split("\t")
                    self.types[key] = kind
        self.adj: dict[str, set] = {k: set() for k in self.types}
        with open(edges_path, encoding="utf-8") as fh:
            for line in fh:
                line = line.rstrip("\n")
                if line and not line.startswith("#"):
                    a, _, b = line.split("\t")
                    self.adj[a].add(b)
                    self.adj[b].add(a)

    def neighbourhood(self, sources, hops: int) -> set:
        seen = {s: 0 for s in sources}
        queue = deque(seen)
        while queue:
            v = queue.popleft()
            if seen[v] == hops:
                continue
            for u in self.adj[v]:
                if u not in seen:
                    seen[u] = seen[v] + 1
                    queue.append(u)
        return set(seen)


class Expected:
    """Per patient of the cohort: valid phenotypes, neighbourhood, candidates."""

    def __init__(self, graph: Graph, cohort: list, hops: int):
        self.graph = graph
        self.cohort = cohort
        self.ids = [p["id"] for p in cohort]
        self.truth = {p["id"]: p["causal_gene"] for p in cohort}
        self.phenotypes, self.region, self.candidates = {}, {}, {}
        for p in cohort:
            valid = [k for k in p["phenotypes"] if graph.types.get(k) == "phenotype"]
            region = graph.neighbourhood(valid, hops)
            self.phenotypes[p["id"]] = set(valid)
            self.region[p["id"]] = region
            self.candidates[p["id"]] = {k for k in region if graph.types[k] == "gene"}


def _ids_match(name: str, rows: list, exp: Expected) -> list:
    ids = [r.get("id") for r in rows]
    if ids != exp.ids:
        return [f"{name}: patient ids differ from the cohort's, in order"]
    return []


def check_predictions(preds: list, exp: Expected) -> list:
    """Rankings hold exactly the m-hop candidate genes, scores finite and
    non-increasing, ties in ascending key order."""
    errors = _ids_match("pred.jsonl", preds, exp)
    for row in preds:
        pid, ranking, scores = row.get("id"), row["ranking"], row["scores"]
        want = exp.candidates.get(pid, set())
        if len(set(ranking)) != len(ranking) or set(ranking) != want:
            errors.append(f"{pid}: ranking is not the {len(want)} genes "
                          f"within the hop limit")
        if set(scores) != set(ranking):
            errors.append(f"{pid}: scored genes differ from ranked genes")
            continue
        if not all(isinstance(s, float) and math.isfinite(s) for s in scores.values()):
            errors.append(f"{pid}: non-finite score")
            continue
        for a, b in zip(ranking, ranking[1:]):
            if scores[a] < scores[b] or (scores[a] == scores[b] and a > b):
                errors.append(f"{pid}: {a} ranked above {b} out of order")
                break
    return errors[:MAX_ERRORS]


def check_patient_graphs(graphs: list, exp: Expected) -> list:
    """Each patient graph holds the patient's valid phenotypes, lies in
    its neighbourhood, and selects genes among its nodes and candidates."""
    errors = _ids_match("patient_graphs.jsonl", graphs, exp)
    for row in graphs:
        pid = row.get("id")
        nodes, genes = set(row["nodes"]), set(row["genes"])
        if not exp.phenotypes.get(pid, set()) <= nodes:
            errors.append(f"{pid}: patient graph misses a phenotype")
        if not nodes <= exp.region.get(pid, set()):
            errors.append(f"{pid}: patient graph leaves the neighbourhood")
        if not genes <= nodes or not genes <= exp.candidates.get(pid, set()):
            errors.append(f"{pid}: selected gene outside nodes or candidates")
    return errors[:MAX_ERRORS]


def recompute_report(preds: list, graphs: list, exp: Expected, ks=(1, 5, 10)) -> dict:
    n = len(exp.ids)
    ranks = {}
    for row in preds:
        truth = exp.truth[row["id"]]
        if truth in row["ranking"]:
            ranks[row["id"]] = row["ranking"].index(truth) + 1
    included = sum(1 for row in graphs if exp.truth[row["id"]] in row["nodes"])
    return {
        "n_patients": n,
        "hits_at": {str(k): 100.0 * sum(1 for r in ranks.values() if r <= k) / n
                    for k in ks},
        "mrr": 100.0 * sum(1.0 / r for r in ranks.values()) / n,
        "inclusion_rate": 100.0 * included / n,
    }


def check_report(report: dict, preds: list, graphs: list, exp: Expected) -> list:
    """Hit@1 <= Hit@5 <= Hit@10, and every number equals the recomputation."""
    errors = []
    hits = report.get("hits_at", {})
    if not hits.get("1", -1) <= hits.get("5", -1) <= hits.get("10", -1):
        errors.append("report: Hit@1 <= Hit@5 <= Hit@10 does not hold")
    want = recompute_report(preds, graphs, exp)
    if report.get("n_patients") != want["n_patients"]:
        errors.append(f"report: n_patients {report.get('n_patients')} "
                      f"!= {want['n_patients']}")
    pairs = [("mrr", report.get("mrr"), want["mrr"]),
             ("inclusion_rate", report.get("inclusion_rate"), want["inclusion_rate"])]
    pairs += [(f"Hit@{k}", hits.get(k), v) for k, v in want["hits_at"].items()]
    for name, got, expected in pairs:
        if not isinstance(got, (int, float)) or abs(got - expected) > TOLERANCE:
            errors.append(f"report: {name} {got} != recomputed {expected}")
    return errors


def random_mrr(exp: Expected) -> float:
    """MRR in percent of a uniformly random ranking: H_n / n per patient
    whose causal gene is among its n candidates, 0 otherwise."""
    total = 0.0
    for pid in exp.ids:
        n = len(exp.candidates[pid])
        if exp.truth[pid] in exp.candidates[pid]:
            total += sum(1.0 / k for k in range(1, n + 1)) / n
    return 100.0 * total / len(exp.ids)


def check_learning(loss_rows: list, report: dict, exp: Expected, margin: float) -> list:
    """The last epoch's loss is below the first, and the test MRR is at
    least `margin` times the random-ranking MRR."""
    errors = []
    first, last = float(loss_rows[0]["loss_total"]), float(loss_rows[-1]["loss_total"])
    if not last < first:
        errors.append(f"training loss did not fall: {first} -> {last}")
    base = random_mrr(exp)
    if not report["mrr"] >= margin * base:
        errors.append(f"test MRR {report['mrr']:.2f} is not {margin}x "
                      f"the random MRR {base:.2f}")
    return errors


def read_loss_trace(path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_run(data: Path, model: Path, hops: int, margin: float) -> tuple:
    """All checks on one pipeline run; returns (errors, outputs, expected)."""
    graph = Graph(data / "nodes.tsv", data / "edges.tsv")
    exp = Expected(graph, read_jsonl(data / "test.jsonl"), hops)
    out = {
        "preds": read_jsonl(model / "pred.jsonl"),
        "graphs": read_jsonl(model / "graphs" / "patient_graphs.jsonl"),
        "report": json.loads((model / "report.json").read_text(encoding="utf-8")),
        "loss": read_loss_trace(model / "loss_trace.csv"),
    }
    errors = (check_predictions(out["preds"], exp)
              + check_patient_graphs(out["graphs"], exp)
              + check_report(out["report"], out["preds"], out["graphs"], exp)
              + check_learning(out["loss"], out["report"], exp, margin))
    return errors, out, exp


def self_test(out: dict, exp: Expected) -> list:
    """Corrupt one copy of a real output per check; each must be rejected."""
    failures = []
    preds = out["preds"]
    row = next(i for i, r in enumerate(preds) if len(r["ranking"]) >= 2)

    swapped = copy.deepcopy(preds)
    ranking = swapped[row]["ranking"]
    ranking[0], ranking[1] = ranking[1], ranking[0]
    if not check_predictions(swapped, exp):
        failures.append("two swapped ranking entries were accepted")

    dropped = copy.deepcopy(preds)
    gene = dropped[row]["ranking"].pop()
    del dropped[row]["scores"][gene]
    if not check_predictions(dropped, exp):
        failures.append("a candidate list missing a gene was accepted")

    graphs = copy.deepcopy(out["graphs"])
    pid = graphs[0]["id"]
    outside = next(k for k in sorted(exp.graph.types) if k not in exp.region[pid])
    graphs[0]["nodes"].append(outside)
    if not check_patient_graphs(graphs, exp):
        failures.append("a node outside the neighbourhood was accepted")

    report = copy.deepcopy(out["report"])
    report["mrr"] += 1e-6
    if not check_report(report, preds, out["graphs"], exp):
        failures.append("a changed report number was accepted")
    return failures
