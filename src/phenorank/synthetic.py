"""Deterministic synthetic graph and cohort generator with planted signal.

Each disease node links to its genes and its phenotypes, so every causal
gene sits exactly two hops from the patient's phenotypes. Background
nodes plus Erdos-Renyi background edges (excluding direct phenotype-gene
pairs, which would bypass the planted disease path) add confuser genes
and realistic clutter. Regeneration from (config, seed) is
byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .config import check_fields

__all__ = ["SynthConfig", "generate_kg", "generate_cohort", "generate_dataset"]

# Rows of the background draw matrix held in memory at once. Blocks of rows
# take the same values from the generator as one n x n draw would.
DRAW_BLOCK_ROWS = 128


@dataclass
class SynthConfig:
    n_diseases: int = 10
    genes_per_disease: int = 5
    phenos_per_disease: int = 8
    n_background_nodes: int = 200
    background_edge_prob: float = 0.002
    phenotype_noise_rate: float = 0.2
    phenotypes_per_patient: int = 5
    n_patients: int = 100
    split_mode: str = "mixed"        # "mixed" | "disjoint_genes"
    test_fraction: float = 0.2
    additive_noise: bool = False     # add noise phenotypes instead of replacing
    seed: int = 0

    def __post_init__(self):
        check_fields(self, n_diseases=">= 1", genes_per_disease=">= 1",
                     phenos_per_disease=">= 1", n_background_nodes=">= 0",
                     background_edge_prob="[0, 1]", phenotype_noise_rate="[0, 1]",
                     phenotypes_per_patient=">= 1", n_patients=">= 1",
                     test_fraction="[0, 1)", seed=">= 0")
        if self.split_mode not in ("mixed", "disjoint_genes"):
            raise ValueError(f"unknown split_mode {self.split_mode!r}")


def generate_kg(cfg: SynthConfig):
    """Build node and edge rows plus the planted disease->gene/pheno map.

    Returns (node_rows, edge_rows, planted) where rows are TSV-ready
    tuples of string keys and planted maps disease key ->
    {"genes": [...], "phenos": [...]}.
    """
    rng = np.random.default_rng([cfg.seed, 0x5717])
    node_rows, edge_rows = [], []
    planted = {}
    for d in range(cfg.n_diseases):
        dk = f"D{d:04d}"
        node_rows.append((dk, "disease", f"disease {d}"))
        genes, phenos = [], []
        for j in range(cfg.genes_per_disease):
            gk = f"G{d:04d}_{j}"
            node_rows.append((gk, "gene", f"gene {d}.{j}"))
            edge_rows.append((dk, "disease_gene", gk))
            genes.append(gk)
        for j in range(cfg.phenos_per_disease):
            pk = f"P{d:04d}_{j}"
            node_rows.append((pk, "phenotype", f"phenotype {d}.{j}"))
            edge_rows.append((dk, "disease_phenotype", pk))
            phenos.append(pk)
        planted[dk] = {"genes": genes, "phenos": phenos}
    for b in range(cfg.n_background_nodes):
        node_rows.append((f"B{b:05d}", "other", f"background {b}"))

    # Erdos-Renyi background edges over all unordered pairs except direct
    # phenotype-gene links and the planted edges themselves: pair (i, j),
    # i < j, is drawn at row i, column j of an n x n uniform matrix, in
    # row-major order.
    keys = [r[0] for r in node_rows]
    kind = np.array([{"phenotype": 1, "gene": 2}.get(r[1], 0) for r in node_rows])
    n = len(keys)
    planted_pairs = {(min(a, c), max(a, c)) for a, _, c in edge_rows}
    if cfg.background_edge_prob > 0:
        for r0 in range(0, n, DRAW_BLOCK_ROWS):
            block = rng.random((min(DRAW_BLOCK_ROWS, n - r0), n))
            iu, ju = np.nonzero(block < cfg.background_edge_prob)
            iu += r0
            keep = (iu < ju) & (kind[iu] * kind[ju] != 2)    # not phenotype-gene
            for i, j in zip(iu[keep], ju[keep]):
                a, c = keys[i], keys[j]
                if (min(a, c), max(a, c)) not in planted_pairs:
                    edge_rows.append((a, "background", c))
    return node_rows, edge_rows, planted


def generate_cohort(cfg: SynthConfig, planted: dict):
    """Draw patients from the planted signal and split train/test.

    Each patient picks one disease, one of its genes as causal, and a
    without-replacement sample of its phenotypes, with a noise-rate
    fraction of slots swapped for (or, in additive mode, supplemented by)
    random phenotypes. disjoint_genes routes every patient whose causal
    gene falls in a held-out gene subset to the test split; mixed splits
    patients uniformly. A noise draw that finds no phenotype left raises
    ValueError naming the config keys.
    """
    rng = np.random.default_rng([cfg.seed, 0xC0407])
    disease_keys = sorted(planted)
    all_phenos = sorted(p for d in disease_keys for p in planted[d]["phenos"])
    all_genes = sorted(g for d in disease_keys for g in planted[d]["genes"])

    patients = []
    warned = False
    for i in range(cfg.n_patients):
        dk = disease_keys[int(rng.integers(len(disease_keys)))]
        genes, phenos = planted[dk]["genes"], planted[dk]["phenos"]
        causal = genes[int(rng.integers(len(genes)))]
        n_ph = min(cfg.phenotypes_per_patient, len(phenos))
        if n_ph < cfg.phenotypes_per_patient and not warned:
            warnings.warn(
                f"disease {dk} has only {len(phenos)} phenotypes; "
                f"taking all instead of {cfg.phenotypes_per_patient}")
            warned = True
        chosen = list(rng.choice(phenos, size=n_ph, replace=False))
        final = []
        extra = []
        for p in chosen:
            if rng.random() < cfg.phenotype_noise_rate:
                candidates = [q for q in all_phenos
                              if q not in chosen and q not in final and q not in extra]
                if not candidates:
                    raise ValueError(
                        f"phenotype_noise_rate {cfg.phenotype_noise_rate}: patient "
                        f"pt{i:05d} holds every phenotype, none is left to draw as "
                        f"noise; n_diseases * phenos_per_disease must be at least "
                        f"2 * min(phenotypes_per_patient, phenos_per_disease)")
                noise = candidates[int(rng.integers(len(candidates)))]
                if cfg.additive_noise:
                    final.append(p)
                    extra.append(noise)
                else:
                    final.append(noise)
            else:
                final.append(p)
        if (not cfg.additive_noise and cfg.phenotype_noise_rate < 1.0
                and not set(final) & set(chosen)):
            # replacement noise hit every slot; keep one genuine phenotype
            # so the planted disease path stays reachable
            final[0] = chosen[0]
        patients.append({
            "id": f"pt{i:05d}",
            "phenotypes": sorted(set(final + extra)),
            "causal_gene": causal,
        })

    if cfg.split_mode == "mixed":
        in_test = rng.random(cfg.n_patients) < cfg.test_fraction
    else:
        n_hold = max(1, int(round(cfg.test_fraction * len(all_genes))))
        holdout = set(rng.choice(all_genes, size=n_hold, replace=False))
        in_test = np.array([p["causal_gene"] in holdout for p in patients])
    train = [p for p, t in zip(patients, in_test) if not t]
    test = [p for p, t in zip(patients, in_test) if t]
    return train, test


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def generate_dataset(cfg: SynthConfig, out_dir) -> dict:
    """Write nodes.tsv, edges.tsv, train/test JSONL, and a manifest.

    The manifest records the config, the seed, and a sha256 per emitted
    file, and is itself deterministic for a fixed (config, seed).
    """
    node_rows, edge_rows, planted = generate_kg(cfg)
    train, test = generate_cohort(cfg, planted)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    paths = {
        "nodes.tsv": out_dir / "nodes.tsv",
        "edges.tsv": out_dir / "edges.tsv",
        "train.jsonl": out_dir / "train.jsonl",
        "test.jsonl": out_dir / "test.jsonl",
    }
    with open(paths["nodes.tsv"], "w", encoding="utf-8") as fh:
        for row in node_rows:
            fh.write("\t".join(row) + "\n")
    with open(paths["edges.tsv"], "w", encoding="utf-8") as fh:
        fh.write("# src\trelation\tdst (undirected)\n")
        for row in edge_rows:
            fh.write("\t".join(row) + "\n")
    for name, cohort in (("train.jsonl", train), ("test.jsonl", test)):
        with open(paths[name], "w", encoding="utf-8") as fh:
            for p in cohort:
                fh.write(json.dumps(p, sort_keys=True) + "\n")

    manifest = {
        "config": asdict(cfg),
        "seed": cfg.seed,
        "files": {name: _sha256(p) for name, p in sorted(paths.items())},
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return manifest
