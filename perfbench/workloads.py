"""The benchmark's workloads: synthetic inputs plus the training settings.

Every graph and cohort comes from `phenorank synth` with a fixed dataset
seed, so a workload's data are the same on every run. Training uses the
seed of acceptance criterion 4, so the test MRR is fixed for given code
and BLAS thread count. The benchmark's `--seed` picks the single-patient
set.
"""

from __future__ import annotations

from dataclasses import dataclass

# Graph of acceptance criterion 4: 2000 nodes, about 12.6k arcs.
C4_GRAPH = {
    "n_diseases": 40, "genes_per_disease": 5, "phenos_per_disease": 10,
    "n_background_nodes": 1360, "background_edge_prob": 0.003,
    "phenotype_noise_rate": 0.2, "phenotypes_per_patient": 8,
    "split_mode": "mixed", "seed": 7,
}

# Model of acceptance criterion 4 (4 heads and 3 layers are the defaults).
C4_MODEL = {"embed_dim": 64, "hidden_dim": 64, "out_dim": 32,
            "learning_rate": 5e-4}

TRAIN_SEED = 0           # the training seed of acceptance criterion 4
HOPS = 2                 # the predict/extract default and the train default
VAL_FRACTION = 0.1       # the train default; validation runs inside `train`
ONE_PATIENT_SET = 8      # patients in the single-patient predict set
MRR_MARGIN = 1.5         # test MRR must reach this multiple of the random MRR


@dataclass(frozen=True)
class Workload:
    synth: dict
    epochs: int


# Why each workload exists is written once, in BENCHMARK.json.
WORKLOADS = {
    "train-c4": Workload(
        synth={**C4_GRAPH, "n_patients": 500, "test_fraction": 0.2},
        epochs=2,
    ),
    "train-wide": Workload(
        synth={**C4_GRAPH, "n_diseases": 200, "n_background_nodes": 4000,
               "background_edge_prob": 0.0004, "n_patients": 600,
               "test_fraction": 0.5},
        epochs=2,
    ),
}
