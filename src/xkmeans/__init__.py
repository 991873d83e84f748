"""Explainable k-means clustering with threshold trees.

Typical flow: fit a reference clustering, build the mistake-minimizing base
tree with k leaves, then expand it greedily toward a leaf budget while the
fixed-center surrogate cost drops.

    from xkmeans import KMeansConfig, build_imm, expand, fit_reference, load_csv

    X = load_csv("data.csv")
    ref = fit_reference(X, KMeansConfig(k=3, seed=0))
    base = build_imm(X, ref.centers, ref.assignment)
    result = expand(X, ref.centers, base, k_prime=12)
    print(result.tree.export_text())
"""

from xkmeans.baselines import build_gini_tree, build_kdtree
from xkmeans.core import (
    Assignment,
    CenterSet,
    CostReport,
    DataMatrix,
    accuracy,
    fixed_center_cost,
    kmeans_cost,
    load_csv,
    squared_distance,
    surrogate_cost,
)
from xkmeans.exkmc import ExpandResult, SplitCandidate, expand, root_tree, scan_best_split
from xkmeans.imm import build_imm
from xkmeans.kmeans import KMeansConfig, KMeansResult, fit_reference, kmeanspp_seed, lloyd
from xkmeans.synth import (
    SyntheticIISpec,
    gen_gaussian_blobs,
    gen_synthetic_i,
    gen_synthetic_ii,
)
from xkmeans.tree import ThresholdTree

__version__ = "0.1.0"
