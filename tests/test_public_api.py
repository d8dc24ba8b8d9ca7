"""The public names of ``fairaudit``: neither added nor dropped by accident.

A refactor may move or merge internals freely; the names in ``__all__`` are
the library's API, as the subcommands and flags pinned in
``test_cli_surface.py`` are the CLI's. Changing this list is a deliberate API
change.
"""

import fairaudit

PUBLIC_NAMES = [
    "AuditConfig", "AuditReport", "BiRnnClassifier", "BoostedStumps",
    "ClassificationMetrics", "ConsistencyResult", "DecisionVector", "EmbeddingMatrix",
    "FIELD_ORDER", "KnnClassifier", "LatentRecord", "NeighborList", "Profile",
    "RaterConfig", "ReportRow", "STAGES", "SearchResult", "SplitAssignment", "Stump",
    "TrainConfig", "TrainHistory", "attach_stage_labels", "binarize_labels",
    "birnn_forward", "birnn_train", "classification_metrics", "compare_sources",
    "consistency", "consistency_gap", "embed_corpus", "generate_synthetic_corpus",
    "gradient_check", "hash_embed_field", "ingest_embeddings", "knn_batched", "knn_exact",
    "knn_feature_reranked", "knn_predict", "load_corpus", "load_decisions", "load_latents",
    "load_model", "load_neighbors", "load_split", "normalize_field_blocks",
    "pairwise_similarity", "random_search", "render_report", "run_audit", "save_corpus",
    "save_decisions", "save_embeddings", "save_latents", "save_model", "save_neighbors",
    "save_split", "simulate_raters", "split_corpus", "train_stumps",
]


def test_public_names_unchanged():
    assert sorted(fairaudit.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    missing = [name for name in fairaudit.__all__ if not hasattr(fairaudit, name)]
    assert missing == []


def test_star_import_gives_the_public_names():
    namespace: dict = {}
    exec("from fairaudit import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_NAMES
