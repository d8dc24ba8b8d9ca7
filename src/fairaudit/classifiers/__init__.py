"""Desk-scale learners: retrieval kNN, boosted stumps, bidirectional RNN."""

from .birnn import (
    BiRnnClassifier,
    EarlyStopper,
    TrainHistory,
    birnn_forward,
    birnn_train,
    gradient_check,
)
from .io import load_model, save_model
from .knn import KnnClassifier, knn_predict, knn_vote
from .search import TrainConfig
from .stumps import BoostedStumps, Stump, train_stumps

__all__ = [
    "BiRnnClassifier",
    "BoostedStumps",
    "EarlyStopper",
    "KnnClassifier",
    "Stump",
    "TrainConfig",
    "TrainHistory",
    "birnn_forward",
    "birnn_train",
    "gradient_check",
    "knn_predict",
    "knn_vote",
    "load_model",
    "save_model",
    "train_stumps",
]
