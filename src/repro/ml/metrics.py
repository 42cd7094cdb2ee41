"""Evaluation metrics reported in the paper: AUC, macro F1, RMSE.

Log-loss and accuracy are provided as auxiliary metrics for the search
components (validation loss minimisation) and for tests.
"""

from __future__ import annotations

import numpy as np


def roc_auc_score(y_true, y_score) -> float:
    """Area under the ROC curve for binary labels.

    Computed via the rank (Mann-Whitney U) formulation, which handles tied
    scores by averaging ranks.  Returns 0.5 when only one class is present.
    """
    y_true = np.asarray(y_true, dtype=np.float64).ravel()
    y_score = np.asarray(y_score, dtype=np.float64).ravel()
    pos = y_true == 1
    neg = ~pos
    n_pos, n_neg = int(pos.sum()), int(neg.sum())
    if n_pos == 0 or n_neg == 0:
        return 0.5
    order = np.argsort(y_score, kind="stable")
    sorted_scores = y_score[order]
    # A run of equal scores, sorted positions i..j, shares the rank
    # (i + j + 2) / 2.  NaN != NaN keeps each NaN a run of its own, and
    # -0.0 == 0.0 ties the two zeros.
    new_run = np.empty(sorted_scores.shape[0], dtype=bool)
    new_run[0] = True
    np.not_equal(sorted_scores[1:], sorted_scores[:-1], out=new_run[1:])
    starts = np.flatnonzero(new_run)
    ends = np.append(starts[1:], sorted_scores.shape[0]) - 1
    ranks = np.empty(y_score.shape[0], dtype=np.float64)
    ranks[order] = ((starts + ends + 2) / 2.0)[np.cumsum(new_run) - 1]
    rank_sum_pos = ranks[pos].sum()
    u = rank_sum_pos - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def accuracy_score(y_true, y_pred) -> float:
    y_true = np.asarray(y_true).ravel()
    y_pred = np.asarray(y_pred).ravel()
    if y_true.size == 0:
        return 0.0
    return float((y_true == y_pred).mean())


def f1_score_macro(y_true, y_pred) -> float:
    """Macro-averaged F1 over all classes present in ``y_true``."""
    y_true = np.asarray(y_true).ravel()
    y_pred = np.asarray(y_pred).ravel()
    classes = np.unique(y_true)
    scores = []
    for c in classes:
        tp = float(((y_pred == c) & (y_true == c)).sum())
        fp = float(((y_pred == c) & (y_true != c)).sum())
        fn = float(((y_pred != c) & (y_true == c)).sum())
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        if precision + recall == 0:
            scores.append(0.0)
        else:
            scores.append(2 * precision * recall / (precision + recall))
    return float(np.mean(scores)) if scores else 0.0


def rmse(y_true, y_pred) -> float:
    y_true = np.asarray(y_true, dtype=np.float64).ravel()
    y_pred = np.asarray(y_pred, dtype=np.float64).ravel()
    return float(np.sqrt(((y_true - y_pred) ** 2).mean()))


def log_loss(y_true, y_prob, eps: float = 1e-12) -> float:
    """Binary cross-entropy given positive-class probabilities."""
    y_true = np.asarray(y_true, dtype=np.float64).ravel()
    p = np.clip(np.asarray(y_prob, dtype=np.float64).ravel(), eps, 1 - eps)
    return float(-(y_true * np.log(p) + (1 - y_true) * np.log(1 - p)).mean())
