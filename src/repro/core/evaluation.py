"""Downstream-model evaluation of candidate features (Problem 1's objective).

The evaluator is constructed once per search with the training/validation
split, the label and the base feature columns.  The base design matrices are
vectorised and cached; scoring a candidate query then only requires executing
the query, reading its feature onto both splits and retraining the (cloned)
downstream model with one extra column.  Candidates are scored on the key
domain: the engine returns each query's values per group of its
``GroupIndex``, and every split row is matched to its group once per
(split, index), so a feature vector is one scatter and one gather, with no
result table and no key matching per candidate.  The returned *loss* is
minimised by the search:

* binary classification  -> ``1 - AUC``
* multi-class            -> ``1 - macro F1``
* regression             -> ``RMSE``
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.dataframe.table import Table
from repro.ml.base import BaseEstimator, is_classifier
from repro.ml.metrics import f1_score_macro, rmse, roc_auc_score
from repro.ml.preprocessing import LabelEncoder, TableVectorizer, mean_impute
from repro.query.engine import GroupIndex, QueryEngine, resolve_engine
from repro.query.query import PredicateAwareQuery


@dataclass
class EvaluationResult:
    """Loss (minimised by the search) and the paper's reported metric."""

    loss: float
    metric: float
    metric_name: str


class ModelEvaluator:
    """Train/evaluate the downstream model with extra candidate features."""

    def __init__(
        self,
        train_table: Table,
        valid_table: Table,
        label: str,
        base_features: Sequence[str],
        model: BaseEstimator,
        task: str,
        relevant_table: Table | None = None,
        engine: QueryEngine | None = None,
    ):
        if task not in ("binary", "multiclass", "regression"):
            raise ValueError(f"Unknown task {task!r}")
        self.task = task
        self.label = label
        self.model = model
        if relevant_table is None and engine is not None:
            relevant_table = engine.table
        self.relevant_table = relevant_table
        self._engine = engine
        self._train_table = train_table
        self._valid_table = valid_table
        # (split position, keys) -> (index, each split row's group code):
        # rebuilt whenever the engine hands out another index for the keys
        # (a flush after an append, another relevant table).
        self._row_groups: Dict[Tuple[int, Tuple[str, ...]], Tuple[GroupIndex, np.ndarray]] = {}
        self.base_features = [f for f in base_features if f != label]

        self._vectorizer = TableVectorizer(self.base_features)
        if self.base_features:
            self._X_train_base = self._vectorizer.fit_transform(train_table)
            self._X_valid_base = self._vectorizer.transform(valid_table)
        else:
            self._X_train_base = np.zeros((train_table.num_rows, 0))
            self._X_valid_base = np.zeros((valid_table.num_rows, 0))

        self._label_encoder: LabelEncoder | None = None
        self.y_train = self._encode_label(train_table, fit=True)
        self.y_valid = self._encode_label(valid_table, fit=False)

    # ------------------------------------------------------------------
    # Label handling
    # ------------------------------------------------------------------
    def _encode_label(self, table: Table, fit: bool) -> np.ndarray:
        column = table.column(self.label)
        if column.is_numeric_like:
            return column.values.astype(np.float64)
        if fit:
            self._label_encoder = LabelEncoder().fit(column.values)
        return self._label_encoder.transform(column.values)

    # ------------------------------------------------------------------
    # Feature materialisation
    # ------------------------------------------------------------------
    def _resolve_engine(
        self, relevant_table: Table | None, engine: QueryEngine | None
    ) -> QueryEngine:
        """The query engine to execute against, shared per relevant table.

        Engines are keyed by table identity, so evaluating against a held-out
        relevant table never reuses masks or indexes computed on another one.
        """
        relevant = relevant_table if relevant_table is not None else self.relevant_table
        if relevant is None:
            if engine is not None:
                return engine
            raise ValueError("No relevant table available to execute the query against")
        if engine is None and self._engine is not None and self._engine.table is relevant:
            return self._engine
        return resolve_engine(relevant, engine)

    def feature_vectors_for_queries(
        self,
        queries: Sequence[PredicateAwareQuery],
        relevant_table: Table | None = None,
        engine: QueryEngine | None = None,
        valid: bool = True,
    ):
        """Each query's feature on the train and validation splits.

        One engine pass (:meth:`QueryEngine.plan_results`) returns each
        query's values per group of its plan's ``GroupIndex``; a split's
        vector is those values gathered through the split rows' group codes
        (:meth:`_split_row_groups`), NaN where a row's key matches no group
        or its group has no value -- bit for bit the column
        ``augment_training_table`` would join onto the split.  With
        ``valid=False`` the validation split is skipped and ``None`` stands
        for its vectors: the proxy search scores on the train split alone.
        """
        resolved = self._resolve_engine(relevant_table, engine)
        results = resolved.plan_results([resolved.plan(query) for query in queries])
        splits = (self._train_table, self._valid_table) if valid else (self._train_table,)
        vectors: List[List[np.ndarray]] = [[] for _ in splits]
        for result in results:
            codes = [
                self._split_row_groups(position, split, result.index)
                for position, split in enumerate(splits)
            ]
            for split_vectors, vector in zip(vectors, result.gather(codes)):
                split_vectors.append(vector)
        return vectors[0], (vectors[1] if valid else None)

    def _split_row_groups(self, position: int, split: Table, index: GroupIndex) -> np.ndarray:
        """The group code in *index* of each row of *split* (``n_groups``
        for no group), matched once per (split, index)."""
        key = (position, index.keys)
        cached = self._row_groups.get(key)
        if cached is None or cached[0] is not index:
            cached = self._row_groups[key] = (index, index.row_groups(split))
        return cached[1]

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def evaluate_matrix(self, extra_train: np.ndarray | None, extra_valid: np.ndarray | None) -> EvaluationResult:
        """Train the model on base features plus the given extra columns."""
        return self.evaluate_matrices([extra_train], [extra_valid])[0]

    def evaluate_matrices(
        self,
        extra_trains: Sequence[np.ndarray | None],
        extra_valids: Sequence[np.ndarray | None],
    ) -> List[EvaluationResult]:
        """:meth:`evaluate_matrix` of each pair of extra columns, the models
        trained by one ``fit_batch`` call (logistic regression fits them in
        lockstep)."""
        pairs = [
            mean_impute(
                self._stack(self._X_train_base, extra_train),
                self._stack(self._X_valid_base, extra_valid),
            )
            for extra_train, extra_valid in zip(extra_trains, extra_valids)
        ]
        models = self.model.fit_batch([X_train for X_train, _ in pairs], self.y_train)
        return [self._score(model, X_valid) for model, (_, X_valid) in zip(models, pairs)]

    def evaluate_queries(
        self,
        queries: Sequence[PredicateAwareQuery],
        relevant_table: Table | None = None,
        engine: QueryEngine | None = None,
    ) -> EvaluationResult:
        """Evaluate the model with every query's feature added at once."""
        extra_train_cols, extra_valid_cols = self.feature_vectors_for_queries(
            list(queries), relevant_table, engine=engine
        )
        extra_train = np.column_stack(extra_train_cols) if extra_train_cols else None
        extra_valid = np.column_stack(extra_valid_cols) if extra_valid_cols else None
        return self.evaluate_matrix(extra_train, extra_valid)

    def evaluate_baseline(self) -> EvaluationResult:
        """Evaluate the model on the base features alone (no augmentation)."""
        return self.evaluate_matrix(None, None)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _stack(base: np.ndarray, extra: np.ndarray | None) -> np.ndarray:
        if extra is None:
            return base.copy()
        extra = np.asarray(extra, dtype=np.float64)
        if extra.ndim == 1:
            extra = extra.reshape(-1, 1)
        return np.hstack([base, extra])

    def _score(self, model: BaseEstimator, X_valid: np.ndarray) -> EvaluationResult:
        if self.task == "regression":
            pred = model.predict(X_valid)
            value = rmse(self.y_valid, pred)
            return EvaluationResult(loss=value, metric=value, metric_name="rmse")
        if self.task == "binary":
            if hasattr(model, "predict_proba"):
                proba = model.predict_proba(X_valid)
                positive = proba[:, -1] if proba.ndim == 2 else proba
            else:  # pragma: no cover - every classifier has predict_proba
                positive = model.predict(X_valid)
            auc = roc_auc_score(self.y_valid, positive)
            return EvaluationResult(loss=1.0 - auc, metric=auc, metric_name="auc")
        pred = model.predict(X_valid)
        f1 = f1_score_macro(self.y_valid, pred)
        return EvaluationResult(loss=1.0 - f1, metric=f1, metric_name="f1")
