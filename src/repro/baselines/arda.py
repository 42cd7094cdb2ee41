"""ARDA: automatic relational data augmentation (Chepurko et al., VLDB 2020).

The paper compares against ARDA on datasets whose relevant table can be
joined one-to-one with the training table (Covtype, Household).  ARDA's core
idea reproduced here is *random-injection feature selection*: after joining
every candidate column onto the training table, random noise columns are
injected, a tree-ensemble is trained, and only real features whose importance
beats a quantile of the noise importances are kept.  This is repeated for a
few rounds and the stable winners are returned.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.ml._splitter import sorted_quantiles
from repro.ml.forest import RandomForestClassifier, RandomForestRegressor


class ARDA:
    """Random-injection feature selection over a candidate feature matrix."""

    def __init__(
        self,
        n_rounds: int = 3,
        noise_multiplier: float = 0.5,
        quantile: float = 0.75,
        n_estimators: int = 10,
        seed: int = 0,
    ):
        self.n_rounds = n_rounds
        self.noise_multiplier = noise_multiplier
        self.quantile = quantile
        self.n_estimators = n_estimators
        self.seed = seed

    def select(
        self,
        X: np.ndarray,
        y: np.ndarray,
        names: Sequence[str],
        k: int,
        task: str = "binary",
    ) -> List[str]:
        """Return up to *k* feature names surviving the random-injection test."""
        X = np.asarray(X, dtype=np.float64)
        X = np.nan_to_num(X, nan=0.0)
        names = list(names)
        rng = np.random.default_rng(self.seed)
        votes = np.zeros(X.shape[1], dtype=np.float64)
        importance_sum = np.zeros(X.shape[1], dtype=np.float64)

        for round_index in range(self.n_rounds):
            n_noise = max(1, int(self.noise_multiplier * X.shape[1]))
            noise = rng.normal(size=(X.shape[0], n_noise))
            design = np.hstack([X, noise])
            if task == "regression":
                model = RandomForestRegressor(
                    n_estimators=self.n_estimators, max_depth=5, random_state=self.seed + round_index
                )
            else:
                model = RandomForestClassifier(
                    n_estimators=self.n_estimators, max_depth=5, random_state=self.seed + round_index
                )
            model.fit(design, y)
            importances = model.feature_importances_
            real, fake = importances[: X.shape[1]], importances[X.shape[1] :]
            threshold = sorted_quantiles(np.sort(fake), self.quantile) if fake.size else 0.0
            votes += (real > threshold).astype(np.float64)
            importance_sum += real

        # Rank by votes, breaking ties by accumulated importance.
        order = np.lexsort((-importance_sum, -votes))
        survivors = [i for i in order if votes[i] > 0]
        chosen = survivors[:k] if survivors else list(order[:k])
        return [names[i] for i in chosen]
