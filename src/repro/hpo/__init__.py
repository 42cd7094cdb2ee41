"""Hyperparameter-optimisation substrate.

FeatAug maps predicate-aware SQL queries into hyperparameter vectors (Section
V.A) and searches the resulting space with TPE (Tree-structured Parzen
Estimator).  This subpackage replaces the Hyperopt dependency used by the
authors with an implementation of the published algorithm: per-dimension
Parzen (kernel density) estimators for the "good" and "bad" trial groups and
candidate selection by the density ratio l(x)/g(x).
"""

from repro.hpo.space import CategoricalDimension, RealDimension, IntegerDimension, SearchSpace
from repro.hpo.trial import Trial, TrialHistory
from repro.hpo.optimizer import Optimizer
from repro.hpo.random_search import RandomSearchOptimizer
from repro.hpo.kde import CategoricalDensity, GaussianKDE
from repro.hpo.tpe import TPEOptimizer

__all__ = [
    "CategoricalDimension",
    "RealDimension",
    "IntegerDimension",
    "SearchSpace",
    "Trial",
    "TrialHistory",
    "Optimizer",
    "RandomSearchOptimizer",
    "CategoricalDensity",
    "GaussianKDE",
    "TPEOptimizer",
]
