"""Tree-structured Parzen Estimator (Bergstra et al., NeurIPS 2011).

The algorithm implemented here follows the description in Section V.B of the
FeatAug paper:

1. split observed trials into a "good" group (the best ``gamma`` fraction by
   objective value) and a "bad" group,
2. fit per-dimension densities ``l(x)`` (good) and ``g(x)`` (bad),
3. draw ``n_candidates`` samples from ``l`` and pick the one maximising the
   expected-improvement surrogate ``l(x) / g(x)``.

Before ``n_startup_trials`` observations exist, points are sampled uniformly
at random.  ``warm_start`` lets FeatAug seed the history with trials evaluated
during the warm-up phase (Section V.C), so the first "real" suggestion is
already informed by the proxy task.

``suggest_batch`` proposes several points from one density fit: the good/bad
split and the per-dimension densities are computed at most once per batch,
and every slot replays exactly the RNG consumption of a sequential
``suggest()`` call (density fitting draws nothing from the generator), so a
batch of size one is bit-identical to the sequential trajectory.

Within a slot, all ``n_candidates`` candidates are drawn first (candidate by
candidate, each dimension in ``space.names`` order) and then scored together
with one vectorized ``pdf`` call per density and dimension.  Scoring draws
nothing from the generator, so no draw is reordered: the random stream is the
one a loop that scores each candidate right after drawing it would consume.

Each suggestion does only the work that changed since the last one:

* each categorical dimension's choice -> index map is built once per
  optimiser, and each trial's parameters are encoded once (a categorical
  value as its choice index); densities are fitted from those encodings;
* a group holding the same trials, in the same order, as one of the two
  latest fits reuses its densities.  The good group keeps its trials until
  an observation ranks into it, so its fit is often reused; the bad group
  changes with nearly every observation;
* categorical candidates are drawn and scored as choice indices: one
  ``bisect_right`` into the inverse-CDF list per draw, one pdf-table gather
  per density, no per-value dict lookup.  Only the winner is decoded.

None of this changes a draw or a float: the densities equal a fit from the
raw ``trial.params`` bit for bit (``tests/hpo/test_density_fits.py``).
"""

from __future__ import annotations

import math
import operator
from typing import Dict, List

import numpy as np

from repro.hpo.kde import CategoricalDensity, GaussianKDE, choice_key, choice_index
from repro.hpo.optimizer import Optimizer
from repro.hpo.space import CategoricalDimension, IntegerDimension, RealDimension, SearchSpace
from repro.hpo.trial import Trial

# Floor applied to density values before taking logs in the surrogate score.
# A pdf of exactly zero (e.g. a categorical choice unseen in the bad group
# with smoothing disabled, or a degenerate KDE) would otherwise produce
# ``log(0) = -inf`` and ``-inf - -inf = NaN`` scores that silently discard
# candidates.  The floor is far below the 1e-12 floor the densities themselves
# apply, so it never alters a score produced by a well-behaved density.
_PDF_FLOOR = 1e-32


class TPEOptimizer(Optimizer):
    """Sequential TPE optimiser over a :class:`SearchSpace` (minimisation)."""

    def __init__(
        self,
        space: SearchSpace,
        seed: int | None = None,
        gamma: float = 0.15,
        n_startup_trials: int = 10,
        n_candidates: int = 24,
        min_good: int = 3,
        exploration_probability: float = 0.1,
    ):
        super().__init__(space, seed)
        if not 0 < gamma < 1:
            raise ValueError(f"gamma must be in (0, 1), got {gamma}")
        self.gamma = gamma
        self.n_startup_trials = n_startup_trials
        self.n_candidates = n_candidates
        self.min_good = min_good
        # Fraction of suggestions drawn uniformly from the space even after the
        # surrogate is trained.  This bounds the worst case at random-search
        # behaviour and prevents the occasional premature lock-in of pure TPE.
        self.exploration_probability = exploration_probability
        self._rng = np.random.default_rng(seed)
        # Each categorical dimension's choice -> index map, None for a
        # numeric dimension (its values are their own encoding).
        self._choice_indexes = [
            choice_index(dim.choices) if isinstance(dim, CategoricalDimension) else None
            for dim in space.dimensions
        ]
        # Encoded parameters of each fitted trial, by id; the trial is kept
        # beside its row, so its id cannot be reused while the entry lives.
        self._encoded: Dict[int, tuple] = {}
        # The two latest fits, most recently used first: one good and one
        # bad group, as (trials, densities).
        self._recent_fits: List[tuple] = []

    # ------------------------------------------------------------------
    # Suggestion
    # ------------------------------------------------------------------
    def suggest(self) -> Dict[str, object]:
        return self.suggest_batch(1)[0]

    def suggest_batch(self, n: int) -> List[Dict[str, object]]:
        """Propose *n* candidates from a single density fit.

        The surrogate densities depend only on the (frozen) history, so they
        are fitted lazily the first time a slot needs them and shared by the
        rest of the batch.  Per-slot RNG consumption (startup sampling,
        exploration draw, candidate sampling) is identical to a sequential
        ``suggest()`` call, which makes ``suggest_batch(1)`` bit-identical to
        ``suggest()`` and any batch size deterministic under a fixed seed.
        """
        if n < 1:
            raise ValueError(f"batch size must be >= 1, got {n}")
        densities = None  # fitted at most once per batch; False => unusable split
        batch: List[Dict[str, object]] = []
        for _ in range(n):
            if len(self.history) < self.n_startup_trials:
                batch.append(self.space.sample(self._rng))
                continue
            if (
                self.exploration_probability > 0
                and self._rng.random() < self.exploration_probability
            ):
                batch.append(self.space.sample(self._rng))
                continue
            if densities is None:
                good, bad = self._split_trials()
                if len(good) < self.min_good or not bad:
                    densities = False
                else:
                    densities = (self._fit_densities(good), self._fit_densities(bad))
            if densities is False:
                batch.append(self.space.sample(self._rng))
                continue
            batch.append(self._propose(*densities))
        return batch

    def _propose(self, good_density, bad_density) -> Dict[str, object]:
        """Draw ``n_candidates`` points from ``l``, then keep the best-scoring one.

        All candidates are drawn before any is scored (see the module
        docstring), so the draws happen in candidate-then-dimension order.
        Candidates are encoded: a categorical value is its choice index.
        """
        rng = self._rng
        samplers = [good_density[name].sample for name in self.space.names]
        rows = [[sample(rng) for sample in samplers] for _ in range(self.n_candidates)]
        columns = dict(zip(self.space.names, map(list, zip(*rows))))
        scores = self._surrogate_score(columns, good_density, bad_density)
        scores = np.broadcast_to(scores, (self.n_candidates,)).tolist()
        best, best_score = None, -np.inf
        for i, score in enumerate(scores):
            if score > best_score:  # the first strict maximum wins; NaN never does
                best, best_score = i, score
        if best is None:
            return self.space.sample(rng)
        return {
            dim.name: value if index is None else dim.choices[value]
            for dim, index, value in zip(self.space.dimensions, self._choice_indexes, rows[best])
        }

    def _surrogate_score(self, columns, good_density, bad_density):
        """``sum(log l(x) - log g(x))`` for every candidate at once.

        *columns* maps each dimension name to the candidates' values, in the
        encoding the densities score.  The pdfs of every dimension are
        floored away from zero and logged as one matrix, and the
        per-dimension terms are added in ``space.names`` order, so each
        candidate's score is the same float sum as scoring it on its own.
        """
        pdfs = []
        for name in self.space.names:
            values = columns[name]
            pdfs.append(good_density[name].pdf(values))
            pdfs.append(bad_density[name].pdf(values))
        logs = np.log(np.maximum(np.array(pdfs), _PDF_FLOOR))
        scores = 0.0
        for term in logs[0::2] - logs[1::2]:
            scores = scores + term
        return scores

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _split_trials(self):
        # Failed candidates can report NaN/inf objectives; sorting raw values
        # would land them unpredictably (NaN compares false with everything)
        # and could poison the "good" group, so the split only sees finite
        # trials.
        trials: List[Trial] = [t for t in self.history.trials if math.isfinite(t.value)]
        ordered = sorted(trials, key=lambda t: t.value)
        if not ordered:
            return [], []
        n_good = max(self.min_good, int(np.ceil(self.gamma * len(ordered))))
        n_good = min(n_good, max(len(ordered) - 1, 1))
        return ordered[:n_good], ordered[n_good:]

    def _fit_densities(self, trials: List[Trial]):
        """One density per dimension for the given trial group.

        A group holding the same trials, in the same order, as one of the two
        latest fits reuses its densities: they depend on nothing else.  The
        good group keeps its trials until an observation ranks into it.
        """
        trials = tuple(trials)
        for i, (group, densities) in enumerate(self._recent_fits):
            if len(group) == len(trials) and all(map(operator.is_, group, trials)):
                self._recent_fits.insert(0, self._recent_fits.pop(i))
                return densities
        densities = self._fit_group(trials)
        self._recent_fits = [(trials, densities)] + self._recent_fits[:1]
        return densities

    def _fit_group(self, trials) -> Dict[str, object]:
        """Fit the densities from the trials' encoded parameters."""
        rows = [self._encode(trial) for trial in trials]
        columns = list(zip(*rows)) if rows else [()] * len(self.space)
        densities = {}
        for dim, index, column in zip(self.space.dimensions, self._choice_indexes, columns):
            if index is not None:
                densities[dim.name] = _ChoiceIndexDensity.from_indices(dim.choices, index, column)
            elif isinstance(dim, (RealDimension, IntegerDimension)):
                densities[dim.name] = _NumericDensityAdapter(dim, column)
            else:  # pragma: no cover - defensive
                raise TypeError(f"Unsupported dimension type {type(dim).__name__}")
        return densities

    def _encode(self, trial: Trial) -> tuple:
        """The trial's parameters in space order, each categorical value as
        its choice index (``len(choices)`` when it is not a choice); encoded
        once per trial."""
        entry = self._encoded.get(id(trial))
        if entry is None:
            params = trial.params
            row = tuple(
                params.get(dim.name) if index is None
                else index.get(choice_key(params.get(dim.name)), len(dim.choices))
                for dim, index in zip(self.space.dimensions, self._choice_indexes)
            )
            entry = self._encoded[id(trial)] = (trial, row)
        return entry[1]


class _ChoiceIndexDensity(CategoricalDensity):
    """A categorical density over choice indices: it samples an index and
    scores indices by one pdf-table gather, with no per-value lookup."""

    sample = CategoricalDensity.sample_index
    pdf = CategoricalDensity.pdf_at


class _NumericDensityAdapter:
    """Wrap :class:`GaussianKDE` so integer dimensions round their samples."""

    def __init__(self, dimension, observations):
        self._dimension = dimension
        self._kde = GaussianKDE(dimension.low, dimension.high, observations)
        self._integer = isinstance(dimension, IntegerDimension)

    def pdf(self, values) -> np.ndarray:
        return self._kde.pdf(values)

    def sample(self, rng: np.random.Generator):
        value = self._kde.sample(rng)
        if value is None:
            if self._dimension.optional:
                return None
            value = self._kde.low
        if self._integer:
            # The KDE clips its samples to the float interval [low, high],
            # but rounding sits outside that contract: with non-integral
            # bounds (or any future change to the clipping) int(round(...))
            # can step past the dimension edge and fail space.validate().
            # Clamp so every suggestion stays inside the dimension.
            rounded = int(round(value))
            return int(min(max(rounded, self._dimension.low), self._dimension.high))
        return value
