"""Codes, entropies and MI equal the dict- and ``np.unique``-based reference.

``_reference_stats`` keeps the implementation the bincount / searchsorted
code replaced.  Every code array must be identical and every entropy and MI
value the same float, including for the proxy that codes its label once.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

import _reference_stats as reference
from repro.core.proxies import MutualInformationProxy
from repro.stats.entropy import discretize, shannon_entropy
from repro.stats.mutual_information import (
    conditional_entropy,
    label_groups,
    mutual_information,
    mutual_information_given,
)

_FEW = [math.nan, 0.0, -0.0, 1.0, -2.5, 3.0, 1e6]
_EXTREME = [-math.inf, math.inf, -1e300, 1e300, -1e-300, 1e-300]
_many = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def features(draw, n):
    kind = draw(st.sampled_from(["few", "many", "constant", "mixed", "extreme", "tails"]))
    if kind == "few":
        values = draw(st.lists(st.sampled_from(_FEW), min_size=n, max_size=n))
    elif kind == "many":
        values = draw(st.lists(_many, min_size=n, max_size=n))
    elif kind == "constant":
        values = [draw(st.sampled_from(_FEW + _EXTREME))] * n
    elif kind == "mixed":
        values = draw(st.lists(st.one_of(st.sampled_from(_FEW), _many), min_size=n, max_size=n))
    elif kind == "tails":
        # About a quarter of the values at each infinity: some inner quantile
        # then falls between a finite value and an infinite one.
        values = draw(st.lists(st.one_of(_many, st.sampled_from(_EXTREME[:2])), min_size=n, max_size=n))
    else:
        values = draw(st.lists(st.one_of(st.sampled_from(_FEW + _EXTREME), _many), min_size=n, max_size=n))
    return np.asarray(values, dtype=np.float64)


def quiet(function, *args):
    """A reference call: ``np.quantile`` warns where an infinity meets
    ``inf - inf``, which the program computes without a warning."""
    with np.errstate(invalid="ignore"):
        return function(*args)


@st.composite
def labels(draw, n):
    kind = draw(st.sampled_from(["int", "float", "object"]))
    if kind == "int":
        return np.asarray(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), dtype=np.int64)
    if kind == "float":
        return draw(features(n))
    members = st.sampled_from(["yes", "no", "maybe", None, 7])
    return np.asarray(draw(st.lists(members, min_size=n, max_size=n)), dtype=object)


@st.composite
def feature_label_pairs(draw):
    # Up to 400 rows: the quantile path then meets lerp weights of 0.5 and
    # above next to infinities.
    n = draw(st.one_of(st.integers(0, 60), st.integers(61, 400)))
    return draw(features(n)), draw(labels(n))


class TestSameCodesAndFloats:
    @given(pair=feature_label_pairs(), n_bins=st.sampled_from([2, 4, 10]))
    @settings(max_examples=300, deadline=None)
    def test_discretize_and_entropies(self, pair, n_bins):
        feature, label = pair
        codes = discretize(feature, n_bins)
        assert codes.dtype == np.int64
        assert codes.tobytes() == quiet(reference.discretize, feature, n_bins).tobytes()
        assert repr(shannon_entropy(codes)) == repr(reference.shannon_entropy(codes))
        y_codes = quiet(reference._as_codes, label, n_bins)
        assert repr(conditional_entropy(codes, y_codes)) == repr(
            reference.conditional_entropy(codes, y_codes)
        )

    @given(pair=feature_label_pairs(), n_bins=st.sampled_from([2, 4, 10]))
    @settings(max_examples=300, deadline=None)
    def test_mutual_information(self, pair, n_bins):
        feature, label = pair
        expected = repr(quiet(reference.mutual_information, feature, label, n_bins))
        assert repr(mutual_information(feature, label, n_bins)) == expected
        groups = label_groups(label, n_bins)
        assert repr(mutual_information_given(feature, groups, n_bins)) == expected

    @given(
        label=st.integers(0, 60).flatmap(labels),
        seeds=st.lists(st.integers(0, 2**16), min_size=1, max_size=5),
    )
    @settings(max_examples=100, deadline=None)
    def test_proxy_codes_its_label_once(self, label, seeds):
        proxy = MutualInformationProxy()
        for seed in seeds:
            rng = np.random.default_rng(seed)
            feature = np.where(rng.random(label.shape[0]) < 0.2, np.nan, rng.normal(size=label.shape[0]))
            assert repr(proxy.score(feature, label, "binary")) == repr(
                quiet(reference.mutual_information, feature, label)
            )
        assert proxy._label is label

    def test_proxy_recodes_a_new_label(self):
        proxy = MutualInformationProxy()
        feature = np.asarray([0.0, 1.0, 0.0, 1.0] * 5)
        aligned = np.asarray([0, 1, 0, 1] * 5)
        unrelated = np.asarray([0, 0, 1, 1] * 5)
        assert proxy.score(feature, aligned, "binary") == reference.mutual_information(feature, aligned)
        assert proxy.score(feature, unrelated, "binary") == reference.mutual_information(
            feature, unrelated
        )
        assert proxy._label is unrelated
