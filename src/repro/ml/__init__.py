"""Machine-learning substrate.

Replaces the scikit-learn / XGBoost / DeepFM stack used by the original
FeatAug implementation with pure-numpy estimators exposing the familiar
``fit`` / ``predict`` / ``predict_proba`` interface, plus preprocessing and
the metrics reported in the paper (AUC, macro F1, RMSE).
"""

from repro.ml.base import BaseEstimator, is_classifier
from repro.ml.metrics import (
    accuracy_score,
    f1_score_macro,
    log_loss,
    rmse,
    roc_auc_score,
)
from repro.ml.preprocessing import (
    LabelEncoder,
    OneHotEncoder,
    SimpleImputer,
    TableVectorizer,
    train_valid_test_split,
)
from repro.ml.linear import LinearRegression, LogisticRegression, RidgeRegression
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor
from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.gbdt import GradientBoostingClassifier, GradientBoostingRegressor
from repro.ml.deepfm import DeepFMClassifier
from repro.ml.model_zoo import make_model, MODEL_NAMES

__all__ = [
    "BaseEstimator",
    "is_classifier",
    "accuracy_score",
    "f1_score_macro",
    "log_loss",
    "rmse",
    "roc_auc_score",
    "LabelEncoder",
    "OneHotEncoder",
    "SimpleImputer",
    "TableVectorizer",
    "train_valid_test_split",
    "LinearRegression",
    "LogisticRegression",
    "RidgeRegression",
    "DecisionTreeClassifier",
    "DecisionTreeRegressor",
    "RandomForestClassifier",
    "RandomForestRegressor",
    "GradientBoostingClassifier",
    "GradientBoostingRegressor",
    "DeepFMClassifier",
    "make_model",
    "MODEL_NAMES",
]
