"""Dataset substrate: synthetic UCI stand-ins, preprocessing, registry."""

from .base import DataSplit, Dataset, train_test_split, train_val_test_split
from .preprocessing import (
    MinMaxScaler,
    PreparedData,
    StandardScaler,
    one_hot,
    prepare_split,
    quantize_inputs,
)
from .registry import (
    PAPER_DATASETS,
    ClassifierSpec,
    available_datasets,
    get_classifier_spec,
    load_dataset,
    normalize_name,
    register_dataset,
    resolve_dataset_names,
)
from .synthetic import GaussianClassSpec, SyntheticSpec, generate_gaussian_mixture
from .uci import (
    load_pendigits,
    load_redwine,
    load_seeds,
    load_whitewine,
)

__all__ = [
    "ClassifierSpec",
    "DataSplit",
    "Dataset",
    "GaussianClassSpec",
    "MinMaxScaler",
    "PAPER_DATASETS",
    "PreparedData",
    "StandardScaler",
    "SyntheticSpec",
    "available_datasets",
    "generate_gaussian_mixture",
    "get_classifier_spec",
    "load_dataset",
    "load_pendigits",
    "load_redwine",
    "load_seeds",
    "load_whitewine",
    "normalize_name",
    "one_hot",
    "prepare_split",
    "quantize_inputs",
    "register_dataset",
    "resolve_dataset_names",
    "train_test_split",
    "train_val_test_split",
]
