"""Meta-learned under-sampling for imbalanced binary classification.

A small reinforcement-learned policy picks, member by member, which slice of
the majority class the next ensemble member trains on: states are error
histograms, actions Gaussian sampling centers, rewards changes in validation
AUCPRC. Everything, learners and networks included, runs on numpy alone.

The package exports what a user calls and the errors a user catches;
internals are imported from their modules, as ``metasampler.neural``.
"""
from .dataset import (
    LabeledDataset,
    SplitSpec,
    ToySpec,
    inject_flip_noise,
    load_csv,
    make_toy,
    save_csv,
    stratified_split,
)
from .ensemble import train_ensemble, train_random_ensemble
from .errors import (
    ClassTooSmallError,
    ColumnNotFoundError,
    ConfigError,
    DataError,
    EmptyDataError,
    FeatureParseError,
    LabelDomainError,
    NumericalError,
    SamplerFormatError,
    SingleClassError,
)
from .learners import DecisionTree, GaussianNaiveBayes
from .metrics import aucprc
from .sac import (
    PolicyActionSource,
    SacConfig,
    load_sampler,
    meta_train,
    random_sampler,
    save_sampler,
    score_arms,
)

__version__ = "0.1.0"

__all__ = [
    "ClassTooSmallError",
    "ColumnNotFoundError",
    "ConfigError",
    "DataError",
    "DecisionTree",
    "EmptyDataError",
    "FeatureParseError",
    "GaussianNaiveBayes",
    "LabelDomainError",
    "LabeledDataset",
    "NumericalError",
    "PolicyActionSource",
    "SacConfig",
    "SamplerFormatError",
    "SingleClassError",
    "SplitSpec",
    "ToySpec",
    "aucprc",
    "inject_flip_noise",
    "load_csv",
    "load_sampler",
    "make_toy",
    "meta_train",
    "random_sampler",
    "save_csv",
    "save_sampler",
    "score_arms",
    "stratified_split",
    "train_ensemble",
    "train_random_ensemble",
]
