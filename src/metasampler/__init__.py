"""Meta-learned under-sampling for imbalanced binary classification.

A small reinforcement-learned policy picks, member by member, which slice of
the majority class the next ensemble member should train on. States are
error histograms, actions are Gaussian sampling centers, rewards are changes
in validation AUCPRC. Everything runs on numpy; base learners, metrics, the
networks, and the actor-critic training loop are all in this package.
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
from .ensemble import (
    EnsembleModel,
    EnsembleStep,
    train_ensemble,
    train_random_ensemble,
)
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
from .metrics import aucprc, classification_errors
from .neural import (
    AdamState,
    Mlp,
    adam_step,
    init_mlp,
    mlp_backward,
    mlp_forward,
    mlp_from_document,
    mlp_input_grad,
    mlp_to_document,
    soft_update,
)
from .sac import (
    MetaSampler,
    PolicyActionSource,
    ReplayMemory,
    SacConfig,
    deterministic_action,
    load_sampler,
    meta_train,
    random_sampler,
    sample_action,
    save_sampler,
    score_arms,
)
from .sampling import (
    error_histogram,
    gaussian_weight,
    meta_sample,
    meta_state,
    random_balanced_subset,
)

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "ClassTooSmallError",
    "ColumnNotFoundError",
    "ConfigError",
    "DataError",
    "DecisionTree",
    "EmptyDataError",
    "EnsembleModel",
    "EnsembleStep",
    "FeatureParseError",
    "GaussianNaiveBayes",
    "LabelDomainError",
    "LabeledDataset",
    "MetaSampler",
    "Mlp",
    "NumericalError",
    "PolicyActionSource",
    "ReplayMemory",
    "SacConfig",
    "SamplerFormatError",
    "SingleClassError",
    "SplitSpec",
    "ToySpec",
    "adam_step",
    "aucprc",
    "classification_errors",
    "deterministic_action",
    "error_histogram",
    "gaussian_weight",
    "init_mlp",
    "inject_flip_noise",
    "load_csv",
    "load_sampler",
    "make_toy",
    "meta_sample",
    "meta_state",
    "meta_train",
    "mlp_backward",
    "mlp_forward",
    "mlp_from_document",
    "mlp_input_grad",
    "mlp_to_document",
    "random_balanced_subset",
    "random_sampler",
    "sample_action",
    "save_csv",
    "save_sampler",
    "score_arms",
    "soft_update",
    "stratified_split",
    "train_ensemble",
    "train_random_ensemble",
]
