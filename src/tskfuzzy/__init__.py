"""Mini-batch gradient descent training for TSK fuzzy regression systems.

The library covers the full pipeline: a grid-partition TSK model with
shared Gaussian MFs, its regularized loss and analytic gradients with
drop-aware masking, plain/adaptive/bounded-adaptive optimizer steps,
DropRule/DropMF/DropMembership mask sampling, dataset preprocessing, a
training loop with per-iteration metrics, a closed-form ridge baseline,
and a repeated-experiment runner.
"""

from .data import (
    Dataset,
    Preprocessor,
    apply_preprocessor,
    fit_preprocessor,
    load_csv,
    make_synthetic,
    sample_batch,
    split,
)
from .loss import finite_diff_grad, gradients, loss
from .masks import DropMask, sample_masks
from .model import (
    SIGMA_MIN,
    RuleGrid,
    TskModel,
    firing_levels,
    flatten,
    init_model,
    init_model_from_data,
    load_model,
    param_count,
    predict,
    rule_outputs,
    save_model,
    unflatten,
)
from .optim import (
    JangLrState,
    MomentState,
    adabound_step,
    bound_l,
    bound_u,
    jang_update_lr,
    sgd_step,
)
from .ridge import LinearModel, ridge_fit, ridge_predict
from .trainer import (
    RidgeConfig,
    TrainConfig,
    TrainHistory,
    percent_improvement,
    rmse,
    run_suite,
    train,
    write_history_csv,
)

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "DropMask",
    "JangLrState",
    "LinearModel",
    "MomentState",
    "Preprocessor",
    "RidgeConfig",
    "RuleGrid",
    "SIGMA_MIN",
    "TrainConfig",
    "TrainHistory",
    "TskModel",
    "adabound_step",
    "apply_preprocessor",
    "bound_l",
    "bound_u",
    "finite_diff_grad",
    "firing_levels",
    "fit_preprocessor",
    "flatten",
    "gradients",
    "init_model",
    "init_model_from_data",
    "jang_update_lr",
    "load_csv",
    "load_model",
    "loss",
    "make_synthetic",
    "param_count",
    "percent_improvement",
    "predict",
    "ridge_fit",
    "ridge_predict",
    "rmse",
    "rule_outputs",
    "run_suite",
    "sample_batch",
    "sample_masks",
    "save_model",
    "sgd_step",
    "split",
    "train",
    "unflatten",
    "write_history_csv",
]
