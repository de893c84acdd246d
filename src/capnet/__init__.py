"""Set-function regression with per-instance value decompositions.

The package splits into an autodiff engine, exact integer oracles, dataset
generation, the network families, a deterministic trainer, and measurement
routines; `capnet.cli` drives all of it from JSON configs.
"""

__version__ = "0.1.0"

from .autodiff import Adam, ParamStore, Tensor
from .data import Dataset, DatasetSpec, Split, generate_dataset, load_dataset, save_dataset
from .evaluate import (evaluate_mse, intermediate_mae, permutation_sensitivity,
                       pseudo_report, rounded_accuracy)
from .models import ModelSpec, batch_forward, init_model
from .oracle import TaskSpec, decompose, eval_task, sample_pair_set, triangular
from .train import RunConfig, batch_loss, multi_seed, train_run

__all__ = [
    "Adam", "Dataset", "DatasetSpec", "ModelSpec", "ParamStore", "RunConfig", "Split",
    "TaskSpec", "Tensor", "batch_forward", "batch_loss", "decompose", "eval_task",
    "evaluate_mse", "generate_dataset", "init_model", "intermediate_mae", "load_dataset",
    "multi_seed", "permutation_sensitivity", "pseudo_report", "rounded_accuracy",
    "sample_pair_set", "save_dataset", "train_run", "triangular",
]
