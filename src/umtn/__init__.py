"""Meshfree spatiotemporal forecasting with learned RBF spatial operators.

The package spans the full pipeline: radial kernels and their differential
operators, RBF interpolation with condition guards, linear-PDE collocation
stepping, synthetic convection-diffusion data, a reverse-mode autodiff
engine, the multilevel spatial-transformation forecaster with its recurrent
fusion head, training with scheduled sampling, MAE evaluation, and binary
dataset/checkpoint persistence behind a CLI.
"""

from .errors import (
    ConditioningError,
    ConfigError,
    DataError,
    DivergenceError,
    NumericalError,
    UmtnError,
)
from .kernels import KernelFamily, LinearOperatorSpec, RadialKernel
from .interpolation import (
    InterpolationSystem,
    SiteSet,
    build_phi,
    loocv_select_kernel,
    scaled_inverse,
)
from .collocation import CollocationStepper, operator_matrix, solve_ivp
from .datagen import ConvDiffConfig, SequenceDataset, generate_dataset
from .autodiff import ParameterStore, Tensor, adam_step, backward, no_grad
from .model import (
    DrcConfig,
    DrcModel,
    ModelConfig,
    SiteGeometry,
    UmtnModel,
    lstb_forward,
    nab_forward,
    rfn_step,
)
from .training import TrainConfig, scheduled_sampling_prob, train_loop
from .evaluation import EvalReport, evaluate_model, mae, persistence_baseline
from .storage import ingest_csv, load_checkpoint, load_dataset, save_checkpoint, save_dataset

__version__ = "0.1.0"

__all__ = [
    "UmtnError",
    "ConfigError",
    "DataError",
    "NumericalError",
    "ConditioningError",
    "DivergenceError",
    "KernelFamily",
    "RadialKernel",
    "LinearOperatorSpec",
    "SiteSet",
    "InterpolationSystem",
    "build_phi",
    "scaled_inverse",
    "loocv_select_kernel",
    "CollocationStepper",
    "operator_matrix",
    "solve_ivp",
    "ConvDiffConfig",
    "SequenceDataset",
    "generate_dataset",
    "Tensor",
    "ParameterStore",
    "no_grad",
    "backward",
    "adam_step",
    "ModelConfig",
    "SiteGeometry",
    "UmtnModel",
    "DrcConfig",
    "DrcModel",
    "lstb_forward",
    "nab_forward",
    "rfn_step",
    "TrainConfig",
    "train_loop",
    "scheduled_sampling_prob",
    "EvalReport",
    "mae",
    "evaluate_model",
    "persistence_baseline",
    "save_dataset",
    "load_dataset",
    "save_checkpoint",
    "load_checkpoint",
    "ingest_csv",
    "__version__",
]
