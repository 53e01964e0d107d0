"""Covariance estimation, FPCA and curve prediction for multivariate
sparse functional data.

The model represents each auto- and cross-covariance surface with a
penalized tensor-product spline; smoothing parameters are selected by an
exact leave-one-subject-out criterion evaluated without refitting. The
fitted operator is eigendecomposed, projected onto the PSD cone, and
used for best linear prediction of subject curves with pointwise bands.
"""

from .config import RunConfig, load_config_file, merge_config
from .covsmooth import AuxBlock, BlockFit, build_aux, fit_auto, fit_cross
from .crossval import GridSelector, SelectionResult, loso_shortcut_error, select_grid
from .dataset import CSV_HEADER, SparseFunctionalDataset
from .errors import DataFormatError, DomainError, FuncovError, SingularSystemError
from .fpca import (
    CovarianceModel,
    EigenSystem,
    assemble_blocks,
    eigendecompose,
    eval_covariance,
    eval_eigenfunction,
    refine,
    select_npc,
    stack_blocks,
    whitened_stack,
)
from .mean import MeanFit, fit_mean
from .model_io import load_model, save_model
from .pipeline import FitResult, FitSettings, fit_covariance_model
from .predict import BatchPrediction, PredictionResult, predict_batch, predict_subject
from .simulate import (
    GroundTruth,
    SimDesign,
    ape,
    coupling_matrix,
    eigenvalue_ratio,
    generate,
    ise,
    mise,
    replicate_metrics,
    rise,
    true_covariance,
    true_eigensystem,
    zero_cross_blocks,
)
from .splines import SplineWorkspace, build_workspace, eval_basis, eval_basis_matrix

__version__ = "0.1.0"

__all__ = [
    "AuxBlock",
    "BatchPrediction",
    "BlockFit",
    "CSV_HEADER",
    "CovarianceModel",
    "DataFormatError",
    "DomainError",
    "EigenSystem",
    "FitResult",
    "FitSettings",
    "FuncovError",
    "GridSelector",
    "GroundTruth",
    "MeanFit",
    "PredictionResult",
    "RunConfig",
    "SelectionResult",
    "SimDesign",
    "SingularSystemError",
    "SparseFunctionalDataset",
    "SplineWorkspace",
    "ape",
    "assemble_blocks",
    "build_aux",
    "build_workspace",
    "coupling_matrix",
    "eigendecompose",
    "eigenvalue_ratio",
    "eval_basis",
    "eval_basis_matrix",
    "eval_covariance",
    "eval_eigenfunction",
    "fit_auto",
    "fit_covariance_model",
    "fit_cross",
    "fit_mean",
    "generate",
    "ise",
    "load_config_file",
    "load_model",
    "loso_shortcut_error",
    "merge_config",
    "mise",
    "predict_batch",
    "predict_subject",
    "refine",
    "replicate_metrics",
    "rise",
    "save_model",
    "select_grid",
    "select_npc",
    "stack_blocks",
    "true_covariance",
    "true_eigensystem",
    "whitened_stack",
    "zero_cross_blocks",
]
