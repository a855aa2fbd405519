"""Piecewise-linear regression over disjoint convex areas."""

from .calf import CalfModel, PldcSpec, overlapping_training_points, pldc_to_calf
from .dataset import Dataset, GroundTruth, generate_separable, load_csv, write_csv
from .exceptions import (
    BudgetExhaustedError,
    CalrError,
    ConvergenceError,
    CsvFormatError,
    DimensionMismatchError,
    FitDiagnostic,
    InputError,
    PlacementError,
    SchemaError,
    SeparabilityError,
)
from .fitting import FitConfig, cas2, cas_calr, default_budget, naive_calr, post
from .geometry import (
    ConvexArea,
    HalfSpace,
    cac,
    cacs,
    gslp,
    point_in_hull,
    svm_soft,
    tol_geo,
)
from .linreg import (
    LinearModel,
    coefficient_distance,
    lr,
    mse,
    regularized_incomplete_beta,
)
from .mip import MipInstance, build_mip, default_tau, export_mip, load_mip
from .model_io import load_model, load_truth, save_model, save_truth

__version__ = "0.1.0"

__all__ = [
    "BudgetExhaustedError",
    "CalfModel",
    "CalrError",
    "ConvergenceError",
    "ConvexArea",
    "CsvFormatError",
    "Dataset",
    "DimensionMismatchError",
    "FitConfig",
    "FitDiagnostic",
    "GroundTruth",
    "HalfSpace",
    "InputError",
    "LinearModel",
    "MipInstance",
    "PlacementError",
    "PldcSpec",
    "SchemaError",
    "SeparabilityError",
    "build_mip",
    "cac",
    "cacs",
    "cas2",
    "cas_calr",
    "coefficient_distance",
    "default_budget",
    "default_tau",
    "export_mip",
    "generate_separable",
    "gslp",
    "load_csv",
    "load_mip",
    "load_model",
    "load_truth",
    "lr",
    "mse",
    "naive_calr",
    "overlapping_training_points",
    "pldc_to_calf",
    "point_in_hull",
    "post",
    "regularized_incomplete_beta",
    "save_model",
    "save_truth",
    "svm_soft",
    "tol_geo",
    "write_csv",
]
