"""convexlab: risk-averting loss criteria for neural-network training.

Convexifies the per-sample training loss through an exponential tilt with
index lam**p, stabilizes it in the log domain, learns lam jointly with the
weights, and measures whether the positive-semidefinite region of the
Hessian grows with lam on desk-scale models.
"""

from .criteria import (
    EXP_CAP,
    CriterionParams,
    LossReport,
    NumericDomainError,
    evaluate_criterion,
    nrae,
    sample_weights,
)
from .convexity import (
    RegionScan,
    fd_hessian,
    scan_convexity,
    scan_problem,
)
from .data import (
    SampleBatch,
    batches,
    fetch_mnist,
    load_idx_images,
    load_idx_labels,
    load_mnist,
    split,
    synthetic_blobs,
    synthetic_regression,
)
from .gradcheck import GradCheckSummary, run_gradcheck
from .network import (
    MlpModel,
    batch_losses,
    deserialize_model,
    forward,
    init_model,
    serialize_model,
    unflatten,
    weighted_backward,
)
from .trainer import (
    LAMBDA_MIN,
    DivergedError,
    EpochRecord,
    NoViableModelError,
    TrainConfig,
    TrainReport,
    anrat_lambda_step,
    detect_stagnancy,
    evaluate,
    grid_configs,
    grid_search,
    scheduled_update,
    sgd_step,
    train,
)

__version__ = "0.1.0"
