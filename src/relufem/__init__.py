"""relufem: compile finite element functions on convex polytope meshes into
exact-size two-hidden-layer ReLU networks (and tensor FE functions into
tensor networks), with numerical verification of every construction."""

from .errors import (CompileError, ConditioningWarning, DocumentError,
                     MeshError, ReluFemError, VerifyError)
from .mesh import (ConvexCell, DirectedHyperplaneRegistry, PolytopeMesh,
                   ValidationReport, build_registry, freudenthal_mesh,
                   min_inradius, shrink_cell, validate_mesh)
from .sampling import (sample_cells, sample_exterior, sample_mesh,
                       sample_shrunk_domain)
from .pwl import (EvalResult, PiecewiseLinear, eval_pwl, nodal_linear,
                  sup_norm)
from .networks import (ReluNet2, TensorNet, deserialize, fnn_forward,
                       serialize, tnn_forward)
from .compiler import (Bumps, compile_bumps, compile_compact_support,
                       compile_weak_representation, merge_duplicate_neurons)
from .tensorfe import (CPFactors, TensorFE, TensorMesh, compile_1d_hat,
                       compile_tnn, cp_decompose, eval_tensor_fe,
                       matricization_rank_bound)
from .verify import (ConvergenceTable, CountCheck, WeakRepReport,
                     check_counts, check_weak_representation,
                     convergence_experiment, estimate_lp_error,
                     estimate_lp_error_with_stderr)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
