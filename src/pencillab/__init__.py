"""pencillab: exact-arithmetic laboratory for matrix pencil invariants,
rank-one perturbation bounds, and row-completion feasibility."""

from .bounds import (BoundReport, Interval, RankRelation, Scenario, check_bounds,
                     completion_bounds, isqrt, perturbation_bounds,
                     two_sided_completion_bounds)
from .builder import (EIGENVALUE_POOL, build_pencil, iter_weyr_chars,
                      random_equivalence, random_rank_one, random_weyr)
from .completion import (Direction, Prescription, Target, check_completion_full,
                         completion_conditions, realize_companion,
                         search_rank_one_witness)
from .extractor import (IrrationalSpectrumError, KroneckerStructure, WeyrChar,
                        kronecker_structure, minimal_indices, partial_multiplicities,
                        smith_invariant_factors, strictly_equivalent, weyr_char,
                        weyr_characteristic)
from .partitions import (Partition, Star, add, conjugate, deficit_construct,
                         deficit_feasible, gap_index, is_1step_majorized,
                         is_conjugate_majorized, partition, star, weight)
from .pencils import (INF, Eigenvalue, Pencil, RankOneDecomposition, RankOneKind,
                      apply_equivalence, classify_rank_one, evaluate, normal_rank,
                      reversal, transpose)
from .rmatrix import Matrix

__version__ = "0.1.0"
