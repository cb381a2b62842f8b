"""Penalization solver and verification harness for constrained BSDEs with jumps.

One-dimensional backward SDEs driven by a Brownian motion and a finite-mark
compensated Poisson measure, constrained through a time-indexed family of
maximal monotone operators.  The constraint is enforced by Lipschitz
penalization (resolvent-line intersections of the operator graph); solvers run
on an exact scenario tree or a least-squares Monte Carlo ensemble, and the
verification layer turns the structural properties of the construction
(uniqueness, comparison, constraint satisfaction, Skorokhod-type negativity,
truncation-concatenation gluing) into executable checks.
"""

__version__ = "0.1.0"

from .bsde import (CEBackend, DriverSpec, ForwardState, ResidualReport,
                   SolutionGrid, TerminalSpec, residual_check, solve_bsde)
from .errors import (BudgetExceeded, ContractionFailure, DomainViolation,
                     HypothesisViolated, InvalidSelection, MbsdejError,
                     MonotonicityBreach, NoBracket, ParseError,
                     SegmentMismatch, UnknownName, ValidationError)
from .monotone import (GrowthEnvelope, MonotoneFamily, PenalizedOperator,
                       ValidationReport, resolvent_ordinate, truncate_shift,
                       validate_assumptions)
from .penalization import (ConcatenationRecord, PenalizationReport,
                           PenalizationSchedule, Problem, default_levels,
                           solve_mbsde, solve_penalized, solve_unbounded,
                           stopping_times)
from .scenario import (MarkSpace, MartingaleReport, PathEnsemble, ScenarioTree,
                       TimeGrid, build_tree, martingale_check, simulate_paths)
from .verification import (CheckResult, GraphSelection, PropertyReport,
                           bounds_monitor, check_comparison, check_constraint,
                           check_skorokhod, check_uniqueness,
                           corollary1_ordering_stat, lemma1_pairing_stat,
                           lipschitz_remark_check, oracle_compare)

__all__ = [name for name in dir() if not name.startswith("_")]
