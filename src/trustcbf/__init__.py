"""Trust-adaptive control barrier function safety filters and a multi-agent simulator."""

from .world import (AgentKind, AgentState, Model, MotionEstimate, WorldSnapshot,
                    estimate_motion, bootstrap_estimate)
from .dynamics import Box, DEFAULT_BOX, euler_step, nominal_trajectory, track_reference
from .solvers import Infeasible, QPProblem, solve_lp, solve_qp
from .barriers import BarrierEval, cbf_row, clf_value, eval_barrier, lookahead_point
from .trust import PairRecord, TrustParams, combine_trust, update_alpha
from .controller import AgentConfig, ControlDecision, Fallback, agent_step, clf_qp_reference
from .sim import AgentSpec, Scenario, Trace, ValidationError, metrics, run

__version__ = "0.1.0"
