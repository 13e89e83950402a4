"""Multi-hypothesis state-lattice planning and benchmarking."""

from .costmap import (
    CostMap,
    GenerationError,
    HypothesisStack,
    MapFormatError,
    diff_cells,
    gen_case1,
    gen_case2,
    gen_clutter,
    load_costmap,
    load_stack,
    save_costmap,
    save_stack,
)
from .histories import HistoryError, average_edge_cost
from .lattice import (
    EdgeEvaluation,
    MotionPrimitive,
    Pose,
    PrimitiveLibrary,
    Trajectory,
    default_library,
    evaluate_edge,
    successors,
)
from .harness import (
    ResultRecord,
    Scenario,
    ScenarioError,
    StackSource,
    builtin_scenario,
    load_scenario,
    plan_divergence,
    read_records,
    run_scenario,
    run_suite,
    save_scenario,
    summarize,
    write_records,
)
from .oracle import OracleResult, OracleSizeError, dijkstra_reference, veh_reference
from .planners import (
    PlannerMode,
    graph_revision,
    plan,
    reroute,
)
from .render import emit_overlay, svg_overlay
from .search_core import (
    AnytimeConfig,
    AnytimeSearch,
    PlanResult,
    PlanningInputError,
    SearchProblem,
    SearchTrace,
    VirtualClock,
    WallClock,
    extract_solution,
    heuristic,
)

__version__ = "0.1.0"
