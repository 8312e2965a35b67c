"""natstrat: natural-strategy complexity metrics and model checking for
networks of guarded automata, with a voting-procedure case study."""

from .checker import (
    CheckResult, SynthesisConfig, check_temporal_universal, eval_formula,
    synthesize_strategic, verify_strategic,
)
from .dsl import (
    ParsedBundle, load_bundle, parse_bundle, parse_formula, parse_guard_text,
    parse_network, parse_strategy, print_formula, print_network, print_strategy,
)
from .errors import (
    BoundViolationError, DefinitionError, ExportError, NatStratError,
    ParseError, ResourceLimitError, StrategyError,
)
from .model import AgentTemplate, Edge, GlobalState, Network, VarDecl, explore
from .outcome import StepsResult, outcomes, steps_to_goal
from .strategy import (
    WILDCARD, CollectiveStrategy, NaturalStrategy, Rule, complexity,
    fix_strategy, guard_length, make_mutually_exclusive,
)
from .uppaal import UppaalDocument, export_uppaal

__version__ = "0.1.0"
