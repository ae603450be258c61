"""Inference for multi-level noisy-OR belief networks.

Exact enumeration on small networks, and a depth-first search that
enumerates every complete instantiation whose joint probability clears a
threshold, estimating posteriors from the accumulated mass.
"""

from .model import (
    Assignment,
    NetParseError,
    Network,
    NetworkError,
    NodeSpec,
    Tally,
    check_threshold,
    node_factor,
    noisy_or_absent,
    parse_evidence,
    parse_network,
    print_network,
    prune_barren,
    validate_evidence,
)
from .oracle import (
    DEFAULT_FREE_NODE_CAP,
    ExactResult,
    FreeNodeCapError,
    ImpossibleEvidenceError,
    enumerate_consistent,
    exact_inference,
    instantiations_above,
)
from .epsilonml import (
    Extension,
    NoFindingsError,
)
from .engine import (
    DEFAULT_SCHEDULE,
    EpsilonSchedule,
    SearchResult,
    format_accepted,
    top_epsilon,
)
from .netgen import (
    Case,
    NetShape,
    SplitMix64,
    bn3_shape,
    derive_seed,
    forward_sample,
    gen_network,
    make_case,
)

__version__ = "0.1.0"
