"""The paper's core contribution: anonymous fault-tolerant consensus.

* :class:`~repro.core.es_consensus.ESConsensus` — Algorithm 2
  (consensus under eventual synchrony, Theorem 1);
* :class:`~repro.core.ess_consensus.ESSConsensus` — Algorithm 3
  (consensus under an eventually stable source, Theorem 2);
* :class:`~repro.core.pseudo_leader.PseudoLeaderElector` — the novel
  pseudo leader election primitive, reusable on its own;
* history / counter machinery and the consensus trace checkers.
"""

from repro.core.checkers import ConsensusReport, assert_consensus, check_consensus
from repro.core.counters import (
    FrozenCounters,
    apply_round_update,
    pointwise_min,
    prefix_max,
)
from repro.core.es_consensus import ESConsensus
from repro.core.ess_consensus import ESSConsensus, EssMessage
from repro.core.history import (
    History,
    HistoryNode,
    clear_intern_cache,
    common_prefix_length,
    diverged,
    extend,
    initial_history,
    intern_cache_size,
    intern_history,
    interning_disabled,
    interning_enabled,
    is_prefix,
    is_proper_prefix,
    longest,
    set_interning,
)
from repro.core.interfaces import ConsensusAlgorithm
from repro.core.pseudo_leader import (
    HeartbeatMessage,
    HeartbeatPseudoLeader,
    PseudoLeaderElector,
)

__all__ = [
    "ConsensusAlgorithm",
    "ConsensusReport",
    "ESConsensus",
    "ESSConsensus",
    "EssMessage",
    "FrozenCounters",
    "HeartbeatMessage",
    "HeartbeatPseudoLeader",
    "History",
    "HistoryNode",
    "PseudoLeaderElector",
    "apply_round_update",
    "assert_consensus",
    "check_consensus",
    "clear_intern_cache",
    "common_prefix_length",
    "diverged",
    "extend",
    "initial_history",
    "intern_cache_size",
    "intern_history",
    "interning_disabled",
    "interning_enabled",
    "is_prefix",
    "is_proper_prefix",
    "longest",
    "set_interning",
    "pointwise_min",
    "prefix_max",
]
