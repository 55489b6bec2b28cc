"""repro — Fault-Tolerant Consensus in Unknown and Anonymous Networks.

A faithful, executable reproduction of Delporte-Gallet, Fauconnier &
Tielmann (ICDCS 2009): the extended GIRAF round framework, the MS / ES /
ESS partially synchronous environments, the two anonymous consensus
algorithms (Algorithms 2 and 3, built on the novel pseudo leader
election), the weak-set shared data structure with its MS equivalence
(Algorithms 4 and 5), and the Σ failure-detector impossibility
(Proposition 4) — plus mechanized checkers, baselines, and an
experiment harness.  See README.md for a tour and ARCHITECTURE.md for
how the layers fit together.
"""

from repro.core import (
    ConsensusAlgorithm,
    ESConsensus,
    ESSConsensus,
    PseudoLeaderElector,
    assert_consensus,
    check_consensus,
)
from repro.giraf import (
    CrashSchedule,
    DriftingScheduler,
    EventualSynchronyEnvironment,
    EventuallyStableSourceEnvironment,
    GirafAlgorithm,
    LockStepScheduler,
    MovingSourceEnvironment,
    RunTrace,
    check_es,
    check_ess,
    check_ms,
)
from repro.runtime import RuntimeKernel, TraceSink
from repro.sim import (
    run_churn_workload,
    run_consensus,
    run_es_consensus,
    run_ess_consensus,
)
from repro.values import BOTTOM, Bottom
from repro.weakset import MSWeakSetCluster, ShardedWeakSetCluster, TransportBackend

__version__ = "1.0.0"

__all__ = [
    "BOTTOM",
    "Bottom",
    "ConsensusAlgorithm",
    "CrashSchedule",
    "DriftingScheduler",
    "ESConsensus",
    "ESSConsensus",
    "EventualSynchronyEnvironment",
    "EventuallyStableSourceEnvironment",
    "GirafAlgorithm",
    "LockStepScheduler",
    "MSWeakSetCluster",
    "MovingSourceEnvironment",
    "PseudoLeaderElector",
    "RunTrace",
    "RuntimeKernel",
    "ShardedWeakSetCluster",
    "TraceSink",
    "TransportBackend",
    "assert_consensus",
    "check_consensus",
    "check_es",
    "check_ess",
    "check_ms",
    "run_churn_workload",
    "run_consensus",
    "run_es_consensus",
    "run_ess_consensus",
    "__version__",
]
