"""Weak-sets (Section 5): spec, implementations, and equivalences.

* :mod:`~repro.weakset.spec` — the data structure's specification and
  history checker;
* :mod:`~repro.weakset.ms_weakset` — Algorithm 4 (weak-set in MS);
* :mod:`~repro.weakset.cluster` — synchronous facade over Algorithm 4;
* :mod:`~repro.weakset.sharding` — value-partitioned scale-out across
  K shard clusters behind the same handle API, with runtime membership
  (join/leave + consistent-hash rebalance);
* :mod:`~repro.weakset.ring` — the consistent-hash membership ring
  (keyed-hash placement, minimal movement);
* :mod:`~repro.weakset.ms_emulation` — Algorithm 5 (MS from weak-set);
* :mod:`~repro.weakset.register_adapter` — Proposition 1 (regular
  register from weak-set);
* :mod:`~repro.weakset.from_registers` — Propositions 2–3 (weak-set
  from registers in known networks);
* :mod:`~repro.weakset.flp_chain` — the executable FLP chain:
  registers → weak-set → MS emulation (Section 5.3);
* :mod:`~repro.weakset.ideal` — atomic reference implementation.
"""

from repro.weakset.cluster import MSWeakSetCluster, WeakSetHandle
from repro.weakset.faults import (
    Fault,
    FaultPlan,
    FaultyTransport,
    parse_fault_plan,
)
from repro.weakset.flp_chain import RegisterBackedMSEmulation
from repro.weakset.from_registers import FiniteUniverseWeakSet, KnownParticipantsWeakSet
from repro.weakset.ideal import IdealWeakSet, uniform_completion_delay
from repro.weakset.ms_emulation import EmulationResult, MSEmulation
from repro.weakset.ms_weakset import (
    MSWeakSetAlgorithm,
    OpScript,
    WeakSetRunResult,
    run_ms_weakset,
)
from repro.weakset.protocol import MigrateReply, MigrateRequest
from repro.weakset.register_adapter import RegisterEntry, WeakSetRegister
from repro.weakset.ring import HashRing, ring_for_shards
from repro.weakset.sharding import (
    InProcBackend,
    MultiprocessBackend,
    RebalanceStats,
    SerialBackend,
    ShardBackend,
    ShardServer,
    ShardedWeakSetCluster,
    ShardedWeakSetHandle,
    SocketBackend,
    TransportBackend,
    run_socket_worker,
    shard_of,
    spawn_socket_workers,
)
from repro.weakset.spec import (
    AddRecord,
    GetRecord,
    OpLog,
    WeakSet,
    WeakSetReport,
    check_weakset,
)
from repro.weakset.supervisor import (
    RetryPolicy,
    ShardRecoveryStats,
    ShardSupervisor,
)

__all__ = [
    "AddRecord",
    "EmulationResult",
    "Fault",
    "FaultPlan",
    "FaultyTransport",
    "FiniteUniverseWeakSet",
    "GetRecord",
    "HashRing",
    "IdealWeakSet",
    "InProcBackend",
    "KnownParticipantsWeakSet",
    "MSEmulation",
    "MigrateReply",
    "MigrateRequest",
    "MSWeakSetAlgorithm",
    "MSWeakSetCluster",
    "MultiprocessBackend",
    "OpLog",
    "OpScript",
    "RebalanceStats",
    "RegisterBackedMSEmulation",
    "RegisterEntry",
    "RetryPolicy",
    "SerialBackend",
    "ShardBackend",
    "ShardRecoveryStats",
    "ShardServer",
    "ShardSupervisor",
    "ShardedWeakSetCluster",
    "ShardedWeakSetHandle",
    "SocketBackend",
    "TransportBackend",
    "WeakSet",
    "WeakSetHandle",
    "WeakSetReport",
    "WeakSetRegister",
    "WeakSetRunResult",
    "check_weakset",
    "parse_fault_plan",
    "ring_for_shards",
    "run_ms_weakset",
    "run_socket_worker",
    "shard_of",
    "spawn_socket_workers",
    "uniform_completion_delay",
]
