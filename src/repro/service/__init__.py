"""Multi-tenant checkpoint ingest service.

The service layer turns the single-writer checkpoint stack into a
long-running front-end many applications stream checkpoints into
concurrently: per-tenant namespaces and quotas, consistent-hash sharding
over backend stores, a working burst-buffer absorb/drain stage, and
batched group commits that amortize durability barriers across tenants.
Since the replication PR it is also the resilience layer: N-way
replicated placement with failover reads and read-repair, per-shard
circuit breakers, degraded-write debt, and crash-safe live migration
for draining and rebalancing shards.  See DESIGN.md sections 11 and 14.
"""

from .health import ShardHealth
from .ingest import CheckpointIngestService
from .sharded import ShardedStore
from .tenants import TenantRegistry, TenantSpec
from .wire import ServiceClient, ServiceServer

__all__ = [
    "ShardHealth",
    "CheckpointIngestService",
    "ShardedStore",
    "TenantRegistry",
    "TenantSpec",
    "ServiceClient",
    "ServiceServer",
]
