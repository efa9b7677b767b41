"""Admission control: bounded queues and per-tenant token-bucket quotas.

Past saturation an unprotected serving tier queues without bound —
latency grows with the backlog and a load spike turns into minutes of
stale work.  The fleet front-end instead **sheds explicitly**: every
submission passes the :class:`AdmissionController`, which rejects a
request (with a machine-readable reason) when

- its target shard already holds ``max_queue`` requests in flight
  (bounded per-shard queues: backlog, and therefore queueing delay, is
  capped), or
- the submitting tenant has exhausted its :class:`TokenBucket` quota
  (one misbehaving tenant cannot starve the rest of the fleet).

A shed request costs a dictionary lookup and an immediate response —
never a worker round-trip — which is what keeps the tier live past
saturation (see ``docs/serving.md`` and ``BENCH_fleet.json``).

Both checks are deterministic in the caller-supplied clock, so the
policies are unit-testable without wall time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import ConfigurationError

#: Shed reasons the controller can return.
SHED_QUEUE = "shed:queue-full"
SHED_QUOTA = "shed:tenant-quota"


class TokenBucket:
    """A standard token bucket: ``rate_rps`` steady state, ``burst`` cap.

    Example:
        >>> bucket = TokenBucket(rate_rps=1.0, burst=2.0)
        >>> bucket.try_take(now_s=0.0), bucket.try_take(now_s=0.0)
        (True, True)
        >>> bucket.try_take(now_s=0.0)      # burst spent
        False
        >>> bucket.try_take(now_s=1.0)      # one second refills one token
        True
    """

    def __init__(self, rate_rps: float, burst: float) -> None:
        if not rate_rps > 0.0:
            raise ConfigurationError(
                f"token rate must be > 0 req/s, got {rate_rps}"
            )
        if not burst >= 1.0:
            raise ConfigurationError(f"burst must be >= 1, got {burst}")
        self.rate_rps = rate_rps
        self.burst = burst
        self._tokens = burst
        self._last_s = 0.0

    def try_take(self, now_s: float) -> bool:
        """Take one token at clock ``now_s`` if the bucket allows it."""
        elapsed = max(0.0, now_s - self._last_s)
        self._tokens = min(self.burst, self._tokens + elapsed * self.rate_rps)
        self._last_s = now_s
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False


@dataclass
class AdmissionStats:
    """Admission accounting of one controller.

    Attributes:
        submitted: admission decisions taken.
        admitted: requests allowed through to a shard.
        shed_queue: rejected because the target shard's bounded queue
            was full.
        shed_quota: rejected because the tenant's token bucket was dry.
    """

    submitted: int = 0
    admitted: int = 0
    shed_queue: int = 0
    shed_quota: int = 0

    @property
    def shed(self) -> int:
        """Total requests shed (all reasons)."""
        return self.shed_queue + self.shed_quota

    @property
    def shed_rate(self) -> float:
        """Fraction of submissions shed."""
        return self.shed / self.submitted if self.submitted else 0.0

    def to_dict(self) -> Dict[str, float]:
        """JSON-serializable form."""
        return {
            "submitted": self.submitted,
            "admitted": self.admitted,
            "shed_queue": self.shed_queue,
            "shed_quota": self.shed_quota,
            "shed_rate": self.shed_rate,
        }


@dataclass
class AdmissionController:
    """The fleet's admission policy: queue bounds + tenant quotas.

    Args:
        max_queue: per-shard in-flight bound; a request targeting a
            shard at the bound is shed with :data:`SHED_QUEUE`.
        tenant_rate_rps: per-tenant steady-state quota (``None``
            disables quotas).
        tenant_burst: per-tenant burst allowance (defaults to one
            second's worth of the rate, at least 1).

    Example:
        >>> controller = AdmissionController(max_queue=2,
        ...                                  tenant_rate_rps=1.0,
        ...                                  tenant_burst=1.0)
        >>> controller.admit(in_flight=0, tenant="a", now_s=0.0)
        >>> controller.admit(in_flight=2, tenant="a", now_s=1.0)
        'shed:queue-full'
        >>> controller.admit(in_flight=0, tenant="a", now_s=1.0)
        >>> controller.admit(in_flight=0, tenant="a", now_s=1.0)
        'shed:tenant-quota'
        >>> controller.stats.to_dict()["shed_queue"]
        1
    """

    max_queue: int = 256
    tenant_rate_rps: Optional[float] = None
    tenant_burst: Optional[float] = None
    stats: AdmissionStats = field(default_factory=AdmissionStats)

    def __post_init__(self) -> None:
        if self.max_queue < 1:
            raise ConfigurationError(
                f"max_queue must be >= 1, got {self.max_queue}"
            )
        if self.tenant_burst is None and self.tenant_rate_rps is not None:
            self.tenant_burst = max(1.0, self.tenant_rate_rps)
        self._buckets: Dict[Optional[str], TokenBucket] = {}

    def admit(
        self,
        in_flight: int,
        tenant: Optional[str] = None,
        now_s: float = 0.0,
    ) -> Optional[str]:
        """One admission decision: ``None`` to admit, else a shed reason.

        ``in_flight`` is the target shard's current backlog (queued +
        executing); ``now_s`` is the caller's monotonic clock, which
        drives the quota refill.  The controller holds no lock of its
        own: concurrent callers serialize around it (the fleet decides
        under the same lock that reads the backlog and queues the
        request).
        """
        self.stats.submitted += 1
        if in_flight >= self.max_queue:
            self.stats.shed_queue += 1
            return SHED_QUEUE
        if self.tenant_rate_rps is not None:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                bucket = self._buckets[tenant] = TokenBucket(
                    self.tenant_rate_rps, self.tenant_burst
                )
            if not bucket.try_take(now_s):
                self.stats.shed_quota += 1
                return SHED_QUOTA
        self.stats.admitted += 1
        return None
