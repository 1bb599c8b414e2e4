"""The admission gate ahead of every sequencer: auth + rate limits.

The paper's guarantee hangs on the user ↔ Trusted Server channel being
trusted, so the serving frontend must decide *who may speak at all*
before any frame can reach an engine.  :class:`ConnectionGate` is that
decision, factored out of the transports so TCP, TLS, and HTTP all
enforce the identical policy:

* **bearer-token auth** — the ``hello`` frame carries ``token``; a
  missing or unknown token earns a typed ``bad_token``
  :class:`~repro.serve.protocol.ErrorReply` and the connection never
  produces a session the sequencer could see.  Comparison is
  constant-time (:func:`hmac.compare_digest`) per configured token;
* **connection cap** — at most ``max_connections`` gated connections
  concurrently (``connection_limit``), bounding the per-socket state a
  client fleet can pin;
* **per-client token-bucket rate limits** — each principal (the
  presented token, falling back to the client name when auth is off)
  owns one :class:`TokenBucket`; an over-rate operation earns
  ``rate_limited`` with a ``retry_after`` hint sufficient by
  construction (it is exactly the time until the bucket holds one
  token again).

Every verdict is counted in the ``gate.*`` metrics family —
``gate.rejected{reason=...}``, ``gate.admitted``, ``gate.connections``
— and mirrored in plain ints so the counters work with telemetry off.
Rejections are answered at the transport, *before*
:meth:`TrustedServer.submit`, so an unauthenticated or over-rate client
never touches an engine, a queue slot, or a session budget.

The gate is deliberately transport-fact-free: it sees decoded
:class:`~repro.serve.protocol.Hello` frames and opaque principals, so
the same instance can sit in front of any :class:`TrustedServer` (a
shard router or a worker supervisor included), over any transport.
Each supervised worker serves behind one that admits only its
supervisor's per-boot token (:mod:`repro.serve.supervisor`).
"""

from __future__ import annotations

import hmac
import time
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.obs.config import Telemetry
from repro.serve.protocol import ErrorReply, Hello


@dataclass(frozen=True)
class GateConfig:
    """Admission policy of one :class:`ConnectionGate`.

    Every knob defaults to "off" so a gate-less deployment (loopback,
    tests, trusted lab networks) stays byte-identical to the ungated
    seed behavior.
    """

    #: Accepted bearer tokens; ``None`` disables authentication
    #: entirely (an empty tuple rejects every connection).
    tokens: "tuple[str, ...] | None" = None
    #: Sustained operations/second allowed per principal; ``None``
    #: disables rate limiting.
    rate_limit: "float | None" = None
    #: Bucket capacity (burst allowance); defaults to one second of
    #: ``rate_limit`` and never sits below 1 op.
    burst: "float | None" = None
    #: Concurrent gated connections allowed; ``None`` = unlimited.
    max_connections: "int | None" = None
    #: Bound of the principal → bucket table (drop-oldest beyond it).
    max_principals: int = 4096

    def __post_init__(self) -> None:
        if self.rate_limit is not None and self.rate_limit <= 0:
            raise ValueError(
                f"rate_limit must be positive, got {self.rate_limit}"
            )
        if self.burst is not None and self.burst < 1:
            raise ValueError(f"burst must be >= 1, got {self.burst}")
        if self.max_connections is not None and self.max_connections < 1:
            raise ValueError(
                "max_connections must be >= 1, got "
                f"{self.max_connections}"
            )
        if self.max_principals < 1:
            raise ValueError(
                f"max_principals must be >= 1, got {self.max_principals}"
            )

    @property
    def effective_burst(self) -> float:
        assert self.rate_limit is not None
        if self.burst is not None:
            return self.burst
        return max(1.0, self.rate_limit)


class TokenBucket:
    """A deterministic token bucket (no internal clock).

    Callers pass ``now`` (seconds, any monotonic origin) into
    :meth:`acquire`; the bucket refills lazily at ``rate`` tokens per
    second up to ``capacity``.  An admitted acquire consumes one token
    and returns ``0.0``; a rejected one consumes nothing and returns
    the seconds until the bucket will hold one token — the
    ``retry_after`` hint, sufficient by construction (waiting exactly
    that long always readmits, see the property tests).
    """

    __slots__ = ("rate", "capacity", "tokens", "updated_at")

    def __init__(self, rate: float, capacity: float, now: float) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.rate = rate
        self.capacity = capacity
        self.tokens = capacity
        self.updated_at = now

    def refill(self, now: float) -> float:
        """Advance the bucket to ``now``; returns the token level.

        Time never runs backwards here: a ``now`` before the last
        update leaves the level unchanged (monotonic refill), so
        out-of-order callers cannot drain a bucket by clock skew.
        """
        elapsed = now - self.updated_at
        if elapsed > 0:
            self.tokens = min(
                self.capacity, self.tokens + elapsed * self.rate
            )
            self.updated_at = now
        return self.tokens

    def acquire(self, now: float) -> float:
        """Try to take one token at ``now``; 0.0 or a retry-after.

        The admit threshold carries a one-billionth-token epsilon:
        ``retry_after`` is computed in floats, so a caller returning
        after *exactly* the hint can land an ulp short of 1.0 — the
        tolerance keeps the hint sufficient (the property tests pin
        this) at a rate-accounting error far below measurement noise.
        """
        if self.refill(now) >= 1.0 - 1e-9:
            self.tokens = max(0.0, self.tokens - 1.0)
            return 0.0
        return (1.0 - self.tokens) / self.rate


class GatePass:
    """One admitted connection's ticket through the gate.

    Holds the resolved principal and its bucket, so the per-operation
    check is one attribute hop plus the bucket arithmetic — no dict
    lookups on the hot path.
    """

    __slots__ = ("principal", "bucket", "released")

    def __init__(
        self, principal: str, bucket: "TokenBucket | None"
    ) -> None:
        self.principal = principal
        self.bucket = bucket
        self.released = False


def _reject_constant_time(
    token: "str | None", accepted: "tuple[str, ...]"
) -> bool:
    """True when ``token`` matches none of ``accepted``.

    Every configured token is compared (no early exit) and each
    comparison is :func:`hmac.compare_digest`, so the scan leaks
    neither which token prefix-matched nor how many exist.
    """
    presented = (token or "").encode("utf-8")
    matched = False
    for candidate in accepted:
        matched |= hmac.compare_digest(
            candidate.encode("utf-8"), presented
        )
    return not matched


class ConnectionGate:
    """Admission policy shared by every transport (see module doc)."""

    def __init__(
        self,
        config: GateConfig,
        telemetry: "Telemetry | None" = None,
        clock: "Callable[[], float]" = time.monotonic,
    ) -> None:
        self.config = config
        self.telemetry = telemetry
        self.clock = clock
        self.connections = 0
        #: Plain-int mirrors of the ``gate.*`` counters (telemetry may
        #: be off; the benchmarks and CI probes assert on these too).
        self.admitted_connections = 0
        self.admitted_ops = 0
        self.rejected: dict[str, int] = {}
        #: principal -> bucket, insertion-ordered for drop-oldest.
        self._buckets: dict[str, TokenBucket] = {}

    # -- connection admission -----------------------------------------

    def admit_connection(self, hello: Hello) -> "GatePass | ErrorReply":
        """Judge one ``hello``; a ticket in, a typed rejection out.

        Order matters: a bad token is refused before the connection
        cap is consulted, so an attacker cannot learn fleet occupancy
        without a credential.
        """
        config = self.config
        if config.tokens is not None and _reject_constant_time(
            hello.token, config.tokens
        ):
            return self._reject(
                "bad_token",
                "missing or unknown bearer token",
                reply_id=None,
            )
        if (
            config.max_connections is not None
            and self.connections >= config.max_connections
        ):
            return self._reject(
                "connection_limit",
                f"connection cap of {config.max_connections} reached",
                reply_id=None,
                retry_after=1.0,
            )
        principal = (
            hello.token
            if config.tokens is not None and hello.token is not None
            else hello.client
        )
        self.connections += 1
        self.admitted_connections += 1
        if self.telemetry is not None:
            self.telemetry.count("gate.admitted", kind="connection")
            self.telemetry.gauge("gate.connections", self.connections)
        return GatePass(principal, self._bucket(principal))

    def release(self, ticket: "GatePass | None") -> None:
        """Return one connection slot (idempotent per ticket)."""
        if ticket is None or ticket.released:
            return
        ticket.released = True
        self.connections -= 1
        if self.telemetry is not None:
            self.telemetry.gauge("gate.connections", self.connections)

    # -- per-operation admission --------------------------------------

    def admit_op(
        self, ticket: GatePass, reply_id: "int | None"
    ) -> "ErrorReply | None":
        """Charge one operation to the ticket's bucket.

        ``None`` admits; otherwise the typed ``rate_limited`` reply
        whose ``retry_after`` is exactly the bucket's time-to-one-token.
        """
        bucket = ticket.bucket
        if bucket is None:
            self.admitted_ops += 1
            return None
        retry_after = bucket.acquire(self.clock())
        if retry_after == 0.0:
            self.admitted_ops += 1
            if self.telemetry is not None:
                self.telemetry.count("gate.admitted", kind="op")
            return None
        return self._reject(
            "rate_limited",
            (
                f"rate limit of {bucket.rate:g} ops/s exceeded; "
                f"retry after {retry_after:.3f}s"
            ),
            reply_id=reply_id,
            retry_after=retry_after,
        )

    # -- internals ----------------------------------------------------

    def _bucket(self, principal: str) -> "TokenBucket | None":
        if self.config.rate_limit is None:
            return None
        bucket = self._buckets.get(principal)
        if bucket is None:
            while len(self._buckets) >= self.config.max_principals:
                self._buckets.pop(next(iter(self._buckets)))
            bucket = TokenBucket(
                self.config.rate_limit,
                self.config.effective_burst,
                self.clock(),
            )
            self._buckets[principal] = bucket
            if self.telemetry is not None:
                self.telemetry.gauge(
                    "gate.principals", len(self._buckets)
                )
        return bucket

    def _reject(
        self,
        code: str,
        message: str,
        reply_id: "int | None",
        retry_after: "float | None" = None,
    ) -> ErrorReply:
        self.rejected[code] = self.rejected.get(code, 0) + 1
        if self.telemetry is not None:
            self.telemetry.count("gate.rejected", reason=code)
        return ErrorReply(
            id=reply_id,
            code=code,
            message=message,
            retry_after=retry_after,
        )


def load_tokens(
    tokens: "Iterable[str] | None" = None,
    token_file: "str | None" = None,
) -> "tuple[str, ...] | None":
    """Collect bearer tokens from CLI flags and/or a token file.

    The file holds one token per line; blank lines and ``#`` comments
    are skipped.  Returns ``None`` (auth off) when neither source
    yields a token.
    """
    collected = [token for token in (tokens or []) if token]
    if token_file is not None:
        with open(token_file, "r", encoding="utf-8") as handle:
            for line in handle:
                candidate = line.strip()
                if candidate and not candidate.startswith("#"):
                    collected.append(candidate)
    return tuple(collected) if collected else None
