"""Per-user mutable state of the Trusted Server.

Everything the Section 6.1 strategy remembers about one user lives in
one :class:`UserSession` value: the LBQID monitor states with their
cached anonymity sets, the post-unlinking quiet deadline, and the
pseudonym lifecycle.  :class:`InMemorySessionStore` owns all sessions
of one engine and issues its pseudonyms.

The strategy reads and writes only the requester's own session, so
user state partitions cleanly.  Sharded serving relies on this: each
shard of a :class:`~repro.serve.shard.ShardRouter` runs its own engine
whose store issues pseudonyms under the shard's ``p<i>.`` prefix, which
keeps them globally unique ("pseudonyms are not shared by different
individuals", Section 5.2) without cross-shard coordination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.core.matching import LBQIDMonitor
from repro.core.pseudonyms import PseudonymManager


@dataclass
class LBQIDState:
    """Per-(user, LBQID) tracking state."""

    monitor: LBQIDMonitor
    #: Anonymity set selected at the first generalized request
    #: (PER_LBQID scope); None until selected or after a reset.
    anonymity_ids: tuple[int, ...] | None = None
    #: Number of requests generalized for this LBQID since the last
    #: reset; drives the k' schedule.
    steps: int = 0

    def reset(self) -> None:
        """Forget all progress (the Section 6.1 unlinking reset)."""
        self.monitor.reset()
        self.anonymity_ids = None
        self.steps = 0


@dataclass
class UserSession:
    """All mutable Trusted-Server state of one user."""

    user_id: int
    #: One tracking state per registered LBQID, in registration order.
    lbqids: list[LBQIDState] = field(default_factory=list)
    #: End of the post-unlinking service-silence window; ``None`` when
    #: no quiet period is pending (an expired deadline may linger — the
    #: gate compares against the request time).
    quiet_until: float | None = None

    def reset_patterns(self) -> None:
        """Reset every LBQID state after a successful unlinking."""
        for state in self.lbqids:
            state.reset()


class InMemorySessionStore:
    """One engine's sessions: one dict, one pseudonym issuer.

    Sessions (and pseudonyms) are created on first access.  Pseudonyms
    come from a single :class:`PseudonymManager` with the prefix
    ``pseudonym_prefix`` (``"p"`` by default, ``"p<i>."`` on shard
    ``i`` of a sharded server).
    """

    def __init__(self, pseudonym_prefix: str = "p") -> None:
        self._sessions: dict[int, UserSession] = {}
        self.pseudonym_manager = PseudonymManager(prefix=pseudonym_prefix)

    def __len__(self) -> int:
        return len(self._sessions)

    def session(self, user_id: int) -> UserSession:
        """The user's session, created empty on first access."""
        session = self._sessions.get(user_id)
        if session is None:
            session = self._sessions[user_id] = UserSession(user_id)
        return session

    def get(self, user_id: int) -> UserSession | None:
        """The user's session, or ``None`` if never seen."""
        return self._sessions.get(user_id)

    def users(self) -> Iterator[int]:
        """All user ids with a session, in first-seen order."""
        return iter(self._sessions)

    def pseudonym(self, user_id: int) -> str:
        """The user's active pseudonym, issued on first use."""
        return self.pseudonym_manager.current(user_id)

    def rotate_pseudonym(self, user_id: int) -> str:
        """Replace the user's pseudonym (the unlinking action)."""
        return self.pseudonym_manager.rotate(user_id)

    def pseudonym_owner(self, pseudonym: str) -> int | None:
        """Ground-truth owner of a pseudonym (TS/evaluation side)."""
        return self.pseudonym_manager.owner_of(pseudonym)

    def pseudonyms_of(self, user_id: int) -> list[str]:
        """All pseudonyms ever issued to a user, in issue order."""
        return self.pseudonym_manager.pseudonyms_of(user_id)

    @property
    def pseudonyms_issued(self) -> int:
        """Total pseudonyms issued across all users."""
        return self.pseudonym_manager.issued_count
