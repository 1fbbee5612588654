"""Access control: principals, roles, repository ACLs.

The paper bakes security into the architecture: *"if a user is not
authorized to access a data repository, the system presents to the user
only a synopsis of the desired information including a list of contact
persons with whom the user could communicate."*  The controller
therefore answers two distinct questions: may the user see a
repository's *documents*, and may they see the *synopsis* (extracted,
regularized information) — the second is almost always yes, which is
EIL's advantage over document search under access control (Section 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Sequence, Set, Tuple

from repro.errors import AccessDeniedError
from repro.obs import CounterHandle

__all__ = ["User", "AccessController", "ANONYMOUS"]

_DOCUMENT_CHECKS = CounterHandle("access.document_checks")
_DOCUMENT_DENIALS = CounterHandle("access.document_denials")
_DOCUMENTS_REDACTED = CounterHandle("access.documents_redacted")
_SYNOPSIS_DENIALS = CounterHandle("access.synopsis_denials")


@dataclass(frozen=True)
class User:
    """A principal.

    Attributes:
        user_id: Login identifier.
        roles: Role names ("sales", "delivery", "admin", ...).
    """

    user_id: str
    roles: FrozenSet[str] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "roles", frozenset(self.roles))

    def has_role(self, role: str) -> bool:
        """True when the user holds ``role``."""
        return role in self.roles


ANONYMOUS = User("anonymous")


class AccessController:
    """Repository-level document ACLs with synopsis fallback.

    Policy model:

    * Every authenticated user may read synopses (the extracted business
      context) — matching the paper's design where the synopsis with
      contact list is the fallback view.
    * Document access is per repository: a restricted repository is
      readable by the users and roles granted it; any other follows
      ``default_open``.
    * ``admin`` role bypasses all checks.
    """

    def __init__(self, default_open: bool = True) -> None:
        # With no registered ACL a repository follows ``default_open``,
        # which mirrors the paper's experimental setup ("assume there
        # are no access controls on the documents").
        self.default_open = default_open
        self._allowed_users: Dict[str, Set[str]] = {}
        self._allowed_roles: Dict[str, Set[str]] = {}
        self._restricted: Set[str] = set()
        # Bumped on every policy mutation; query caches embed it in
        # their keys so ACL changes invalidate cached results.
        self.policy_version = 0

    # -- policy management -----------------------------------------------

    def restrict(self, repository: str) -> None:
        """Mark a repository as restricted (explicit grants required)."""
        self._restricted.add(repository)
        self.policy_version += 1

    def grant_user(self, repository: str, user_id: str) -> None:
        """Allow one user to read a repository's documents."""
        self._restricted.add(repository)
        self._allowed_users.setdefault(repository, set()).add(user_id)
        self.policy_version += 1

    def grant_role(self, repository: str, role: str) -> None:
        """Allow a role to read a repository's documents."""
        self._restricted.add(repository)
        self._allowed_roles.setdefault(repository, set()).add(role)
        self.policy_version += 1

    def revoke_user(self, repository: str, user_id: str) -> None:
        """Remove a user grant."""
        self._allowed_users.get(repository, set()).discard(user_id)
        self.policy_version += 1

    # -- checks --------------------------------------------------------------

    def can_read_documents(self, user: User, repository: str) -> bool:
        """May ``user`` read the repository's raw documents?"""
        allowed = self._can_read_documents(user, repository)
        _DOCUMENT_CHECKS.inc()
        if not allowed:
            _DOCUMENT_DENIALS.inc()
        return allowed

    def _can_read_documents(self, user: User, repository: str) -> bool:
        if user.has_role("admin"):
            return True
        if repository in self._restricted:
            if user.user_id in self._allowed_users.get(repository, ()):
                return True
            granted_roles = self._allowed_roles.get(repository, set())
            return bool(granted_roles & user.roles)
        return self.default_open

    def presentable_documents(
        self, user: User, repository: str, hits: Sequence
    ) -> Tuple[tuple, bool]:
        """Step 19's redaction decision: ``(visible_hits, withheld)``.

        The paper's fallback — and the template the fault layer's
        ``degraded="no-index"`` rung mirrors — is *synopsis + contact
        list* whenever documents cannot be shown: here because the user
        lacks repository access, there because the index is down.  The
        caller renders contacts either way; this method only decides
        document visibility and records the redaction metric.  The
        visible hits are a tuple (``hits`` itself when it is one), so an
        answer built from them cannot be changed afterwards.
        """
        may_read = self.can_read_documents(user, repository)
        if may_read:
            return tuple(hits), False
        if hits:
            _DOCUMENTS_REDACTED.inc(len(hits))
        return (), bool(hits)

    def can_read_synopsis(self, user: User) -> bool:
        """May ``user`` read extracted synopses?  Anonymous may not."""
        return user.user_id != ANONYMOUS.user_id

    def require_synopsis_access(self, user: User) -> None:
        """Raise AccessDeniedError when synopses are off-limits."""
        if not self.can_read_synopsis(user):
            _SYNOPSIS_DENIALS.inc()
            raise AccessDeniedError(
                f"user {user.user_id!r} may not read synopses"
            )
