"""Unit tests for access control."""

import pytest

from repro.errors import AccessDeniedError
from repro.security import ANONYMOUS, AccessController, User


class TestUser:
    def test_roles_frozen(self):
        user = User("u", {"sales"})
        assert user.has_role("sales")
        assert not user.has_role("admin")
        assert isinstance(user.roles, frozenset)


class TestDocumentAccess:
    def test_default_open(self):
        controller = AccessController(default_open=True)
        assert controller.can_read_documents(User("u"), "any-repo")

    def test_default_closed(self):
        controller = AccessController(default_open=False)
        assert not controller.can_read_documents(User("u"), "any-repo")

    def test_restrict_then_grant_user(self):
        controller = AccessController()
        controller.restrict("r1")
        user = User("u")
        assert not controller.can_read_documents(user, "r1")
        controller.grant_user("r1", "u")
        assert controller.can_read_documents(user, "r1")

    def test_grant_role(self):
        controller = AccessController()
        controller.grant_role("r1", "delivery")
        assert controller.can_read_documents(User("u", {"delivery"}), "r1")
        assert not controller.can_read_documents(User("u", {"sales"}), "r1")

    def test_revoke_user(self):
        controller = AccessController()
        controller.grant_user("r1", "u")
        controller.revoke_user("r1", "u")
        assert not controller.can_read_documents(User("u"), "r1")

    def test_admin_bypasses(self):
        controller = AccessController(default_open=False)
        controller.restrict("r1")
        assert controller.can_read_documents(User("root", {"admin"}), "r1")

    def test_readable_repositories_filter(self):
        controller = AccessController(default_open=False)
        controller.grant_user("r1", "u")
        assert {
            repository for repository in ("r1", "r2")
            if controller.can_read_documents(User("u"), repository)
        } == {"r1"}


class TestSynopsisAccess:
    def test_authenticated_users_allowed(self):
        controller = AccessController()
        assert controller.can_read_synopsis(User("u"))

    def test_anonymous_denied(self):
        controller = AccessController()
        assert not controller.can_read_synopsis(ANONYMOUS)
        with pytest.raises(AccessDeniedError):
            controller.require_synopsis_access(ANONYMOUS)
