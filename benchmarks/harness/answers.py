"""Turning an :class:`~benchmarks.harness.workloads.Op` into a call, and
checking what the call returned.

An answer is wrong when the call raised, when a form came back degraded,
when the expectation seeded into the operation does not hold, or when it
differs from the answer the same operation gave in the warm-up pass.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.metaqueries import GraphQuery
from repro.core.query_analyzer import FormQuery
from repro.graph.model import person_key
from repro.security.access import User

from benchmarks.harness.workloads import LIMIT, Op

__all__ = ["USER", "WrongAnswer", "bind", "digest", "check",
           "graph_disagreements"]

USER = User("bench", frozenset({"sales"}))


class WrongAnswer(Exception):
    """One operation's answer failed a check."""


def bind(op: Op, server, system) -> Callable[[], object]:
    """The call ``op`` stands for.

    Attributes are looked up at call time, so the tracing wrappers apply
    to calls bound before they were installed.
    """
    fields = dict(op.payload)
    if op.target == "search":
        form = FormQuery(**fields)
        return lambda: server.search(form, USER, limit=LIMIT)
    if op.target == "keyword":
        text = fields["query"]
        return lambda: server.keyword_search(text, LIMIT)
    if op.target == "graph":
        query = GraphQuery(fields["kind"], fields["subject"], LIMIT)
        return lambda: server.graph_query(query)
    if op.target == "synopsis":
        deal_id = fields["deal_id"]
        return lambda: system.synopsis(deal_id, USER)
    sql = fields["sql"]
    params = [fields[name] for name in sorted(fields) if name != "sql"]
    return lambda: system.organized.db.execute(sql, params)


def digest(op: Op, answer: object) -> Tuple[tuple, tuple]:
    """(what the expectation is checked against, what else must repeat).

    Raises:
        WrongAnswer: The call raised, or the form came back degraded.
    """
    if isinstance(answer, BaseException):
        raise WrongAnswer(f"{op.kind} raised {answer!r}")
    if op.target == "search":
        if answer.degraded is not None:
            raise WrongAnswer(f"{op.kind} degraded: {answer.degraded}")
        return tuple(answer.deal_ids), (answer.scoped,)
    if op.target == "keyword":
        return tuple(hit.doc_id for hit in answer), ()
    if op.target == "synopsis":
        return (answer.deal_id,), (answer.name, tuple(answer.towers),
                                   len(answer.contacts()))
    if op.target == "sql":
        return tuple(answer.rows), ()
    kind = dict(op.payload)["kind"]
    if kind == "worked-with":
        return tuple(answer.deals), tuple(c.key for c in answer.colleagues)
    if kind == "team-overlap":
        return tuple(c.key for c in answer.colleagues), ()
    return (tuple(p.key for p in answer.people),
            tuple(tuple(p.deals) for p in answer.people))


def check(op: Op, answer: object,
          reference: Optional[Tuple[tuple, tuple]]) -> Tuple[tuple, tuple]:
    """The answer's digest, once every check on it has passed."""
    found = digest(op, answer)
    if op.expect == "*":
        if not found[0]:
            raise WrongAnswer(f"{op.kind} {op.payload} came back empty")
    elif (op.expect and op.expect not in found[0]
          and len(found[0]) < LIMIT):  # a full answer may have cut it
        raise WrongAnswer(
            f"{op.kind} {op.payload} lacks {op.expect}: {found[0]}"
        )
    if reference is not None and found != reference:
        raise WrongAnswer(f"{op.kind} {op.payload} changed between passes")
    return found


def graph_disagreements(system, ops: Sequence[Op], sample: int) -> List[str]:
    """Graph answers that differ from a recomputation over the flat
    contact rows, for the first ``sample`` worked-with and role-capacity
    operations of ``ops``."""
    member_deals: Dict[str, Set[str]] = {}
    role_deals: Dict[str, Dict[str, Set[str]]] = {}
    for deal_id in system.graph.deal_ids():
        for row in system.organized.contacts_of(deal_id):
            key = person_key(str(row["name"] or ""), str(row["email"] or ""))
            if key is None:
                continue
            member_deals.setdefault(key, set()).add(deal_id)
            role = str(row["role"] or "").lower()
            if role:
                role_deals.setdefault(role, {}).setdefault(
                    key, set()
                ).add(deal_id)
    problems: List[str] = []
    seen = {"worked-with": 0, "role-capacity": 0}
    for op in ops:
        fields = dict(op.payload)
        kind = fields.get("kind")
        if kind not in seen or seen[kind] >= sample:
            continue
        seen[kind] += 1
        subject = fields["subject"]
        if kind == "worked-with":
            answer = system.graph.worked_with(subject, LIMIT)
            expected: Set[str] = set()
            for key in answer.persons:
                expected |= member_deals.get(key, set())
            if answer.deals != sorted(expected):
                problems.append(f"worked-with {subject!r}")
            continue
        answer = system.graph.role_capacity(subject, LIMIT)
        holders = role_deals.get(answer.role.lower(), {})
        if len(answer.people) != min(LIMIT, len(holders)) or any(
            person.deals != sorted(holders.get(person.key, ()))
            for person in answer.people
        ):
            problems.append(f"role-capacity {subject!r}")
    return problems
