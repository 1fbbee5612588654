"""BUSINESS-ACTIVITY DRIVEN SEARCH — the paper's Figure 1 algorithm.

The search runs in two stages.  The *synopsis query* selects relevant
business activities from the structured context; when text criteria are
present, the *SIAPI query* then runs **scoped to those activities**
(steps 5-8), which is EIL's central precision lever: keyword matches in
activities the business context already ruled out never surface.  With
no synopsis hits, the SIAPI query runs unscoped (steps 12-15).  Results
are ranked by the combined relevance (step 18) and filtered through
access control at presentation time (step 19).

Degradation ladder (docs/OPERATIONS.md): the two stages lean on two
independent substrates — the synopsis DB and the SIAPI index — and the
production system the paper describes had to survive either being
down.  Each substrate call runs under a :class:`~repro.faults
.RetryPolicy` inside a :class:`~repro.faults.CircuitBreaker`, and a
persistent outage degrades instead of erroring:

* synopsis store down → the keyword query runs unscoped and the result
  is flagged ``degraded="no-synopsis"`` (business context missing,
  keyword-only relevance);
* index down → synopsis matches are returned with their contact lists
  and no document hits, flagged ``degraded="no-index"`` — the same
  synopsis + contact-list view users without repository access get
  (paper Section 3's access-control fallback);
* both down → a structured :class:`EILUnavailableError` naming both
  failures.

Degraded results are never cached (the :class:`~repro.cache.LruCache`
bypasses values with a ``degraded`` flag), and every rung increments
``query.degraded`` counters so the ladder is visible in ``repro
stats``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.cache import LruCache
from repro.concurrency import AtomicCounter
from repro.core.organized import OrganizedInformation
from repro.core.query_analyzer import FormQuery, SynopsisMatch, SynopsisSearch
from repro.core.ranking import RankCombiner, RankedActivity
from repro.corpus.taxonomy import ServiceTaxonomy
from repro.errors import (
    DatabaseError,
    EILUnavailableError,
    QuerySyntaxError,
    SearchError,
    TransientError,
)
from repro.faults import CircuitBreaker, RetryPolicy
from repro.obs import (
    CounterHandle,
    HistogramHandle,
    get_registry,
    get_tracer,
)
from repro.search.document import SearchHit
from repro.search.siapi import SiapiService
from repro.security.access import AccessController, User

__all__ = [
    "ActivityResult",
    "EilResults",
    "CacheProbe",
    "BusinessActivityDrivenSearch",
    "DEGRADED_NO_SYNOPSIS",
    "DEGRADED_NO_INDEX",
]

_ACTIVITIES_RETURNED = HistogramHandle("query.activities_returned")
_DEGRADED = CounterHandle("query.degraded")
_EMPTY_RESULTS = CounterHandle("query.empty_results")
_EXECUTED = CounterHandle("query.executed")
_PRESENT_CONTACTS_UNAVAILABLE = CounterHandle(
    "query.present_contacts_unavailable"
)
_PRESENT_ROW_UNAVAILABLE = CounterHandle("query.present_row_unavailable")
_SIAPI_SCOPED = CounterHandle("query.siapi_scoped")
_SIAPI_UNAVAILABLE = CounterHandle("query.siapi_unavailable")
_SIAPI_UNSCOPED = CounterHandle("query.siapi_unscoped")
_SYNOPSIS_MATCHES = HistogramHandle("query.synopsis_matches")
_SYNOPSIS_UNAVAILABLE = CounterHandle("query.synopsis_unavailable")
_UNAVAILABLE = CounterHandle("query.unavailable")

#: ``EilResults.degraded`` flag: the synopsis store was unreachable, so
#: the result is keyword-only (no business-context scoping or scores).
DEGRADED_NO_SYNOPSIS = "no-synopsis"

#: ``EilResults.degraded`` flag: the SIAPI index was unreachable, so
#: activities carry synopsis scores and contact lists but no documents.
DEGRADED_NO_INDEX = "no-index"

# Substrate outages worth degrading over.  QuerySyntaxError is the
# user's fault, never the substrate's; it must propagate un-degraded
# and must not trip a breaker.
_SYNOPSIS_OUTAGES = (DatabaseError, TransientError)
_INDEX_OUTAGES = (SearchError, TransientError)


@dataclass(frozen=True)
class ActivityResult:
    """One activity as presented to the user (post access control).

    Immutable, like the :class:`EilResults` holding it: the query cache
    hands the one stored answer to every request that hits it.

    Attributes:
        deal_id: The activity.
        name: Display name from the synopsis.
        score: Combined relevance.
        synopsis_score: Structured-context contribution.
        siapi_score: Keyword contribution.
        reasons: Why the synopsis matched.
        documents: Supporting document hits — empty when the user lacks
            repository access (synopsis-only view), no text query ran,
            or the index was down (``degraded="no-index"``).
        documents_withheld: True when hits existed but access control
            removed them.
        contacts: Contact names for the synopsis + contact-list view;
            populated on the ``no-index`` degradation rung (and mirrors
            what the synopsis tab would show).
    """

    deal_id: str
    name: str
    score: float
    synopsis_score: float
    siapi_score: float
    reasons: Tuple[str, ...] = ()
    documents: Tuple[SearchHit, ...] = ()
    documents_withheld: bool = False
    contacts: Tuple[str, ...] = ()


@dataclass(frozen=True)
class EilResults:
    """The outcome of one business-activity driven search.

    Frozen, with tuple fields, so that no part of an answer can change
    after it is built: the query cache stores this object and every
    hit hands out that same object, uncopied.

    Attributes:
        activities: Ranked activity results.
        scoped: True when the SIAPI query ran scoped to synopsis hits
            (Fig. 1 step 8) rather than unscoped (step 14).
        plan: Trace of the algorithm's branch decisions, for tests and
            the UI's "how this was found" affordance.
        degraded: None for a full-fidelity answer, else the ladder rung
            that produced it (:data:`DEGRADED_NO_SYNOPSIS` or
            :data:`DEGRADED_NO_INDEX`).  Degraded results are never
            cached.
    """

    activities: Tuple[ActivityResult, ...] = ()
    scoped: bool = False
    plan: Tuple[str, ...] = ()
    degraded: Optional[str] = None

    @property
    def deal_ids(self) -> List[str]:
        """Ranked activity ids."""
        return [a.deal_id for a in self.activities]


class CacheProbe(NamedTuple):
    """One request's query-cache lookup: the first half of a search.

    Attributes:
        key: The key the request was looked up under; a miss is stored
            under it once computed.
        cached: The cached answer, or None on a miss.  It is immutable
            and shared: every hit on the key hands out this object.
    """

    key: tuple
    cached: Optional[EilResults]


#: The form's field values in declaration order, read without copying
#: the form (``dataclasses.astuple`` deep-copies it on every call).
_FIELD_NAMES = tuple(f.name for f in fields(FormQuery))
_form_values = attrgetter(*_FIELD_NAMES)

#: How many of a form's values are criteria: all but ``search_in``,
#: which FormQuery holds to "ewb" or "synopsis" and so is never blank.
_CRITERIA = len(_FIELD_NAMES) - 1


def _normalized_form(form: FormQuery) -> Tuple[str, ...]:
    """The form's values, stripped in one pass: the query-cache key's
    form part.

    Raises:
        QuerySyntaxError: A value is not text (naming the first such
            field), or the form is empty.
    """
    values = _form_values(form)
    try:
        normalized = tuple(map(str.strip, values))
    except TypeError:
        name, value = next(
            (name, value) for name, value in zip(_FIELD_NAMES, values)
            if not isinstance(value, str)
        )
        raise QuerySyntaxError(
            f"search form field {name!r} must be text, got "
            f"{type(value).__name__}"
        ) from None
    if normalized.count("") == _CRITERIA:
        raise QuerySyntaxError("the search form is empty")
    return normalized


class BusinessActivityDrivenSearch:
    """Executes Figure 1 end to end.

    Args:
        organized: The structured business context.
        taxonomy: Services taxonomy (concept expansion).
        siapi: Scoped keyword search service.
        access: Access controller for step 19.
        repositories: deal_id -> repository name, for document ACLs.
            Held, not copied: the owning system's onboarding and
            offboarding update it in place.
        combiner: Rank combination policy (step 18).
        cache_size: Result-cache capacity (0 disables caching).  Keys
            combine the normalized form, the user's access signature
            (user id + roles + ACL policy version) and the index/search
            epochs, so no user can ever see another user's cached view
            and incremental maintenance invalidates correctly.
        retry: Retry policy for transient substrate failures (defaults
            to 3 quick attempts with deterministic jitter).
        synopsis_breaker: Circuit breaker around the synopsis DB.
        siapi_breaker: Circuit breaker around the SIAPI index.
    """

    def __init__(
        self,
        organized: OrganizedInformation,
        taxonomy: ServiceTaxonomy,
        siapi: SiapiService,
        access: Optional[AccessController] = None,
        repositories: Optional[Dict[str, str]] = None,
        combiner: Optional[RankCombiner] = None,
        cache_size: int = 128,
        retry: Optional[RetryPolicy] = None,
        synopsis_breaker: Optional[CircuitBreaker] = None,
        siapi_breaker: Optional[CircuitBreaker] = None,
    ) -> None:
        self.organized = organized
        self.taxonomy = taxonomy
        self.synopsis_search = SynopsisSearch(organized, taxonomy)
        self.siapi = siapi
        self.access = access or AccessController()
        self.repositories = {} if repositories is None else repositories
        self.combiner = combiner or RankCombiner()
        # Atomic: concurrent add_workbook/remove_deal calls both bump
        # the epoch, and a lost increment would let a stale cache key
        # survive the second mutation.
        self._epoch = AtomicCounter()
        self._cache = LruCache("query.cache", cache_size)
        self.retry = retry or RetryPolicy()
        self.synopsis_breaker = synopsis_breaker or CircuitBreaker(
            "synopsis", trip_on=_SYNOPSIS_OUTAGES,
            ignore=(QuerySyntaxError,),
        )
        self.siapi_breaker = siapi_breaker or CircuitBreaker(
            "siapi", trip_on=_INDEX_OUTAGES,
            ignore=(QuerySyntaxError,),
        )

    @property
    def epoch(self) -> int:
        """The cache-invalidation epoch (bumped by :meth:`invalidate`)."""
        return self._epoch.value

    def invalidate(self) -> None:
        """Bump the search epoch; every cached result goes stale.

        Called by incremental maintenance (``EILSystem.add_workbook`` /
        ``remove_deal``) after the organized information changes.
        """
        self._epoch.increment()

    def execute(
        self,
        form: FormQuery,
        user: User,
        limit: Optional[int] = None,
        per_activity_documents: int = 5,
        probe: Optional[CacheProbe] = None,
    ) -> EilResults:
        """Run one query for ``user``; see the module docstring.

        ``probe`` is this request's :meth:`probe` when the caller made
        it already (the front door does, to answer hits before
        admission); the lookup half is then not run again, and a miss is
        computed and stored under the probe's key.

        Raises:
            EILUnavailableError: Only when *both* the synopsis store
                and the SIAPI index are down; any single outage returns
                a degraded (never cached) result instead.
        """
        if probe is None:
            probe = self.probe(form, user, limit, per_activity_documents)
        if probe.cached is not None:
            return probe.cached
        results = self._execute(form, user, limit, per_activity_documents)
        # The cache itself refuses degraded values (LruCache.storable),
        # so a thinned-out answer can never outlive the outage.
        self._cache.put(probe.key, results)
        return results

    def probe(
        self,
        form: FormQuery,
        user: User,
        limit: Optional[int] = None,
        per_activity_documents: int = 5,
    ) -> CacheProbe:
        """The lookup half of :meth:`execute`.

        Counts the request (``query.executed``), checks synopsis access
        and the form, builds the cache key and takes the request's one
        cache verdict.  Reads no substrate and takes no lock but the
        cache's own.

        Raises:
            QuerySyntaxError: A form field is not text, or the form is
                empty.
        """
        _EXECUTED.inc()
        self.access.require_synopsis_access(user)
        key = self._cache_key(form, user, limit, per_activity_documents)
        return CacheProbe(key, self._cache.get(key))

    def _cache_key(
        self,
        form: FormQuery,
        user: User,
        limit: Optional[int],
        per_activity_documents: int,
    ) -> tuple:
        normalized = _normalized_form(form)
        access_signature = (
            user.user_id,
            frozenset(user.roles),
            self.access.policy_version,
        )
        epochs = (self.epoch, self.siapi.engine.epoch)
        return (normalized, access_signature, epochs,
                limit, per_activity_documents)

    # -- resilient substrate calls ------------------------------------------

    def _synopsis_matches(
        self, form: FormQuery
    ) -> Dict[str, SynopsisMatch]:
        """The synopsis query under retry + breaker (steps 2, 4)."""
        return self.synopsis_breaker.call(
            self.retry.call, self.synopsis_search.execute, form
        )

    def _siapi_grouped(
        self, siapi_query, scope, per_activity_documents,
        activity_limit=None,
    ):
        """The SIAPI query under retry + breaker (steps 8 / 14).

        ``activity_limit`` is only safe on *unscoped* branches where
        the final ranking is keyword-only (no synopsis scores to merge
        in): there the top activities by SIAPI score are exactly the
        top activities overall, so the tail can be dropped early.
        """
        return self.siapi_breaker.call(
            self.retry.call,
            self.siapi.search_grouped,
            siapi_query,
            scope=scope,
            per_activity_limit=per_activity_documents,
            activity_limit=activity_limit,
        )

    def _record_degraded(self, flag: str, plan: List[str], note: str) -> None:
        _DEGRADED.inc()
        get_registry().inc(f"query.degraded.{flag}")
        plan.append(note)

    def _execute(
        self,
        form: FormQuery,
        user: User,
        limit: Optional[int],
        per_activity_documents: int,
    ) -> EilResults:
        tracer = get_tracer()
        with tracer.span("query.execute") as root:
            plan: List[str] = []
            degraded: Optional[str] = None

            # Steps 1-3: decompose the form.
            with tracer.span("query.analyze"):
                siapi_query = form.to_siapi_query()  # step 3
                suggestions: List[str] = []
                if form.tower.strip() and (
                    self.taxonomy.canonical(form.tower) is None
                ):
                    suggestions = self.taxonomy.suggest(form.tower)

            synopsis_failure: Optional[BaseException] = None
            synopsis_matches: Dict[str, SynopsisMatch] = {}
            with tracer.span("query.synopsis"):  # steps 2, 4
                try:
                    synopsis_matches = self._synopsis_matches(form)
                except _SYNOPSIS_OUTAGES as exc:
                    synopsis_failure = exc
                    _SYNOPSIS_UNAVAILABLE.inc()
            if synopsis_failure is None:
                plan.append(
                    f"synopsis query matched {len(synopsis_matches)} "
                    f"activities"
                )
                _SYNOPSIS_MATCHES.observe(len(synopsis_matches))
            else:
                degraded = DEGRADED_NO_SYNOPSIS
                self._record_degraded(
                    degraded, plan,
                    f"synopsis store unavailable "
                    f"({type(synopsis_failure).__name__}); "
                    f"degrading to keyword-only search",
                )
            if suggestions:
                plan.append(
                    f"unknown concept {form.tower!r}; did you mean: "
                    + ", ".join(suggestions)
                )

            scoped = False
            siapi_groups = None
            if synopsis_failure is not None:
                # Rung 1: no synopsis.  Keyword-only, unscoped — or, if
                # the index is down too, the bottom of the ladder.
                if siapi_query is None:
                    plan.append(
                        "no text criteria to fall back to; empty "
                        "degraded result"
                    )
                    _EMPTY_RESULTS.inc()
                    return EilResults(plan=tuple(plan), degraded=degraded)
                try:
                    with tracer.span("query.siapi", scoped=False):
                        siapi_groups = self._siapi_grouped(
                            siapi_query, None, per_activity_documents,
                            activity_limit=limit,
                        )
                except _INDEX_OUTAGES as exc:
                    _SIAPI_UNAVAILABLE.inc()
                    _UNAVAILABLE.inc()
                    raise EILUnavailableError(
                        "both the synopsis store and the SIAPI index "
                        "are unavailable",
                        failures={
                            "synopsis": synopsis_failure,
                            "index": exc,
                        },
                    ) from exc
                _SIAPI_UNSCOPED.inc()
                plan.append(
                    f"unscoped SIAPI query matched "
                    f"{len(siapi_groups)} activities"
                )
                synopsis_matches = {}
            elif synopsis_matches:  # step 5
                if siapi_query is not None:  # step 7
                    # Step 8: scoped SIAPI execution.
                    scope = set(synopsis_matches)
                    try:
                        with tracer.span(
                            "query.siapi", scoped=True
                        ) as span:
                            siapi_groups = self._siapi_grouped(
                                siapi_query, scope,
                                per_activity_documents,
                            )
                            span.set_attribute("scope", len(scope))
                    except _INDEX_OUTAGES as exc:
                        # Rung 2: no index.  Synopsis + contact list
                        # only — the access-control fallback view.
                        _SIAPI_UNAVAILABLE.inc()
                        degraded = DEGRADED_NO_INDEX
                        self._record_degraded(
                            degraded, plan,
                            f"index unavailable "
                            f"({type(exc).__name__}); synopsis and "
                            f"contact list only",
                        )
                        siapi_groups = None
                    else:
                        scoped = True
                        _SIAPI_SCOPED.inc()
                        plan.append(
                            f"SIAPI query scoped to {len(scope)} "
                            f"activities, {len(siapi_groups)} matched"
                        )
                        # Activities with no keyword hits drop out:
                        # both parts of the conjunctive query must
                        # hold (step 9).
                        matched = {g.activity_id for g in siapi_groups}
                        synopsis_matches = {
                            deal_id: match
                            for deal_id, match in
                            synopsis_matches.items()
                            if deal_id in matched
                        }
                else:
                    plan.append("no SIAPI query; synopsis results stand")
            else:
                if siapi_query is not None:  # step 13
                    # Step 14: unscoped SIAPI execution.
                    try:
                        with tracer.span("query.siapi", scoped=False):
                            siapi_groups = self._siapi_grouped(
                                siapi_query, None,
                                per_activity_documents,
                                activity_limit=limit,
                            )
                    except _INDEX_OUTAGES as exc:
                        # Synopsis answered (nothing), index is down:
                        # an empty result is all we can honestly give.
                        _SIAPI_UNAVAILABLE.inc()
                        degraded = DEGRADED_NO_INDEX
                        self._record_degraded(
                            degraded, plan,
                            f"index unavailable "
                            f"({type(exc).__name__}) and no synopsis "
                            f"matches; empty degraded result",
                        )
                        _EMPTY_RESULTS.inc()
                        return EilResults(plan=tuple(plan), degraded=degraded)
                    _SIAPI_UNSCOPED.inc()
                    plan.append(
                        f"unscoped SIAPI query matched "
                        f"{len(siapi_groups)} activities"
                    )
                else:
                    plan.append("no criteria matched; empty result")
                    _EMPTY_RESULTS.inc()
                    return EilResults(plan=tuple(plan))

            # Step 18: rank.  The limit rides into the combiner so the
            # merge selects top-k with a bounded heap instead of
            # ranking every activity and slicing.
            with tracer.span("query.rank"):
                ranked = self.combiner.combine(
                    synopsis_matches, siapi_groups, limit=limit
                )

            # Step 19: present under access control.
            with tracer.span("query.present"):
                names = self._deal_names([a.deal_id for a in ranked])
                results = tuple([
                    self._present(
                        activity, user, names.get(activity.deal_id),
                        include_contacts=degraded == DEGRADED_NO_INDEX,
                    )
                    for activity in ranked
                ])
            _ACTIVITIES_RETURNED.observe(len(results))
            root.set_attribute("activities", len(results))
        return EilResults(
            activities=results, scoped=scoped, plan=tuple(plan),
            degraded=degraded,
        )

    def _deal_names(self, deal_ids: List[str]) -> Dict[str, object]:
        """The presented deals' names, read in one statement and
        tolerating a flaky synopsis DB.

        Presentation must not un-degrade a result that already made it
        through the ladder: if the read fails even after retries, every
        activity falls back to its bare deal id rather than raising.
        """
        if not deal_ids:
            return {}
        try:
            return self.retry.call(self.organized.deal_names, deal_ids)
        except _SYNOPSIS_OUTAGES:
            _PRESENT_ROW_UNAVAILABLE.inc()
            return {}

    def _contacts(self, deal_id: str) -> Tuple[str, ...]:
        """Contact names for the synopsis + contact-list fallback view."""
        try:
            rows = self.retry.call(self.organized.contacts_of, deal_id)
        except _SYNOPSIS_OUTAGES:
            _PRESENT_CONTACTS_UNAVAILABLE.inc()
            return ()
        return tuple(
            [str(row.get("name", "")) for row in rows if row.get("name")]
        )

    def _present(
        self,
        activity: RankedActivity,
        user: User,
        name: object,
        include_contacts: bool = False,
    ) -> ActivityResult:
        repository = self.repositories.get(activity.deal_id, "")
        documents, withheld = self.access.presentable_documents(
            user, repository, activity.hits
        )
        contacts = (
            self._contacts(activity.deal_id) if include_contacts else ()
        )
        return ActivityResult(
            deal_id=activity.deal_id,
            name=str(name or activity.deal_id),
            score=activity.score,
            synopsis_score=activity.synopsis_score,
            siapi_score=activity.siapi_score,
            reasons=tuple(activity.reasons),
            documents=documents,
            documents_withheld=withheld,
            contacts=contacts,
        )
