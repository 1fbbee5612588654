"""Cached answers under a changing access policy: a generated model.

The query cache hands every hit the one answer it stored, and the front
door (``EILServer.search``) answers hits inline, before admission.  What
keeps a hit from showing a user documents they may no longer read — or
documents another role may read — is the cache key: the user id, the
roles and the ACL ``policy_version`` are in it, and so are the search
and engine epochs.

The property: replay a generated script of searches by users with
different roles (one login under two role sets among them), interleaved
with ACL changes and one onboarding, on two systems built alike.  Every
answer the cached system gives through the front door, inline hits
included, must equal the answer of a system with no query cache in the
same state.
"""

import functools

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import CorpusConfig, CorpusGenerator, EILSystem, User
from repro.core.metaqueries import service_keyword_query
from repro.core.query_analyzer import FormQuery
from repro.corpus import DealGenerator, WorkbookFactory
from repro.serving import EILServer

#: One login under two role sets (a role change between sessions), and
#: a second login with a third role.
USERS = (
    User("alice", frozenset({"sales"})),
    User("alice", frozenset({"delivery"})),
    User("bob", frozenset({"ops"})),
)

#: Forms whose answers carry documents, so that what a user may read
#: shows in them.
FORMS = (
    service_keyword_query("Storage Management Services", "data replication"),
    FormQuery(any_words="services"),
)


@functools.lru_cache(maxsize=None)
def _world():
    corpus = CorpusGenerator(
        CorpusConfig(n_deals=4, docs_per_deal=12)
    ).generate()
    generator = DealGenerator(seed=999, taxonomy=corpus.taxonomy)
    deal = generator.generate(len(corpus.deals) + 1)[-1]
    workbook = WorkbookFactory(corpus.taxonomy, seed=999).build_workbook(
        deal, 12
    )
    repositories = tuple(
        [w.name for w in corpus.collection] + [workbook.name]
    )
    return corpus, workbook, repositories


def _system(corpus, **options):
    eil = EILSystem.build(corpus, **options)
    _, _, repositories = _world()
    # Half the repositories are the sales role's; the rest follow the
    # open default until a script restricts them.
    for repository in repositories[::2]:
        eil.access.grant_role(repository, "sales")
    eil.access.grant_user(repositories[0], "bob")
    return eil


_REPOSITORY = st.integers(0, 4)
# A search step is one form, asked by every user in a drawn order: the
# same form by another role, or again after a policy change, is what a
# key missing the roles or the policy version would answer wrongly.
_STEP = st.one_of(
    st.tuples(st.just("search"), st.integers(0, len(FORMS) - 1),
              st.permutations(range(len(USERS)))),
    st.tuples(st.just("restrict"), _REPOSITORY),
    st.tuples(st.just("grant_user"), _REPOSITORY,
              st.sampled_from(["alice", "bob"])),
    st.tuples(st.just("revoke_user"), _REPOSITORY,
              st.sampled_from(["alice", "bob"])),
)


@st.composite
def _scripts(draw):
    steps = draw(st.lists(_STEP, min_size=1, max_size=10))
    onboard_at = draw(st.none() | st.integers(0, len(steps)))
    if onboard_at is not None:
        steps.insert(onboard_at, ("add_workbook",))
    return steps


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(script=_scripts())
def test_every_answer_equals_the_uncached_systems(script):
    corpus, workbook, repositories = _world()
    cached = _system(corpus)
    reference = _system(corpus, query_cache_size=0)
    with EILServer(cached) as server:
        for step in script:
            kind = step[0]
            if kind == "search":
                form = FORMS[step[1]]
                for user in (USERS[i] for i in step[2]):
                    answer = server.search(form, user)
                    assert answer == reference.search(form, user), (
                        step, user
                    )
            elif kind == "add_workbook":
                cached.add_workbook(workbook)
                reference.add_workbook(workbook)
            else:
                arguments = (repositories[step[1]],) + step[2:]
                getattr(cached.access, kind)(*arguments)
                getattr(reference.access, kind)(*arguments)
