"""Reference implementations the equivalence suites compare against.

Each module is the path the program took before it was optimized, kept
out of ``src/`` because tests are its only callers:

* ``text`` — the eight Porter steps and the analyzer as a composition.
* ``select`` — the seed's row-at-a-time SELECT interpreter.
* ``expr`` — the tree-walking expression interpreter ``select`` and the
  DML model evaluate with (``repro.db`` only compiles).
* ``search`` — the exhaustive query interpreter (per-document scoring,
  clause-order evaluation, post-hoc filtering, full sort), and every
  ranked document built into a hit.
* ``siapi`` — the grouped search over those built hits (group,
  normalize, average, and only then trim).
* ``graph`` — the scan-based entity-graph traversals (rebuild the
  adjacency per call, materialise every candidate, sort, slice).
* ``metrics`` — the histogram that keeps every sample sorted, which the
  bucketed histogram's percentiles are checked against.
* ``terms`` — the longest-first alternation every term dictionary
  compiled to, and the phone pattern without its lookahead.

``index`` is the one model that was never a program path: a dict of
documents that answers the whole ``IndexReader`` protocol by analysing
the stored text again, and the ``assert_conforms`` check built on it.
"""
