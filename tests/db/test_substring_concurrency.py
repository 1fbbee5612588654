"""First substring probes racing each other and a writer.

An index builds its trigram map on its first substring probe.  Readers
probe under the database's read lock, so several of them can build it
at once, each into a local it then publishes with one assignment; a
writer, under the write lock, maintains whatever map was published.
This stress runs many more reader threads than cores, with a tiny
switch interval, each sending first-ever probes to a fresh database
while a writer inserts and deletes a contact between them:

* every answer a reader gets is the answer at one of the two quiesced
  states (with or without the writer's contact);
* afterwards the published map is the map rebuilt from the index's
  keys — a build that lost a writer's update would differ.
"""

import os
import sys
import threading
import time

from repro.db import Database
from tests.db.rows import insert_rows
from tests.db.test_substring_probe import assert_map_is_current

SQL = (
    "SELECT deal_id, MAX(mention_count) AS mentions FROM contacts "
    "WHERE LOWER(name) LIKE ? ESCAPE '\\' GROUP BY deal_id"
)
NAMES = [
    "Ann Smith", "John Smithers", "Joanna Jones", "Wei Zhang",
    "Sam Annan", "Kelvin Smith", "Jon Snow", "Maßimo Jones",
] * 6
NEEDLES = ["%smith%", "%jone%", "%ann%", "%zhang%", "%elvin%", "%snow%"]
# What the writer adds and takes away: a match for most needles.
EXTRA = (999, "d-extra", "Annie Smith-Jones Snow", 9)
READERS = 2 * (os.cpu_count() or 1) + 2
ROUND_SECONDS = 0.4
TOTAL_SECONDS = 4.0
JOIN_SECONDS = 30.0


def build(with_extra=False):
    db = Database()
    db.execute(
        "CREATE TABLE contacts (cid INTEGER, deal_id TEXT, name TEXT, "
        "mention_count INTEGER, PRIMARY KEY (cid))"
    )
    db.execute("CREATE INDEX ix_contacts_name ON contacts (name)")
    insert_rows(db, "contacts", [
        (cid, f"d{cid % 5}", name, cid % 7)
        for cid, name in enumerate(NAMES)
    ])
    if with_extra:
        insert_rows(db, "contacts", [EXTRA])
    return db


def quiesced_answers():
    """needle -> the answers a reader may see."""
    states = [build(), build(with_extra=True)]
    return {
        needle: [db.execute(SQL, [needle]).rows for db in states]
        for needle in NEEDLES
    }


def run_round(allowed, deadline):
    db = build()
    index = db.table("contacts").index_on(("name",))
    assert index._trigrams is None
    start = threading.Barrier(READERS + 1)
    readers_done = threading.Event()
    wrong, errors = [], []

    def read(offset):
        try:
            start.wait(JOIN_SECONDS)
            for turn in range(len(NEEDLES) * 3):
                needle = NEEDLES[(offset + turn) % len(NEEDLES)]
                result = db.execute(SQL, [needle])
                if result.rows not in allowed[needle]:
                    wrong.append((needle, result.rows))
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    def write():
        try:
            start.wait(JOIN_SECONDS)
            while not readers_done.is_set() and time.monotonic() < deadline:
                insert_rows(db, "contacts", [EXTRA])
                db.execute("DELETE FROM contacts WHERE cid = ?", [EXTRA[0]])
        except Exception as exc:
            errors.append(exc)

    readers = [
        threading.Thread(target=read, args=(offset,), daemon=True)
        for offset in range(READERS)
    ]
    writer = threading.Thread(target=write, daemon=True)
    for thread in readers + [writer]:
        thread.start()
    for thread in readers:
        thread.join(JOIN_SECONDS)
    readers_done.set()
    writer.join(JOIN_SECONDS)
    assert not any(t.is_alive() for t in readers + [writer]), "hung"
    assert not errors, errors
    assert not wrong, wrong[:3]
    assert_map_is_current(index)


def test_first_probes_race_readers_and_a_writer():
    allowed = quiesced_answers()
    # The writer's contact changes what four of the six needles find.
    assert sum(a != b for a, b in allowed.values()) >= 4
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        stop = time.monotonic() + TOTAL_SECONDS
        rounds = 0
        while rounds == 0 or time.monotonic() < stop:
            run_round(allowed, time.monotonic() + ROUND_SECONDS)
            rounds += 1
    finally:
        sys.setswitchinterval(interval)
