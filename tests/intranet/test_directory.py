"""Unit tests for the personnel directory."""

import pytest

from repro.corpus import Person
from repro.errors import IntegrityError
from repro.intranet import DirectoryRecord, PersonnelDirectory


def person(first="Sam", last="White", org="ABC", email=None):
    return Person(
        first, last, org,
        email or f"{first.lower()}.{last.lower()}@abc.com",
        "+1-914-555-0001",
    )


class TestDirectory:
    def test_add_and_lookup_email(self):
        directory = PersonnelDirectory()
        directory.add_person(person())
        record = directory.lookup_email("Sam.White@ABC.com")
        assert record is not None
        assert record.full_name == "Sam White"

    def test_lookup_name_order_insensitive(self):
        directory = PersonnelDirectory()
        directory.add_person(person())
        assert directory.lookup_name("White, Sam")
        assert directory.lookup_name("sam white")
        assert directory.lookup_name("Jane Doe") == []

    def test_serials_sequential_and_unique(self):
        directory = PersonnelDirectory()
        first = directory.add_person(person())
        second = directory.add_person(person("Jane", "Doe"))
        assert first.serial != second.serial

    def test_duplicate_email_rejected(self):
        directory = PersonnelDirectory()
        directory.add_person(person())
        with pytest.raises(IntegrityError):
            directory.add(DirectoryRecord(
                "999999", "Other Name", "sam.white@abc.com", "", "ABC"
            ))

    def test_load_people_skips_duplicates(self):
        directory = PersonnelDirectory()
        people = [person(), person(), person("Jane", "Doe")]
        assert directory.load_people(people) == 2
        assert len(directory) == 2

    def test_is_active(self):
        directory = PersonnelDirectory()
        directory.add_person(person(), active=False)
        assert directory.lookup_email("sam.white@abc.com").active is False
        assert directory.lookup_email("ghost@abc.com") is None
