"""Appendix A's literal Q1 and Q4, which the translator's specialised
queries are held to (``tests/property/test_specialised_queries.py``).

The translator counts ValidGroups for Q1 when the statement has no group
HAVING, and builds Q4 from Q3a's staged (element, group) pairs
(DESIGN.md section 3, "Specialised queries").  The literal text reads
the Source again instead: Q1 counts its distinct groups before Q2 runs,
and Q4 joins it with ValidGroups and Bset and removes the duplicates
with a DISTINCT.  The text is written out here by hand, not with the
translator's helpers, so that neither side is derived from the other.
"""

from __future__ import annotations

import dataclasses

from repro.kernel.program import TranslationProgram, TranslationQuery


def literal_q1(program: TranslationProgram) -> TranslationQuery:
    """Q1 as Appendix A writes it: the distinct known groups of Source."""
    names = program.workspace
    group = program.statement.group_attributes
    known = " AND ".join(f"{attr} IS NOT NULL" for attr in group)
    return TranslationQuery(
        "Q1",
        "Appendix A: count the distinct groups of Source",
        f"SELECT COUNT(*) INTO :totg FROM (SELECT DISTINCT "
        f"{', '.join(group)} FROM {names.source}) WHERE {known}",
    )


def literal_q4(program: TranslationProgram) -> TranslationQuery:
    """Q4 as Appendix A writes it: Source joined with ValidGroups and
    Bset, then DISTINCT."""
    names = program.workspace
    statement = program.statement
    joins = [f"S.{attr} = V.{attr}" for attr in statement.group_attributes]
    joins += [f"S.{attr} = B.{attr}" for attr in statement.body.attributes]
    return TranslationQuery(
        "Q4",
        "Appendix A: encode the source",
        f"INSERT INTO {names.coded_source} (SELECT DISTINCT V.Gid, B.Bid "
        f"FROM {names.source} S, {names.valid_groups} V, {names.bset} B "
        f"WHERE {' AND '.join(joins)})",
    )


def literal_program(program: TranslationProgram) -> TranslationProgram:
    """*program* (a simple one) with Appendix A's Q1 right after Q0 and
    its Q4 in place of the emitted ones; every other query as emitted."""
    queries = [q for q in program.preprocessing if q.label not in ("Q1", "Q4")]
    assert queries[0].label in ("Q0", "Q0v"), queries[0].label
    queries.insert(1, literal_q1(program))
    queries.append(literal_q4(program))
    return dataclasses.replace(program, preprocessing=queries)
