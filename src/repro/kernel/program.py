"""Translation programs: the SQL emitted by the translator.

"The preprocessor is implemented by means of a pool of SQL programs
generating the input relations for the core operator; these programs
are in turn generated by the translator" (Section 3).  A
:class:`TranslationProgram` is that pool, plus the directives the core
operator and postprocessor receive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.kernel.names import Workspace
from repro.minerule.classifier import Directives
from repro.minerule.statements import MineRuleStatement


@dataclass(frozen=True)
class TranslationQuery:
    """One generated SQL statement, labelled with the paper's query
    name (Q0..Q11, or a suffixed variant like Q2a/Q2b)."""

    label: str
    purpose: str
    sql: str

    def __str__(self) -> str:
        return f"-- {self.label}: {self.purpose}\n{self.sql}"


@dataclass(frozen=True)
class CoreDirectives:
    """What the core operator needs to know, and nothing more: table
    names of its encoded inputs, thresholds, cardinalities and the
    statement-class flags (Section 4.3)."""

    simple: bool
    same_schema: bool  # not H
    clustered: bool  # C
    cluster_condition: bool  # K
    mining_condition: bool  # M
    #: the table the core reads: ``CodedSource`` on the simple path,
    #: the ``MiningSource`` table behind Q11's view on the general path
    coded_source: str
    cluster_couples: Optional[str]
    input_rules: Optional[str]
    min_support: float
    min_confidence: float
    body_card: Tuple[int, Optional[int]]
    head_card: Tuple[int, Optional[int]]


@dataclass
class TranslationProgram:
    """Everything the translator hands to the downstream components."""

    statement: MineRuleStatement
    directives: Directives
    workspace: Workspace
    #: DROP/CREATE SEQUENCE statements run before preprocessing
    setup: List[TranslationQuery] = field(default_factory=list)
    #: the preprocessing program (Figure 4): Q0..Q11
    preprocessing: List[TranslationQuery] = field(default_factory=list)
    #: the postprocessing program (Section 4.4 / Appendix A)
    postprocessing: List[TranslationQuery] = field(default_factory=list)
    core: Optional[CoreDirectives] = None
    #: encoded-table column layouts, keyed by table name
    schemas: dict = field(default_factory=dict)

    def query(self, label: str) -> TranslationQuery:
        """Look up a generated query by its label (test helper)."""
        for query in self.setup + self.preprocessing + self.postprocessing:
            if query.label == label:
                return query
        raise KeyError(f"no query labelled {label!r} in this program")

    def labels(self) -> List[str]:
        """Labels of the preprocessing queries, in execution order."""
        return [q.label for q in self.preprocessing]

    def listing(self) -> str:
        """The full SQL program as one annotated script (FIG4 bench)."""
        sections = [
            ("setup", self.setup),
            ("preprocessing", self.preprocessing),
            ("postprocessing", self.postprocessing),
        ]
        lines: List[str] = []
        for title, queries in sections:
            if not queries:
                continue
            lines.append(f"-- ===== {title} =====")
            for query in queries:
                lines.append(str(query))
                lines.append("")
        return "\n".join(lines)
