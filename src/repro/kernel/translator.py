"""The Translator (Section 4.1).

"The translator interpretes a MINE RULE statement, checks the
correctness of the statement by accessing the DBMS Data Dictionary, and
produces translation programs used by the preprocessor and
postprocessor."

The emitted SQL follows Appendix A for simple association rules
(queries Q0..Q4) and Section 4.2.2 for general rules (Q5..Q11); each
query carries the paper's label so the FIG4 benchmark can show which
queries each statement class activates.  Where the directive vector
allows, a query reads what an earlier one encoded instead of the
source: Q0 becomes the view Q0v, Q1 counts ValidGroups and Q4 joins
Q3a's staged pairs (DESIGN.md section 3, "Specialised queries").
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from repro.kernel.names import Workspace
from repro.kernel.program import (
    CoreDirectives,
    TranslationProgram,
    TranslationQuery,
)
from repro.kernel.rewrite import (
    ClusterAggregate,
    collect_cluster_aggregates,
    requalify,
    rewrite_cluster_condition,
)
from repro.minerule.classifier import classify
from repro.minerule.errors import MineRuleValidationError
from repro.minerule.parser import parse_mine_rule
from repro.minerule.statements import MineRuleStatement
from repro.minerule.validator import validate
from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.engine import Database
from repro.sqlengine.render import render_expr


class Translator:
    """Turns MINE RULE statements into translation programs."""

    def __init__(self, database: Database):
        self._db = database

    # ------------------------------------------------------------------

    def translate(
        self,
        statement: Union[str, MineRuleStatement],
        workspace: Optional[Workspace] = None,
    ) -> TranslationProgram:
        """Parse (if needed), validate, classify and emit the program."""
        if isinstance(statement, str):
            statement = parse_mine_rule(statement)
        workspace = workspace or Workspace()

        source_columns = self._source_columns(statement)
        validate(statement, source_columns)
        self._check_reserved_names(statement)
        directives = classify(statement)

        program = TranslationProgram(
            statement=statement,
            directives=directives,
            workspace=workspace,
        )
        self._emit_setup(program)
        if directives.simple:
            self._emit_simple_preprocessing(program)
        else:
            self._emit_general_preprocessing(program)
        self._emit_postprocessing(program)
        program.core = self._core_directives(program)
        return program

    # ------------------------------------------------------------------
    # data dictionary access
    # ------------------------------------------------------------------

    def _source_columns(self, statement: MineRuleStatement) -> List[str]:
        """Columns visible in the FROM list (data dictionary check)."""
        columns: List[str] = []
        for table_ref in statement.from_list:
            for name, _ in self._db.catalog.describe(table_ref.name):
                columns.append(name)
        return columns

    #: column names the encoding queries generate; attributes with these
    #: names would collide inside the encoded tables (e.g. Q2b selects
    #: "Gid, V.*"), so the translator rejects them up front.
    RESERVED_ENCODING_NAMES = frozenset(
        {"gid", "cid", "bid", "hid", "bcid", "hcid",
         "groupcount", "bodyid", "headid"}
    )

    def _check_reserved_names(self, statement: MineRuleStatement) -> None:
        used = set()
        for attrs in (
            statement.body.attributes,
            statement.head.attributes,
            statement.group_attributes,
            statement.cluster_attributes,
            self._condition_attributes(statement.mining_condition),
        ):
            used.update(a.lower() for a in attrs)
        collisions = used & self.RESERVED_ENCODING_NAMES
        if collisions:
            raise MineRuleValidationError(
                f"attribute name(s) {', '.join(sorted(collisions))} collide "
                f"with the identifier columns of the encoded tables "
                f"(reserved: Gid, Cid, Bid, Hid, BCid, HCid, GroupCount, "
                f"BodyId, HeadId); rename the column or alias it in a view"
            )

    # ------------------------------------------------------------------
    # attribute bookkeeping
    # ------------------------------------------------------------------

    @staticmethod
    def _condition_attributes(expr: Optional[ast.Expression]) -> List[str]:
        if expr is None:
            return []
        return [
            node.name
            for node in ast.walk_expression(expr)
            if isinstance(node, ast.ColumnRef)
        ]

    def _needed_attributes(self, statement: MineRuleStatement) -> List[str]:
        """The <needed attr list> of query Q0: union of the body, head,
        group and cluster schemas plus attributes used by the mining
        condition and by aggregates in the HAVING conditions."""
        ordered: List[str] = []
        seen = set()
        chunks: List[Sequence[str]] = [
            statement.body.attributes,
            statement.head.attributes,
            statement.group_attributes,
            statement.cluster_attributes,
            self._condition_attributes(statement.mining_condition),
            self._condition_attributes(statement.group_condition),
            self._condition_attributes(statement.cluster_condition),
        ]
        for chunk in chunks:
            for attr in chunk:
                if attr.lower() not in seen:
                    seen.add(attr.lower())
                    ordered.append(attr)
        return ordered

    def _mining_attributes(self, statement: MineRuleStatement) -> List[str]:
        """<mine attr list>: attributes referenced in the mining
        condition (deduplicated, order of first appearance)."""
        ordered: List[str] = []
        seen = set()
        for attr in self._condition_attributes(statement.mining_condition):
            if attr.lower() not in seen:
                seen.add(attr.lower())
                ordered.append(attr)
        return ordered

    @staticmethod
    def _eq_join(left: str, right: str, attributes: Sequence[str]) -> str:
        return " AND ".join(
            f"{left}.{attr} = {right}.{attr}" for attr in attributes
        )

    @staticmethod
    def _known(attributes: Sequence[str], alias: Optional[str] = None) -> str:
        prefix = f"{alias}." if alias else ""
        return " AND ".join(
            f"{prefix}{attr} IS NOT NULL" for attr in attributes
        )

    @staticmethod
    def _attr_list(alias: Optional[str], attributes: Sequence[str]) -> str:
        if alias:
            return ", ".join(f"{alias}.{a}" for a in attributes)
        return ", ".join(attributes)

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------

    def _emit_setup(self, program: TranslationProgram) -> None:
        names = program.workspace
        out = program.statement.output_table
        queries: List[TranslationQuery] = []
        for view in names.all_views():
            queries.append(
                TranslationQuery(
                    "CLEAN", "drop stale view", f"DROP VIEW IF EXISTS {view}"
                )
            )
        for table in names.all_tables() + [
            out,
            f"{out}_Bodies",
            f"{out}_Heads",
            f"{out}_Display",
        ]:
            queries.append(
                TranslationQuery(
                    "CLEAN", "drop stale table", f"DROP TABLE IF EXISTS {table}"
                )
            )
        for sequence in names.all_sequences():
            queries.append(
                TranslationQuery(
                    "CLEAN",
                    "drop stale sequence",
                    f"DROP SEQUENCE IF EXISTS {sequence}",
                )
            )
        directives = program.directives
        sequences = [names.gid_sequence, names.bid_sequence]
        if directives.H:
            sequences.append(names.hid_sequence)
        if directives.C:
            sequences.append(names.cid_sequence)
        for sequence in sequences:
            queries.append(
                TranslationQuery(
                    "SEQ",
                    "identifier generator (Appendix A)",
                    f"CREATE SEQUENCE {sequence}",
                )
            )
        program.setup = queries

    # ------------------------------------------------------------------
    # shared queries Q0..Q4 (Appendix A)
    # ------------------------------------------------------------------

    def _emit_common_head(self, program: TranslationProgram) -> None:
        """Queries Q0, Q1, Q2, Q3 are shared by the simple and general
        preprocessing (Section 4.2.2)."""
        statement = program.statement
        directives = program.directives
        names = program.workspace
        queries = program.preprocessing

        needed = self._needed_attributes(statement)
        from_list = ", ".join(
            f"{t.name} {t.alias}" if t.alias else t.name
            for t in statement.from_list
        )

        if directives.W:
            where = ""
            if statement.source_condition is not None:
                where = f" WHERE {render_expr(statement.source_condition)}"
            queries.append(
                TranslationQuery(
                    "Q0",
                    "materialize the Source view (FROM .. WHERE)",
                    f"INSERT INTO {names.source} "
                    f"(SELECT {', '.join(needed)} FROM {from_list}{where})",
                )
            )
        else:
            # W false: Q0 is skipped; Source aliases the base table
            # through a non-materialized view (no computation).
            queries.append(
                TranslationQuery(
                    "Q0v",
                    "Q0 skipped (single table, no source condition): "
                    "Source is a plain view",
                    f"CREATE VIEW {names.source} AS "
                    f"(SELECT {', '.join(needed)} FROM {from_list})",
                )
            )

        group_attrs = statement.group_attributes
        # a row with a NULL grouping attribute belongs to no group: the
        # queries that read Source's group attributes without joining
        # ValidGroups say so (DESIGN.md section 3, "NULL keys"); Q1
        # (under G) and Q2b once per group rather than once per row
        count_groups = "count the total number of groups (:totg)"
        if directives.G:
            # the group HAVING keeps only some groups: count them all
            # in Source, as Appendix A's Q1 does
            queries.append(
                TranslationQuery(
                    "Q1",
                    count_groups,
                    f"SELECT COUNT(*) INTO :totg FROM "
                    f"(SELECT DISTINCT {', '.join(group_attrs)} "
                    f"FROM {names.source}) WHERE {self._known(group_attrs)}",
                )
            )

        having = ""
        if directives.G:
            having = f" HAVING {render_expr(statement.group_condition)}"
        queries.append(
            TranslationQuery(
                "Q2a",
                "valid groups view (GROUP BY .. HAVING)",
                f"CREATE VIEW {names.valid_groups_view} AS "
                f"(SELECT {', '.join(group_attrs)} FROM {names.source} "
                f"GROUP BY {', '.join(group_attrs)}{having})",
            )
        )
        queries.append(
            TranslationQuery(
                "Q2b",
                "encode groups with Gid (sequence)",
                f"INSERT INTO {names.valid_groups} "
                f"(SELECT {names.gid_sequence}.NEXTVAL AS Gid, V.* "
                f"FROM {names.valid_groups_view} AS V "
                f"WHERE {self._known(group_attrs, 'V')})",
            )
        )
        program.schemas[names.valid_groups] = ["Gid"] + list(group_attrs)
        if not directives.G:
            # without a group HAVING ValidGroups holds every known group
            # of Source, one Gid each: count its rows (DESIGN.md
            # section 3, "Specialised queries")
            queries.append(
                TranslationQuery(
                    "Q1",
                    count_groups,
                    f"SELECT COUNT(*) INTO :totg FROM {names.valid_groups}",
                )
            )

        self._emit_item_encoding(
            program,
            label="Q3",
            schema=statement.body.attributes,
            staging=names.distinct_groups_in_body,
            target=names.bset,
            id_column="Bid",
            sequence=names.bid_sequence,
        )

    def _emit_item_encoding(
        self,
        program: TranslationProgram,
        label: str,
        schema: Sequence[str],
        staging: str,
        target: str,
        id_column: str,
        sequence: str,
    ) -> None:
        """Item encoding (query Q3 for bodies, Q5 for heads): stage the
        distinct (element, group) pairs, then keep elements appearing
        in at least :mingroups valid groups.  A row with a NULL in the
        element's schema holds no element."""
        statement = program.statement
        directives = program.directives
        names = program.workspace
        group_attrs = statement.group_attributes

        if directives.G:
            # Count occurrences within *valid* groups only.
            stage_sql = (
                f"INSERT INTO {staging} "
                f"(SELECT DISTINCT {self._attr_list('S', schema)}, "
                f"{self._attr_list('S', group_attrs)} "
                f"FROM {names.source} S, {names.valid_groups} V "
                f"WHERE {self._eq_join('S', 'V', group_attrs)} "
                f"AND {self._known(schema, 'S')})"
            )
        else:
            stage_sql = (
                f"INSERT INTO {staging} "
                f"(SELECT DISTINCT {', '.join(schema)}, "
                f"{', '.join(group_attrs)} FROM {names.source} "
                f"WHERE {self._known(list(schema) + list(group_attrs))})"
            )
        program.preprocessing.append(
            TranslationQuery(
                f"{label}a",
                f"distinct (element, group) pairs for {target}",
                stage_sql,
            )
        )
        program.preprocessing.append(
            TranslationQuery(
                f"{label}b",
                f"encode large elements into {target} "
                f"(HAVING COUNT(*) >= :mingroups)",
                f"INSERT INTO {target} "
                f"(SELECT {sequence}.NEXTVAL AS {id_column}, "
                f"{', '.join(schema)}, COUNT(*) AS GroupCount "
                f"FROM {staging} GROUP BY {', '.join(schema)} "
                f"HAVING COUNT(*) >= :mingroups)",
            )
        )
        program.schemas[target] = [id_column] + list(schema) + ["GroupCount"]

    # ------------------------------------------------------------------
    # simple preprocessing (Figure 4a)
    # ------------------------------------------------------------------

    def _emit_simple_preprocessing(self, program: TranslationProgram) -> None:
        statement = program.statement
        names = program.workspace
        self._emit_common_head(program)

        group_attrs = statement.group_attributes
        body_schema = statement.body.attributes
        # Q3a staged the distinct (element, group) pairs; group -> Gid
        # and element -> Bid are one-to-one, so their join is distinct
        # without a DISTINCT (DESIGN.md section 3, "Specialised queries")
        program.preprocessing.append(
            TranslationQuery(
                "Q4",
                "encode the source: CodedSource(Gid, Bid)",
                f"INSERT INTO {names.coded_source} "
                f"(SELECT V.Gid, B.Bid "
                f"FROM {names.distinct_groups_in_body} D, "
                f"{names.valid_groups} V, {names.bset} B "
                f"WHERE {self._eq_join('D', 'V', group_attrs)} "
                f"AND {self._eq_join('D', 'B', body_schema)})",
            )
        )
        program.schemas[names.coded_source] = ["Gid", "Bid"]

    # ------------------------------------------------------------------
    # general preprocessing (Figure 4b)
    # ------------------------------------------------------------------

    def _emit_general_preprocessing(self, program: TranslationProgram) -> None:
        statement = program.statement
        directives = program.directives
        names = program.workspace
        queries = program.preprocessing

        self._emit_common_head(program)
        group_attrs = statement.group_attributes

        if directives.H:
            self._emit_item_encoding(
                program,
                label="Q5",
                schema=statement.head.attributes,
                staging=names.distinct_groups_in_head,
                target=names.hset,
                id_column="Hid",
                sequence=names.hid_sequence,
            )

        aggregates: List[ClusterAggregate] = []
        if directives.C:
            aggregates = self._emit_q6(program)
        if directives.K:
            self._emit_q7(program, aggregates)

        self._emit_q4b_q11(program)

        if directives.M:
            self._emit_q8_q9_q10(program)

    def _emit_q6(self, program: TranslationProgram) -> List[ClusterAggregate]:
        statement = program.statement
        directives = program.directives
        names = program.workspace
        cluster_attrs = statement.cluster_attributes
        group_attrs = statement.group_attributes

        aggregates: List[ClusterAggregate] = []
        if directives.F:
            aggregates = collect_cluster_aggregates(statement.cluster_condition)

        agg_columns: List[str] = []
        agg_select = ""
        seen = set()
        for aggregate in aggregates:
            if aggregate.column in seen:
                continue
            seen.add(aggregate.column)
            agg_columns.append(aggregate.column)
            agg_select += f", {aggregate.source_sql} AS {aggregate.column}"

        inner = (
            f"SELECT V.Gid AS Gid, "
            f"{self._attr_list('S', cluster_attrs)}{agg_select} "
            f"FROM {names.source} S, {names.valid_groups} V "
            f"WHERE {self._eq_join('S', 'V', group_attrs)} "
            f"GROUP BY V.Gid, {self._attr_list('S', cluster_attrs)}"
        )
        program.preprocessing.append(
            TranslationQuery(
                "Q6",
                "encode clusters (and evaluate cluster-condition "
                "aggregates per cluster)",
                f"INSERT INTO {names.clusters} "
                f"(SELECT {names.cid_sequence}.NEXTVAL AS Cid, T.* "
                f"FROM ({inner}) AS T)",
            )
        )
        program.schemas[names.clusters] = (
            ["Cid", "Gid"] + list(cluster_attrs) + agg_columns
        )
        return aggregates

    def _emit_q7(
        self, program: TranslationProgram, aggregates: List[ClusterAggregate]
    ) -> None:
        statement = program.statement
        names = program.workspace
        condition = rewrite_cluster_condition(
            statement.cluster_condition, aggregates, "BC", "HC"
        )
        program.preprocessing.append(
            TranslationQuery(
                "Q7",
                "select valid (body cluster, head cluster) pairs",
                f"INSERT INTO {names.cluster_couples} "
                f"(SELECT BC.Gid AS Gid, BC.Cid AS BCid, HC.Cid AS HCid "
                f"FROM {names.clusters} BC, {names.clusters} HC "
                f"WHERE BC.Gid = HC.Gid AND {render_expr(condition)})",
            )
        )
        program.schemas[names.cluster_couples] = ["Gid", "BCid", "HCid"]

    def _emit_q4b_q11(self, program: TranslationProgram) -> None:
        statement = program.statement
        directives = program.directives
        names = program.workspace
        group_attrs = statement.group_attributes
        cluster_attrs = statement.cluster_attributes
        mine_attrs = self._mining_attributes(statement)

        select_cols = ["V.Gid AS Gid"]
        coded_cols = ["Gid"]
        if directives.C:
            select_cols.append("C.Cid AS Cid")
            coded_cols.append("Cid")
        select_cols.append("B.Bid AS Bid")
        coded_cols.append("Bid")
        if directives.H:
            select_cols.append("H.Hid AS Hid")
            coded_cols.append("Hid")
        for attr in mine_attrs:
            select_cols.append(f"S.{attr} AS {attr}")

        from_clause = (
            f"{names.source} S JOIN {names.valid_groups} V "
            f"ON {self._eq_join('S', 'V', group_attrs)}"
        )
        if directives.C:
            from_clause += (
                f" JOIN {names.clusters} C "
                f"ON C.Gid = V.Gid AND {self._eq_join('S', 'C', cluster_attrs)}"
            )
        if directives.H:
            from_clause += (
                f" LEFT JOIN {names.bset} B "
                f"ON {self._eq_join('S', 'B', statement.body.attributes)}"
                f" LEFT JOIN {names.hset} H "
                f"ON {self._eq_join('S', 'H', statement.head.attributes)}"
            )
            where = " WHERE B.Bid IS NOT NULL OR H.Hid IS NOT NULL"
        else:
            from_clause += (
                f" JOIN {names.bset} B "
                f"ON {self._eq_join('S', 'B', statement.body.attributes)}"
            )
            where = ""

        program.preprocessing.append(
            TranslationQuery(
                "Q4b",
                "encode the source with mining attributes (MiningSource)",
                f"INSERT INTO {names.mining_source} "
                f"(SELECT DISTINCT {', '.join(select_cols)} "
                f"FROM {from_clause}{where})",
            )
        )
        program.schemas[names.mining_source] = coded_cols + mine_attrs

        program.preprocessing.append(
            TranslationQuery(
                "Q11",
                "CodedSource as a non-materialized view of MiningSource",
                f"CREATE VIEW {names.coded_source} AS "
                f"(SELECT {', '.join(coded_cols)} FROM {names.mining_source})",
            )
        )
        program.schemas[names.coded_source] = coded_cols

    def _emit_q8_q9_q10(self, program: TranslationProgram) -> None:
        statement = program.statement
        directives = program.directives
        names = program.workspace

        head_id = "Hid" if directives.H else "Bid"
        select_cols = ["B.Gid AS Gid"]
        rule_cols = ["Gid"]
        if directives.C:
            select_cols += ["B.Cid AS BCid", "H.Cid AS HCid"]
            rule_cols += ["BCid", "HCid"]
        select_cols += ["B.Bid AS Bid", f"H.{head_id} AS Hid"]
        rule_cols += ["Bid", "Hid"]

        from_tables = f"{names.mining_source} B, {names.mining_source} H"
        conditions = ["B.Gid = H.Gid"]
        if directives.K:
            from_tables += f", {names.cluster_couples} CC"
            conditions += [
                "CC.Gid = B.Gid",
                "CC.BCid = B.Cid",
                "CC.HCid = H.Cid",
            ]
        if directives.H:
            conditions += ["B.Bid IS NOT NULL", "H.Hid IS NOT NULL"]
        else:
            # Same schema: exclude the degenerate elementary rule that
            # pairs an item with itself inside one cluster (or inside
            # the whole group when there are no clusters).
            if directives.C:
                conditions.append("(B.Bid <> H.Bid OR B.Cid <> H.Cid)")
            else:
                conditions.append("B.Bid <> H.Bid")
        mining = requalify(
            statement.mining_condition, {"BODY": "B", "HEAD": "H"}
        )
        conditions.append(render_expr(mining))

        program.preprocessing.append(
            TranslationQuery(
                "Q8",
                "elementary rules: evaluate the mining condition in SQL",
                f"INSERT INTO {names.input_rules_raw} "
                f"(SELECT DISTINCT {', '.join(select_cols)} "
                f"FROM {from_tables} WHERE {' AND '.join(conditions)})",
            )
        )
        program.schemas[names.input_rules_raw] = rule_cols

        program.preprocessing.append(
            TranslationQuery(
                "Q9",
                "support of elementary rules (LargeRules)",
                f"INSERT INTO {names.large_rules} "
                f"(SELECT Bid, Hid, COUNT(DISTINCT Gid) AS GroupCount "
                f"FROM {names.input_rules_raw} GROUP BY Bid, Hid "
                f"HAVING COUNT(DISTINCT Gid) >= :mingroups)",
            )
        )
        program.schemas[names.large_rules] = ["Bid", "Hid", "GroupCount"]

        program.preprocessing.append(
            TranslationQuery(
                "Q10",
                "discard elementary rules without sufficient support "
                "(final InputRules)",
                f"INSERT INTO {names.input_rules} "
                f"(SELECT R.* FROM {names.input_rules_raw} R, "
                f"{names.large_rules} L "
                f"WHERE R.Bid = L.Bid AND R.Hid = L.Hid)",
            )
        )
        program.schemas[names.input_rules] = rule_cols

    # ------------------------------------------------------------------
    # postprocessing (Section 4.4)
    # ------------------------------------------------------------------

    def _emit_postprocessing(self, program: TranslationProgram) -> None:
        statement = program.statement
        directives = program.directives
        names = program.workspace
        out = statement.output_table

        body_schema = statement.body.attributes
        program.postprocessing.append(
            TranslationQuery(
                "P1",
                "decode rule bodies (Appendix A, last query)",
                f"INSERT INTO {out}_Bodies "
                f"(SELECT OutputBodies.BodyId, "
                f"{self._attr_list('Bset', body_schema)} "
                f"FROM {names.output_bodies} OutputBodies, "
                f"{names.bset} Bset "
                f"WHERE OutputBodies.Bid = Bset.Bid)",
            )
        )
        head_schema = statement.head.attributes
        head_table = names.hset if directives.H else names.bset
        head_id = "Hid" if directives.H else "Bid"
        program.postprocessing.append(
            TranslationQuery(
                "P2",
                "decode rule heads",
                f"INSERT INTO {out}_Heads "
                f"(SELECT OutputHeads.HeadId, "
                f"{self._attr_list('Hset', head_schema)} "
                f"FROM {names.output_heads} OutputHeads, "
                f"{head_table} Hset "
                f"WHERE OutputHeads.Hid = Hset.{head_id})",
            )
        )

    # ------------------------------------------------------------------

    def _core_directives(self, program: TranslationProgram) -> CoreDirectives:
        statement = program.statement
        directives = program.directives
        names = program.workspace
        return CoreDirectives(
            simple=directives.simple,
            same_schema=not directives.H,
            clustered=directives.C,
            cluster_condition=directives.K,
            mining_condition=directives.M,
            # the general path's CodedSource is Q11's projection view:
            # the core reads the columns of the table behind it
            coded_source=(
                names.coded_source if directives.simple
                else names.mining_source
            ),
            cluster_couples=names.cluster_couples if directives.K else None,
            input_rules=names.input_rules if directives.M else None,
            min_support=statement.min_support,
            min_confidence=statement.min_confidence,
            body_card=(statement.body.card_min, statement.body.card_max),
            head_card=(statement.head.card_min, statement.head.card_max),
        )
