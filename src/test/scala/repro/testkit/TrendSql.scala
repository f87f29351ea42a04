package repro.testkit

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.events.Event
import repro.query.{Agg, CompiledQuery, NumPred, Pred, StrPred}

/** Builds the DuckDB side of the trend-aggregation oracle: trend counting
  * as recursive path counting over the match DAG (every `UNION ALL` row is
  * one distinct trend prefix, carrying its own channel values), with
  * predicates, edge predicates and negation expressed in SQL — an
  * evaluation path fully independent of the Scala engines. Used through
  * `repro.Oracle.assertEquivalent`.
  */
object TrendSql {

  /** Events as a flat DataFrame: id, ts, pane, typ, grp + one column per
    * numeric/string attribute in `numAttrs`/`strAttrs`.
    */
  def eventsDf(spark: SparkSession, events: Seq[Event], paneMs: Long,
               numAttrs: Seq[String] = Nil, strAttrs: Seq[String] = Nil): DataFrame = {
    import spark.implicits._
    val rows = events.map { e =>
      (e.id, e.ts, e.pane(paneMs), e.typ, e.grp,
        numAttrs.map(a => e.num.get(a).map(_.toString).orNull),
        strAttrs.map(a => e.str.get(a).orNull))
    }
    val base = rows.map { case (id, ts, pane, typ, grp, ns, ss) =>
      (id, ts, pane, typ, grp, ns ++ ss)
    }.toDF("id", "ts", "pane", "typ", "grp", "extra")
    (numAttrs ++ strAttrs).zipWithIndex
      .foldLeft(base) { case (df, (a, i)) =>
        df.withColumn(a, org.apache.spark.sql.functions.col("extra").getItem(i))
      }
      .drop("extra")
  }

  def transitionsDf(spark: SparkSession, q: CompiledQuery): DataFrame = {
    import spark.implicits._
    q.tpl.transitions.toSeq.toDF("ft", "tt")
  }

  private def sqlStr(s: String): String = "'" + s.replace("'", "''") + "'"
  private def inList(ts: Iterable[String]): String = ts.map(sqlStr).mkString("(", ", ", ")")
  private def sqlOp(op: String): String = if (op == "!=") "<>" else op
  private def num(a: String, attr: String): String = s"CAST($a.$attr AS DOUBLE)"

  /** Predicate conjunction of the query applied to table alias `a`. */
  private def predSql(preds: Seq[Pred], a: String): String = {
    val cs = preds.map {
      case NumPred(t, attr, op, v) =>
        s"($a.typ <> ${sqlStr(t)} OR ($a.$attr IS NOT NULL AND ${num(a, attr)} ${sqlOp(op)} $v))"
      case StrPred(t, attr, v) =>
        s"($a.typ <> ${sqlStr(t)} OR $a.$attr = ${sqlStr(v)})"
    }
    if (cs.isEmpty) "TRUE" else cs.mkString("(", " AND ", ")")
  }

  /** The channels aggregate `a` defines, named as in `PaneResult`. */
  def channels(a: Agg): Seq[String] = a match {
    case Agg.CountStar                 => Seq("c")
    case Agg.CountE(_)                 => Seq("c", "n")
    case Agg.Sum(_, _)                 => Seq("c", "s")
    case Agg.Avg(_, _)                 => Seq("c", "n", "s")
    case Agg.Min(_, _) | Agg.Max(_, _) => Seq("c", "mn", "mx")
  }

  /** Recursive-CTE SQL computing per-(grp, pane) channels of `q` over
    * tables `events` and `trans`. Each path carries its event count n,
    * attribute sum s (a missing attribute adds 0) and min/max mn/mx
    * (a missing attribute is ignored) over the aggregated type, and the
    * last event's edge-predicate attribute, compared on same-type steps.
    * Output columns: grp, pane, then `channels(q.q.agg)`.
    */
  def countSql(q: CompiledQuery): String = {
    val tpl = q.tpl
    val (aggTyp, aggAttr) = q.q.agg match {
      case Agg.CountStar => (None, None)
      case Agg.CountE(t) => (Some(t), None)
      case Agg.Sum(t, a) => (Some(t), Some(a))
      case Agg.Avg(t, a) => (Some(t), Some(a))
      case Agg.Min(t, a) => (Some(t), Some(a))
      case Agg.Max(t, a) => (Some(t), Some(a))
    }
    val noValue = "CAST(NULL AS DOUBLE)"
    // Per-event contributions of alias `a`, and the path columns they start.
    def isAgg(a: String) = aggTyp.fold("FALSE")(t => s"$a.typ = ${sqlStr(t)}")
    def value(a: String) = s"CASE WHEN ${isAgg(a)} THEN ${aggAttr.fold(noValue)(num(a, _))} END"
    def nOf(a: String)   = s"CASE WHEN ${isAgg(a)} THEN 1.0 ELSE 0.0 END"
    def sOf(a: String)   = s"COALESCE(${value(a)}, 0.0)"
    def edgeOf(a: String) = q.q.edgePred.fold(noValue)(ep => num(a, ep.attr))
    val edgeSql = q.q.edgePred.fold("")(ep => s"AND (e.typ <> p.last_typ OR p.last_ea ${sqlOp(ep.op)} ${edgeOf("e")})")
    val midNegSql = tpl.midNegs.map { nb =>
      s"""AND NOT (p.last_typ IN ${inList(nb.fromTypes)} AND e.typ IN ${inList(nb.toTypes)}
         |  AND EXISTS (SELECT 1 FROM events nx
         |              WHERE nx.grp = e.grp AND nx.pane = e.pane
         |                AND nx.typ = ${sqlStr(nb.negType)}
         |                AND ${predSql(q.q.preds, "nx")}
         |                AND CAST(nx.id AS BIGINT) > p.last_id
         |                AND CAST(nx.id AS BIGINT) < CAST(e.id AS BIGINT)))""".stripMargin
    }.mkString("\n")
    val trailSql =
      if (tpl.trailingNegs.isEmpty) ""
      else
        s"""AND NOT EXISTS (SELECT 1 FROM events nx
           |  WHERE nx.grp = p.grp AND nx.pane = p.pane
           |    AND nx.typ IN ${inList(tpl.trailingNegs)}
           |    AND ${predSql(q.q.preds, "nx")}
           |    AND CAST(nx.id AS BIGINT) > p.last_id)""".stripMargin
    val select = Map(
      "c"  -> "CAST(COUNT(*) AS DOUBLE)",
      "n"  -> "SUM(n)",
      "s"  -> "SUM(s)",
      "mn" -> "COALESCE(MIN(mn), CAST('Infinity' AS DOUBLE))",
      "mx" -> "COALESCE(MAX(mx), CAST('-Infinity' AS DOUBLE))")
    s"""WITH RECURSIVE paths AS (
       |  SELECT CAST(id AS BIGINT) AS last_id, typ AS last_typ, grp, pane,
       |    ${edgeOf("events")} AS last_ea,
       |    CAST(${nOf("events")} AS DOUBLE) AS n, CAST(${sOf("events")} AS DOUBLE) AS s,
       |    ${value("events")} AS mn, ${value("events")} AS mx
       |  FROM events
       |  WHERE typ IN ${inList(tpl.startTypes)} AND ${predSql(q.q.preds, "events")}
       |  UNION ALL
       |  SELECT CAST(e.id AS BIGINT), e.typ, e.grp, e.pane,
       |    ${edgeOf("e")},
       |    p.n + ${nOf("e")}, p.s + ${sOf("e")},
       |    COALESCE(LEAST(p.mn, ${value("e")}), p.mn, ${value("e")}),
       |    COALESCE(GREATEST(p.mx, ${value("e")}), p.mx, ${value("e")})
       |  FROM paths p
       |  JOIN events e ON e.grp = p.grp AND e.pane = p.pane
       |  JOIN trans t ON t.ft = p.last_typ AND t.tt = e.typ
       |  WHERE CAST(e.id AS BIGINT) > p.last_id
       |    AND ${predSql(q.q.preds, "e")}
       |    $edgeSql
       |    $midNegSql
       |)
       |SELECT grp, pane, ${channels(q.q.agg).map(ch => s"${select(ch)} AS $ch").mkString(", ")}
       |FROM paths p
       |WHERE last_typ IN ${inList(tpl.endTypes)}
       |  $trailSql
       |GROUP BY grp, pane""".stripMargin
  }
}
