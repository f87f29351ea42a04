package repro.query

import scala.annotation.switch

import repro.events.Event

/** Aggregation functions supported by trend aggregation queries
  * (Definition 2; distributive + algebraic only, §2.1).
  */
sealed trait Agg
object Agg {
  /** COUNT(*): number of trends per group. */
  case object CountStar extends Agg
  /** COUNT(E): number of E events across all trends per group. */
  final case class CountE(typ: String) extends Agg
  /** SUM(E.attr) over all E events in all trends per group. */
  final case class Sum(typ: String, attr: String) extends Agg
  /** AVG(E.attr) = SUM(E.attr) / COUNT(E). */
  final case class Avg(typ: String, attr: String) extends Agg
  /** MIN(E.attr) over E events that occur in at least one trend. */
  final case class Min(typ: String, attr: String) extends Agg
  /** MAX(E.attr) over E events that occur in at least one trend. */
  final case class Max(typ: String, attr: String) extends Agg

  /** Compatibility class for sharing (Definition 5): COUNT(*) only shares
    * with COUNT(*); SUM/AVG/COUNT(E) on the same type inter-share (AVG is
    * SUM/COUNT(E)); MIN/MAX are non-linear — this build never shares them
    * (documented narrowing of Def. 5, see DESIGN.md).
    */
  def shareClass(a: Agg): Option[String] = a match {
    case CountStar  => Some("count*")
    case CountE(t)  => Some(s"sumlike:$t")
    case Sum(t, _)  => Some(s"sumlike:$t")
    case Avg(t, _)  => Some(s"sumlike:$t")
    case _          => None // MIN/MAX: never shared here
  }
}

/** A conjunct of the WHERE clause evaluated on a single event of a given
  * type. (Equality on the grouping attributes — e.g. `[driver, rider]` —
  * is realized by stream partitioning, as in §3.1.)
  */
sealed trait Pred {
  def typ: String
  /** The condition itself, for an event known to be of type `typ`. */
  def holds(e: Event): Boolean
}
/** Numeric comparison `E.attr op v` with op in <, <=, >, >=, =, !=. The op
  * is resolved when the predicate is built; an unknown op is rejected there.
  */
final case class NumPred(typ: String, attr: String, op: String, v: Double) extends Pred {
  private val opCode: Int = NumPred.Ops.indexOf(op)
  require(opCode >= 0, s"unknown comparison op '$op' in $typ.$attr (expected one of ${NumPred.Ops.mkString(" ")})")

  def holds(e: Event): Boolean = e.num.get(attr) match {
    case None    => false
    case Some(x) =>
      (opCode: @switch) match {
        case 0 => x < v
        case 1 => x <= v
        case 2 => x > v
        case 3 => x >= v
        case 4 => x == v
        case _ => x != v
      }
  }
}
object NumPred {
  val Ops: Vector[String] = Vector("<", "<=", ">", ">=", "=", "!=")
}
/** String equality `E.attr = v`. */
final case class StrPred(typ: String, attr: String, v: String) extends Pred {
  def holds(e: Event): Boolean = e.str.get(attr).contains(v)
}

/** WITHIN/SLIDE clause, in minutes as in Figure 1. */
final case class QueryWindow(windowMin: Int, slideMin: Int) {
  require(windowMin > 0 && slideMin > 0 && windowMin % slideMin == 0,
    s"window $windowMin must be a positive multiple of slide $slideMin")
}

/** An event trend aggregation query (Definition 2). Every query groups by
  * the stream key: streams arrive pre-partitioned by `Event.grp`.
  *
  * @param id       unique name, e.g. "q1"
  * @param pattern  Kleene pattern (PATTERN clause)
  * @param agg      aggregate (RETURN clause)
  * @param preds    single-event predicates (WHERE clause)
  * @param window   WITHIN/SLIDE clause
  */
final case class TrendQuery(
    id: String,
    pattern: Pattern,
    agg: Agg = Agg.CountStar,
    preds: Seq[Pred] = Nil,
    window: QueryWindow = QueryWindow(10, 1),
    /** Optional per-query predicate on Kleene-adjacent event pairs (within
      * one graphlet), e.g. "price is rising" — the source of event-level
      * snapshots in Definition 9 / Table 5. `edgePred(e', e)` decides
      * whether the edge from e' to e holds for this query.
      */
    edgePred: Option[(Event, Event) => Boolean] = None,
)
