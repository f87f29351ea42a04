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
  private val opCode: Int = NumPred.opCode(op, s"$typ.$attr")

  def holds(e: Event): Boolean = e.num.get(attr) match {
    case None    => false
    case Some(x) => NumPred.compare(opCode, x, v)
  }
}
object NumPred {
  val Ops: Vector[String] = Vector("<", "<=", ">", ">=", "=", "!=")

  /** The code of comparison `op` (its index in `Ops`); `where` names the
    * compared attribute in the error for an unknown op.
    */
  def opCode(op: String, where: String): Int = {
    val code = Ops.indexOf(op)
    require(code >= 0, s"unknown comparison op '$op' in $where (expected one of ${Ops.mkString(" ")})")
    code
  }

  /** `x op y` for the op with code `opCode`. */
  def compare(opCode: Int, x: Double, y: Double): Boolean = (opCode: @switch) match {
    case 0 => x < y
    case 1 => x <= y
    case 2 => x > y
    case 3 => x >= y
    case 4 => x == y
    case _ => x != y
  }
}
/** Edge predicate `E.attr op NEXT(E).attr` on Kleene-adjacent events of one
  * type (e.g. "price is rising": `EdgePred("price", "<")`), the source of
  * event-level snapshots in Definition 9 / Table 5. The edge from e' to a
  * later event e of the same type holds iff `e'.attr op e.attr`; an event
  * without the attribute admits no such edge.
  */
final case class EdgePred(attr: String, op: String) {
  private val opCode: Int = NumPred.opCode(op, s"edge predicate on $attr")

  def holds(prev: Event, e: Event): Boolean = (prev.num.get(attr), e.num.get(attr)) match {
    case (Some(x), Some(y)) => NumPred.compare(opCode, x, y)
    case _                  => false
  }
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
  * @param edgePred predicate on same-type adjacent events (Definition 9)
  */
final case class TrendQuery(
    id: String,
    pattern: Pattern,
    agg: Agg = Agg.CountStar,
    preds: Seq[Pred] = Nil,
    window: QueryWindow = QueryWindow(10, 1),
    edgePred: Option[EdgePred] = None,
)
