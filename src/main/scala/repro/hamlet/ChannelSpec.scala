package repro.hamlet

import repro.core.PaneAgg
import repro.events.Event
import repro.hamlet.ChannelSpec.{AttrSum, EventCount, TrendCount}
import repro.query.{Agg, CompiledQuery, TypeIds}

/** One aggregate channel carried by an engine: the trend count, the count
  * of one type's events over all trends, or the sum of one attribute of one
  * type's events over all trends.
  */
sealed trait ChannelSpec extends Serializable {
  /** What an event of the injection type adds per unit of its own count. */
  def injection(e: Event): Double
}

object ChannelSpec {

  /** COUNT(*): channel 0 of every layout. */
  case object TrendCount extends ChannelSpec {
    def injection(e: Event): Double = 1.0
  }

  /** COUNT(typ), and the denominator of AVG. */
  final case class EventCount(typ: String) extends ChannelSpec {
    def injection(e: Event): Double = 1.0
  }

  /** SUM(typ.attr), and the numerator of AVG. */
  final case class AttrSum(typ: String, attr: String) extends ChannelSpec {
    def injection(e: Event): Double = e.num.getOrElse(attr, 0.0)
  }

  /** Channels an aggregate needs besides the trend count. */
  private[hamlet] def of(a: Agg): Seq[ChannelSpec] = a match {
    case Agg.CountStar     => Nil
    case Agg.CountE(t)     => Seq(EventCount(t))
    case Agg.Sum(t, at)    => Seq(AttrSum(t, at))
    case Agg.Avg(t, at)    => Seq(EventCount(t), AttrSum(t, at))
    case Agg.Min(_, _) | Agg.Max(_, _) => Nil // tracked by dedicated min/max scalars
  }

  private[hamlet] def order(c: ChannelSpec): (Int, String, String) = c match {
    case TrendCount       => (0, "", "")
    case EventCount(t)    => (1, t, "")
    case AttrSum(t, attr) => (2, attr, t)
  }
}

/** The channel layout of a set of queries executed by one engine, resolved
  * against the workload's type ids: the trend count first, then the union
  * of the members' channels. Channel `ch` (≥ 1) takes an injection from
  * every event whose type id is `injTid(ch)`.
  */
final class ChannelLayout(qs: Seq[CompiledQuery], types: TypeIds) extends Serializable {
  val specs: Vector[ChannelSpec] =
    TrendCount +: qs.flatMap(q => ChannelSpec.of(q.q.agg)).distinct.sortBy(ChannelSpec.order).toVector
  val size: Int = specs.size
  val injTid: Array[Int] = specs.map {
    case TrendCount       => -1
    case EventCount(t)    => types.of(t)
    case AttrSum(t, _)    => types.of(t)
  }.toArray
  private val specArr: Array[ChannelSpec] = specs.toArray

  /** What event `e` injects into channel `ch`, per unit of its own count. */
  def injection(e: Event, ch: Int): Double = specArr(ch).injection(e)

  /** Add `e`'s injections to the channels of `v`, whose channel 0 holds
    * the event's trend count.
    */
  def inject(e: Event, tid: Int, v: Array[Double]): Unit = {
    var ch = 1
    while (ch < size) {
      if (injTid(ch) == tid) v(ch) += injection(e, ch) * v(0)
      ch += 1
    }
  }

  /** Where query `cq`'s aggregate sits in a channel accumulator. */
  def reader(cq: CompiledQuery): AggReader =
    ChannelSpec.of(cq.q.agg).foldLeft(AggReader(-1, -1)) {
      case (r, c: EventCount) => r.copy(nIdx = specs.indexOf(c))
      case (r, c: AttrSum)    => r.copy(sIdx = specs.indexOf(c))
      case (r, TrendCount)    => r
    }
}

/** Channel indices of a query's event count and attribute sum (-1 when its
  * aggregate has none); channel 0 is always the trend count.
  */
final case class AggReader(nIdx: Int, sIdx: Int) {
  def read(acc: Array[Double], mn: Double, mx: Double): PaneAgg =
    PaneAgg(c = acc(0), n = if (nIdx >= 0) acc(nIdx) else 0.0, s = if (sIdx >= 0) acc(sIdx) else 0.0,
      mn = mn, mx = mx)
}
