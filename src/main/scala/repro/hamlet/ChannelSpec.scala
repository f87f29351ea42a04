package repro.hamlet

import repro.core.PaneAgg
import repro.events.Event
import repro.query.{Agg, CompiledQuery, TypeIds}

/** One aggregate channel carried by an engine.
  *
  * @param name    "C" (trend count), "N" (event count), or "S:attr"
  * @param injType event type whose events inject into this channel
  *                (None for "C" — every event's own count injects there)
  * @param attr    attribute summed by an "S:attr" channel
  */
final case class ChannelSpec(name: String, injType: Option[String], attr: Option[String])
    extends Serializable

object ChannelSpec {

  private def specsOf(a: Agg): Seq[ChannelSpec] = a match {
    case Agg.CountStar     => Nil
    case Agg.CountE(t)     => Seq(ChannelSpec("N", Some(t), None))
    case Agg.Sum(t, at)    => Seq(ChannelSpec(s"S:$at", Some(t), Some(at)))
    case Agg.Avg(t, at)    => Seq(ChannelSpec("N", Some(t), None), ChannelSpec(s"S:$at", Some(t), Some(at)))
    case Agg.Min(_, _) | Agg.Max(_, _) => Nil // tracked by dedicated min/max scalars
  }

  /** Channel layout for a set of queries executed by one engine: "C" first,
    * then the union of the members' channels. Within a sharable set the
    * injection types agree by construction (Agg.shareClass pins the type).
    */
  def forQueries(qs: Seq[CompiledQuery]): Vector[ChannelSpec] = {
    val extra = qs.flatMap(q => specsOf(q.q.agg)).distinct
    val byName = extra.groupBy(_.name)
    byName.foreach { case (n, ss) =>
      require(ss.map(_.injType).distinct.size == 1,
        s"conflicting injection types for channel $n: $ss")
    }
    (ChannelSpec("C", None, None) +: byName.values.map(_.head).toVector.sortBy(_.name))
  }
}

/** The channel layout of a set of queries resolved against the workload's
  * type ids: channel `ch` (≥ 1) takes an injection from every event whose
  * type id is `injTid(ch)`.
  */
final class ChannelLayout(qs: Seq[CompiledQuery], types: TypeIds) extends Serializable {
  val specs: Vector[ChannelSpec] = ChannelSpec.forQueries(qs)
  val size: Int = specs.size
  val injTid: Array[Int] = specs.map(_.injType.fold(-1)(types.of)).toArray
  private val injAttr: Array[String] = specs.map(_.attr.orNull).toArray

  /** What event `e` injects into channel `ch`, per unit of its own count. */
  def injection(e: Event, ch: Int): Double =
    if (injAttr(ch) == null) 1.0 else e.num.getOrElse(injAttr(ch), 0.0)

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
  def reader(cq: CompiledQuery): AggReader = {
    def at(name: String) = specs.indexWhere(_.name == name)
    cq.q.agg match {
      case Agg.CountE(_) => AggReader(at("N"), -1)
      case Agg.Sum(_, a) => AggReader(-1, at(s"S:$a"))
      case Agg.Avg(_, a) => AggReader(at("N"), at(s"S:$a"))
      case _             => AggReader(-1, -1)
    }
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
