package repro.testkit

import repro.core.PaneAgg
import repro.events.Event
import repro.query.{Agg, CompiledQuery}

/** Exponential reference implementation: enumerates every trend of a query
  * over a (single-group, single-pane) event sequence by direct recursion,
  * then aggregates the materialized trends. Deliberately written with none
  * of the engines' machinery (no graphlets, snapshots, masks, prefix
  * counts) so it cross-checks all of them independently.
  */
object BruteForce {

  /** All trends as index vectors into `events` (arrival order = index). */
  def trends(q: CompiledQuery, events: IndexedSeq[Event]): Vector[Vector[Int]] = {
    val n = events.size
    val tpl = q.tpl
    def matched(i: Int) = q.q.preds.forall(p => events(i).typ != p.typ || p.holds(events(i)))
    def negBetween(lo: Int, hi: Int, negType: String): Boolean =
      ((lo + 1) until hi).exists(i => events(i).typ == negType && matched(i))
    def edgeOk(i: Int, j: Int): Boolean = {
      val (ft, tt) = (events(i).typ, events(j).typ)
      if (!tpl.transitions.contains((ft, tt))) return false
      q.q.edgePred match {
        case Some(ep) if ft == tt => if (!ep.holds(events(i), events(j))) return false
        case _                    =>
      }
      tpl.midNegs.forall { nb =>
        !(nb.fromTypes.contains(ft) && nb.toTypes.contains(tt) && negBetween(i, j, nb.negType))
      }
    }
    def trailOk(last: Int): Boolean =
      tpl.trailingNegs.forall(nt => !((last + 1) until n).exists(i => events(i).typ == nt && matched(i)))

    val acc = Vector.newBuilder[Vector[Int]]
    def extend(prefix: List[Int]): Unit = {
      val last = prefix.head
      if (tpl.endTypes.contains(events(last).typ) && trailOk(last))
        acc += prefix.reverse.toVector
      var j = last + 1
      while (j < n) {
        if (matched(j) && edgeOk(last, j)) extend(j :: prefix)
        j += 1
      }
    }
    for (i <- 0 until n)
      if (tpl.startTypes.contains(events(i).typ) && matched(i)) extend(List(i))
    acc.result()
  }

  /** Aggregate the enumerated trends into the engines' channel layout. */
  def aggs(q: CompiledQuery, events: IndexedSeq[Event]): PaneAgg = {
    val ts = trends(q, events)
    def over(t: String, f: Event => Double): Double =
      ts.map(_.map(events).filter(_.typ == t).map(f).sum).sum
    def extremes(t: String, a: String) = {
      val vs = ts.flatMap(_.map(events).filter(_.typ == t).flatMap(_.num.get(a)))
      if (vs.isEmpty) (0.0, 0.0, Double.PositiveInfinity, Double.NegativeInfinity)
      else (0.0, 0.0, vs.min, vs.max)
    }
    val (n, s, mn, mx) = q.q.agg match {
      case Agg.CountStar  => (0.0, 0.0, Double.PositiveInfinity, Double.NegativeInfinity)
      case Agg.CountE(t)  => (over(t, _ => 1.0), 0.0, Double.PositiveInfinity, Double.NegativeInfinity)
      case Agg.Sum(t, a)  => (0.0, over(t, _.num.getOrElse(a, 0.0)), Double.PositiveInfinity, Double.NegativeInfinity)
      case Agg.Avg(t, a)  => (over(t, _ => 1.0), over(t, _.num.getOrElse(a, 0.0)), Double.PositiveInfinity, Double.NegativeInfinity)
      // MIN and MAX both track the two extremes (see PaneAgg).
      case Agg.Min(t, a) => extremes(t, a)
      case Agg.Max(t, a) => extremes(t, a)
    }
    PaneAgg(ts.size.toDouble, n, s, mn, mx)
  }
}
