package repro.baselines

import scala.collection.mutable

import repro.core.PaneAgg
import repro.events.Event
import repro.hamlet.{EnginePlan, MatchVector}
import repro.metrics.Metrics
import repro.query.TypeIds

/** MCEP-style baseline [22]: the most recent *shared two-step* approach.
  * It shares event trend **construction** across queries, then aggregates
  * the constructed trends — so unlike the online engines it pays the
  * exponential trend-enumeration cost (§1 "Challenges", §7).
  *
  * Construction sharing is modeled as in multi-pattern NFA sharing: one
  * DFS over the merged graph carries the set of queries for which the
  * current trend (prefix) is still valid; a trend is counted for every
  * query whose end type it reaches. Aggregates are computed from the
  * materialized trend (two-step), not incrementally.
  *
  * Built once per job from the plan of its queries. `maxVisits` caps DFS
  * steps so benches terminate; hitting the cap adds 1 to
  * `Metrics.truncations`, and that pane's results are lower bounds
  * (DESIGN.md, deviations).
  */
final class McepEngine(plan: EnginePlan, maxVisits: Long = 20_000_000L) {

  /** The aggregate of each query of the plan over one (group, pane), in
    * plan order.
    */
  def processPane(events: Seq[Event], metrics: Metrics): Array[PaneAgg] = {
    val t0 = System.nanoTime()
    // Locals, not fields: the DFS reads them on every visit.
    val (k, queries, layout, cap) = (plan.k, plan.queries, plan.layout, maxVisits)
    val nCh = layout.size
    // The events any query references, and their type ids.
    val evs = events.filter { e => val t = plan.types.of(e.typ); t >= 0 && TypeIds.has(plan.universeMask, t) }.toArray
    val tid = evs.map(e => plan.types.of(e.typ))
    val n = evs.length

    // Per-query matched flags and negation indices.
    val matched = new MatchVector(k)
    matched.fill(plan, n)(tid(_), evs(_))
    // Trailing negation: for query qi, ids (indices) of matched neg events.
    val trailNeg: Array[Array[Int]] = Array.tabulate(k) { qi =>
      (0 until n).filter(i => TypeIds.has(queries(qi).trailingMask, tid(i)) && matched(i, qi)).toArray
    }
    // Mid negation: (query, barrier) -> sorted indices of matched neg events.
    val midNeg: Array[Array[Array[Int]]] = Array.tabulate(k) { qi =>
      queries(qi).negTid.map(nt => (0 until n).filter(i => tid(i) == nt && matched(i, qi)).toArray)
    }

    def hasBetween(sorted: Array[Int], lo: Int, hi: Int): Boolean = {
      // any index strictly between lo and hi
      var a = 0; var b = sorted.length
      while (a < b) { val m = (a + b) / 2; if (sorted(m) <= lo) a = m + 1 else b = m }
      a < sorted.length && sorted(a) < hi
    }
    def hasAfter(sorted: Array[Int], i: Int): Boolean =
      sorted.nonEmpty && sorted.last > i

    // Edge validity of (i -> j) for query qi: transition + predicates +
    // edge predicate (Kleene-adjacent pairs) + mid-neg barriers.
    def edgeOk(qi: Int, i: Int, j: Int): Boolean = {
      val cq = queries(qi)
      val (ft, tt) = (tid(i), tid(j))
      if (!TypeIds.has(cq.predMask(tt), ft)) return false
      if (!matched(j, qi)) return false
      cq.q.edgePred match {
        case Some(ep) if ft == tt => if (!ep.holds(evs(i), evs(j))) return false
        case _                    =>
      }
      var b = 0
      while (b < cq.negTid.length) {
        if (TypeIds.has(cq.negFrom(b), ft) && TypeIds.has(cq.negTo(b), tt) &&
            hasBetween(midNeg(qi)(b), i, j)) return false
        b += 1
      }
      true
    }

    val finals = Array.fill(k)(new Array[Double](nCh))
    val finMin = Array.fill(k)(Double.PositiveInfinity)
    val finMax = Array.fill(k)(Double.NegativeInfinity)
    var visits = 0L
    var truncated = false
    var peakDepth = 0

    // The materialized current trend (two-step: aggregate from the trend).
    val trend = mutable.ArrayBuffer.empty[Int]

    def completeFor(qi: Int, last: Int): Unit = {
      val cq = queries(qi)
      if (!TypeIds.has(cq.endMask, tid(last))) return
      if (hasAfter(trailNeg(qi), last)) return
      finals(qi)(0) += 1.0
      // Aggregate the constructed trend (the "second step").
      var ch = 1
      while (ch < nCh) {
        var acc = 0.0
        trend.foreach { i => if (layout.injTid(ch) == tid(i)) acc += layout.injection(evs(i), ch) }
        finals(qi)(ch) += acc
        ch += 1
      }
      // MIN and MAX both track the two extremes (see PaneAgg).
      if (cq.minMaxTid >= 0) trend.foreach { i =>
        if (tid(i) == cq.minMaxTid) evs(i).num.get(cq.minMaxAttr).foreach { x =>
          finMin(qi) = math.min(finMin(qi), x)
          finMax(qi) = math.max(finMax(qi), x)
        }
      }
    }

    def dfs(last: Int, active: Array[Boolean]): Unit = {
      if (truncated) return
      var j = last + 1
      while (j < n && !truncated) {
        visits += 1
        if (visits > cap) { truncated = true; return }
        val next = new Array[Boolean](k)
        var any = false
        var qi = 0
        while (qi < k) {
          if (active(qi) && edgeOk(qi, last, j)) { next(qi) = true; any = true }
          qi += 1
        }
        if (any) {
          trend += j
          peakDepth = math.max(peakDepth, trend.size)
          var q2 = 0
          while (q2 < k) { if (next(q2)) completeFor(q2, j); q2 += 1 }
          dfs(j, next)
          trend.remove(trend.size - 1)
        }
        j += 1
      }
    }

    var i = 0
    while (i < n && !truncated) {
      val init = new Array[Boolean](k)
      var any = false
      var qi = 0
      while (qi < k) {
        if (TypeIds.has(queries(qi).startMask, tid(i)) && matched(i, qi)) {
          init(qi) = true; any = true
        }
        qi += 1
      }
      if (any) {
        visits += 1
        trend += i
        var q2 = 0
        while (q2 < k) { if (init(q2)) completeFor(q2, i); q2 += 1 }
        dfs(i, init)
        trend.remove(trend.size - 1)
      }
      i += 1
    }

    metrics.events += n
    metrics.wallNanos += System.nanoTime() - t0
    metrics.evalOps += visits
    metrics.observeBytes(n.toLong * 48 + peakDepth.toLong * 16 + k.toLong * nCh * 8)
    if (truncated) metrics.truncations += 1

    Array.tabulate(k)(qi => plan.readers(qi).read(finals(qi), finMin(qi), finMax(qi)))
  }
}
