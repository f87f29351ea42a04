package repro.greta

import repro.core.PaneAgg
import repro.events.Event
import repro.hamlet.{ChannelLayout, NodeStore}
import repro.metrics.Metrics
import repro.query.{CompiledQuery, TypeIds}

/** Faithful Greta [33] baseline (§3.2): one query, one pane, one graph.
  *
  * Every matched event is stored as a node; the intermediate aggregate of
  * a new event is computed by iterating over **all stored predecessor
  * events** and summing along valid edges (Equations 1–3) — O(n) per
  * event, O(n²) per pane, exactly the cost profile the paper attributes to
  * the non-shared baseline. (Hamlet's engine replaces this per-event walk
  * with graphlet running sums and shared snapshot expressions; keeping the
  * baseline on the published algorithm preserves the measured gap and
  * gives the test suite a third independent implementation.) The nodes and
  * the walk are the column-wise [[NodeStore]] the Hamlet engine uses.
  */
object GretaGraph {

  def processPane(cq: CompiledQuery, events: IterableOnce[Event], metrics: Metrics): PaneAgg = {
    val t0 = System.nanoTime()
    val layout = new ChannelLayout(Seq(cq), cq.types)
    val nCh = layout.size

    val nodes = new NodeStore(cq, nCh)
    val v = new Array[Double](nCh)
    val finalAcc = new Array[Double](nCh)
    var finalMin = Double.PositiveInfinity
    var finalMax = Double.NegativeInfinity

    events.iterator.foreach { e =>
      val tid = cq.types.of(e.typ)
      if (tid >= 0 && TypeIds.has(cq.universeMask, tid)) {
        metrics.events += 1
        val matched = cq.matches(e, tid)
        if (matched && TypeIds.has(cq.typesMask, tid)) {
          java.util.Arrays.fill(v, 0.0)
          nodes.walk(e, tid, cq.predMask(tid), v, metrics) // the O(n) predecessor walk
          var mn = nodes.walkMin
          var mx = nodes.walkMax
          if (TypeIds.has(cq.startMask, tid)) v(0) += 1.0
          layout.inject(e, tid, v)
          if (tid == cq.minMaxTid && v(0) > 0) {
            e.num.get(cq.minMaxAttr).foreach { a => mn = math.min(mn, a); mx = math.max(mx, a) }
          }
          if (v(0) == 0) { mn = Double.PositiveInfinity; mx = Double.NegativeInfinity }
          nodes.append(e, tid, v, mn, mx)
          if (TypeIds.has(cq.endMask, tid)) {
            var ch = 0
            while (ch < nCh) { finalAcc(ch) += v(ch); ch += 1 }
            finalMin = math.min(finalMin, mn)
            finalMax = math.max(finalMax, mx)
          }
        }
        // Negation roles.
        if (matched && TypeIds.has(cq.trailingMask, tid)) {
          java.util.Arrays.fill(finalAcc, 0.0)
          finalMin = Double.PositiveInfinity
          finalMax = Double.NegativeInfinity
        }
        if (matched) {
          var b = 0
          while (b < cq.negTid.length) {
            if (cq.negTid(b) == tid) nodes.lastNeg(b) = e.id
            b += 1
          }
        }
      }
    }

    metrics.observeBytes(nodes.size.toLong * (48L + nCh * 8L))
    metrics.wallNanos += System.nanoTime() - t0
    layout.reader(cq).read(finalAcc, finalMin, finalMax)
  }
}
