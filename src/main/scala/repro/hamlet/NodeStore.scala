package repro.hamlet

import repro.events.Event
import repro.metrics.Metrics
import repro.query.{CompiledQuery, TypeIds}

/** The stored nodes of one query's non-shared event graph in one pane, and
  * the O(n) predecessor walk over them (§3.2, Equations 1–3).
  *
  * Nodes are stored column-wise: a type-id column, a flat column of channel
  * values (`nCh` per node), min/max columns for MIN/MAX queries, and the
  * event itself only when an edge predicate has to look at it. Nodes are
  * appended in stream order, so a node's index is its position. The walk
  * visits every node and tests its type against the new event's
  * predecessor bit set.
  */
final class NodeStore(cq: CompiledQuery, nCh: Int) {
  private val edgePred = cq.q.edgePred.orNull
  private val nB = cq.negTid.length
  private val keepEvents = edgePred != null
  /** Whether an edge can be invalid although its types are predecessors. */
  private val checkEdges = keepEvents || nB > 0
  private val minMax = cq.minMaxTid >= 0

  /** Per mid-negation barrier: the nodes stored before its last matched
    * negative event, whose edges across it are dead (-1: none matched).
    */
  val lastNeg: Array[Int] = Array.fill(nB)(-1)

  private var n = 0
  private var tids = new Array[Int](16)
  private var vals = new Array[Double](16 * nCh)
  private var mins: Array[Double] = if (minMax) new Array[Double](16) else null
  private var maxs: Array[Double] = if (minMax) new Array[Double](16) else null
  private var evs: Array[Event] = if (keepEvents) new Array[Event](16) else null

  /** Min and max over the predecessors admitted by the last `walk`. */
  var walkMin: Double = Double.PositiveInfinity
  var walkMax: Double = Double.NegativeInfinity

  def size: Int = n

  def append(e: Event, tid: Int, v: Array[Double], mn: Double, mx: Double): Unit = {
    if (n == tids.length) {
      val cap = 2 * n
      tids = java.util.Arrays.copyOf(tids, cap)
      vals = java.util.Arrays.copyOf(vals, cap * nCh)
      if (minMax) { mins = java.util.Arrays.copyOf(mins, cap); maxs = java.util.Arrays.copyOf(maxs, cap) }
      if (keepEvents) evs = java.util.Arrays.copyOf(evs, cap)
    }
    tids(n) = tid
    System.arraycopy(v, 0, vals, n * nCh, nCh)
    if (minMax) { mins(n) = mn; maxs(n) = mx }
    if (keepEvents) evs(n) = e
    n += 1
  }

  /** Add to `out` the channel values of every stored node whose type is in
    * `predMask` and whose edge to the new event `e` (type id `tid`) is
    * valid; set `walkMin`/`walkMax`. Every stored node is visited and
    * counted in `evalOps`: the published O(n) per-event cost.
    */
  def walk(e: Event, tid: Int, predMask: Long, out: Array[Double], metrics: Metrics): Unit = {
    metrics.evalOps += n
    var mn = Double.PositiveInfinity
    var mx = Double.NegativeInfinity
    var j = 0
    while (j < n) {
      if (TypeIds.has(predMask, tids(j)) && (!checkEdges || edgeOk(j, e, tid))) {
        val base = j * nCh
        var ch = 0
        while (ch < nCh) { out(ch) += vals(base + ch); ch += 1 }
        if (minMax) { mn = math.min(mn, mins(j)); mx = math.max(mx, maxs(j)) }
      }
      j += 1
    }
    walkMin = mn
    walkMax = mx
  }

  /** Edge validity from stored node `j` to a new event `e` of type `tid`:
    * the edge predicate filters same-type pairs, and a barrier kills edges
    * from nodes before the last matching negative event.
    */
  private def edgeOk(j: Int, e: Event, tid: Int): Boolean = {
    val ptid = tids(j)
    if (edgePred != null && ptid == tid && !edgePred.holds(evs(j), e)) return false
    var b = 0
    while (b < nB) {
      if (j < lastNeg(b) && TypeIds.has(cq.negFrom(b), ptid) && TypeIds.has(cq.negTo(b), tid)) return false
      b += 1
    }
    true
  }

  /** Whether the edge predicate admits every stored same-type predecessor
    * of `e` (then filtered and shared sums agree).
    */
  def edgeAllPass(e: Event, tid: Int): Boolean = {
    var j = 0
    while (j < n) {
      if (tids(j) == tid && !edgePred.holds(evs(j), e)) return false
      j += 1
    }
    true
  }
}
