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
  * appended in stream order. The walk visits every node and tests its type
  * against the new event's predecessor bit set and the edge predicate;
  * what a negation barrier blocks, the engine subtracts from per-type sums.
  * A query on the running-sum step never walks: its store only counts its
  * nodes, for the byte model, and allocates no columns.
  */
final class NodeStore(cq: CompiledQuery, nCh: Int) {
  private val edgePred = cq.q.edgePred.orNull
  private val keepEvents = edgePred != null
  private val minMax = cq.minMaxTid >= 0

  private var n = 0
  private var tids = Array.emptyIntArray
  private var vals = Array.emptyDoubleArray
  private var mins = Array.emptyDoubleArray
  private var maxs = Array.emptyDoubleArray
  private var evs = new Array[Event](0)

  /** Min and max over the predecessors admitted by the last `walk`. */
  var walkMin: Double = Double.PositiveInfinity
  var walkMax: Double = Double.NegativeInfinity

  def size: Int = n

  /** A node that is never walked: counted only. */
  def count(): Unit = n += 1

  def append(e: Event, tid: Int, v: Array[Double], mn: Double, mx: Double): Unit = {
    if (n == tids.length) {
      val cap = math.max(16, 2 * n)
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
    * `predMask` and whose edge to the new event `e` (type id `tid`) the edge
    * predicate admits (it filters same-type pairs); set `walkMin`/`walkMax`.
    * Every stored node is visited and counted in `evalOps`: the published
    * O(n) per-event cost.
    */
  def walk(e: Event, tid: Int, predMask: Long, out: Array[Double], metrics: Metrics): Unit = {
    metrics.evalOps += n
    var mn = Double.PositiveInfinity
    var mx = Double.NegativeInfinity
    var j = 0
    while (j < n) {
      // `edgeOk` stays a call: written inline, the test made this loop about twice as slow.
      if (TypeIds.has(predMask, tids(j)) && (!keepEvents || edgeOk(j, e, tid))) {
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

  /** Whether the edge predicate admits node `j` → `e` (it filters same-type pairs). */
  private def edgeOk(j: Int, e: Event, tid: Int): Boolean =
    tids(j) != tid || edgePred.holds(evs(j), e)

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
