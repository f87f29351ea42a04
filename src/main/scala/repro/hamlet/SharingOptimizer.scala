package repro.hamlet

import repro.events.Event

/** How an engine decides to share bursts of the sharable Kleene type. */
sealed trait SharingPolicy extends Serializable
/** Never share — Greta-style independent processing (§3.2). */
case object NeverShare extends SharingPolicy
/** Static compile-time decision to always share the full query set. */
case object AlwaysShare extends SharingPolicy
/** The Hamlet dynamic optimizer (§4): per-burst benefit-driven decisions
  * with the query-set choice of §4.3.
  */
final case class Dynamic(model: CostModel = Eq8Model) extends SharingPolicy

/** Outcome of one per-burst decision.
  *
  * @param sharedIdx     indices (into the engine's query vector) chosen to
  *                      share; sharing happens iff `sharedIdx.size >= 2`
  *                      and `benefit > 0` (AlwaysShare forces it)
  * @param benefit       estimated Benefit(G_E, Q_E) for the chosen set
  * @param stats         the statistics the decision used
  * @param plansExamined m+1 per §4.3's complexity analysis
  */
final case class Decision(
    sharedIdx: Vector[Int],
    benefit: Double,
    stats: BurstStats,
    plansExamined: Int,
) {
  def share: Boolean = sharedIdx.size >= 2 && benefit > 0
}

/** Predicate outcomes of a run of events: whether event `i` satisfies the
  * single-event predicates of member `q`. Filled once per burst, then read
  * by the optimizer and by both propagation paths, so no predicate runs
  * twice on the same event; MCEP and Sharon fill one per pane.
  */
final class MatchVector(val k: Int) {
  private var bits = new Array[Boolean](math.max(k, 1) * 64)
  private var ok = new Array[Boolean](8)
  private var n = 0

  def size: Int = n
  def apply(i: Int, q: Int): Boolean = bits(i * k + q)

  /** Evaluate the members of `plan` on the `size` events `event(i)`, of
    * type id `tid(i)`: each distinct predicate on the type once per event
    * ([[EnginePlan.predsOn]]), then each member's conjunction. A member
    * whose type universe lacks the type matches nothing.
    */
  def fill(plan: EnginePlan, size: Int)(tid: Int => Int, event: Int => Event): Unit = {
    if (bits.length < size * k) bits = new Array[Boolean](2 * size * k)
    n = size
    var i = 0
    while (i < size) {
      val t = tid(i)
      val e = event(i)
      val ps = plan.predsOn(t)
      if (ok.length < ps.length) ok = new Array[Boolean](2 * ps.length)
      var j = 0
      while (j < ps.length) { ok(j) = ps(j).holds(e); j += 1 }
      val need = plan.predIdx(t)
      var q = 0
      while (q < k) {
        val idx = need(q)
        var m = idx != null
        j = 0
        while (m && j < idx.length) { m = ok(idx(j)); j += 1 }
        bits(i * k + q) = m
        q += 1
      }
      i += 1
    }
  }
}

/** Per-burst sharing decisions (§4.2) and choice of query set (§4.3).
  *
  * Pruning principles: queries that introduce no snapshots for this burst
  * are always shared (Theorem 4.1); a snapshot-introducing query is kept
  * iff its marginal snapshot-maintenance cost `s_c(q)·g·p` does not exceed
  * its re-computation cost `b·(log2 g + n)` (Theorem 4.2). Only the m+1
  * plans of Levels 1–2 of the plan lattice are examined.
  */
object SharingOptimizer {

  /** Cap on the number of burst events inspected when estimating
    * divergence; beyond it we sample with a stride and extrapolate (the
    * paper plugs "locally available stream statistics" into Eq. 8).
    */
  val SampleCap = 64

  /** Decide whether (and by which queries) to share a burst.
    *
    * @param plan        the sharable set Q_E, its Kleene type E, the
    *                    members' start flags for E and Eq. 8's p and t
    * @param burst       predicate outcomes of the complete burst of events
    *                    of type E (its `size` is the burst length b)
    * @param eventsSoFar events of this (group, pane) processed before the
    *                    burst — the `n` of the model
    */
  def decide(
      policy: SharingPolicy,
      plan: EnginePlan,
      burst: MatchVector,
      eventsSoFar: Long,
  ): Decision = {
    import plan.{k, p, startMajority, startUniform, t}
    val b = burst.size.toLong

    def stats(sC: Long, sP: Long, kk: Int): BurstStats =
      BurstStats(b = b, n = eventsSoFar + b, g = b, k = kk, p = p, t = t, sC = sC, sP = sP)

    policy match {
      case NeverShare =>
        Decision(Vector.empty, Double.NegativeInfinity, stats(0, 0, k), 1)

      case AlwaysShare =>
        Decision(plan.all, Double.PositiveInfinity, stats(1, 1, k), 1)

      case Dynamic(model) =>
        val startFlags = plan.startsShared
        // Sample the burst for predicate divergence: every `stride`-th event.
        val stride = math.max(1, burst.size / SampleCap)
        val nSample = (burst.size + stride - 1) / stride
        val scale  = b.toDouble / nSample

        // Per-query divergence counts d(q): minority membership per event.
        val d = new Array[Long](k)
        var e = 0
        while (e < burst.size) {
          var nMatched = 0
          var i = 0
          while (i < k) { if (burst(e, i)) nMatched += 1; i += 1 }
          val uniform = (nMatched == 0 || nMatched == k) && startUniform
          if (!uniform) {
            val majority = nMatched * 2 >= k
            i = 0
            while (i < k) {
              if (burst(e, i) != majority || startFlags(i) != startMajority) d(i) += 1
              i += 1
            }
          }
          e += stride
        }

        val g = b
        val log2g = math.log(math.max(g, 1).toDouble) / math.log(2.0)
        val n = eventsSoFar + b
        // Thm 4.1: d(q) == 0 -> always share. Thm 4.2: keep q iff marginal
        // snapshot cost <= its re-computation cost. m counts the queries
        // introducing snapshots.
        val chosen = Vector.newBuilder[Int]
        var nChosen = 0
        var m = 0
        // Start flags among the chosen: bit 0 set if one does not start
        // with E, bit 1 if one does (3: they disagree).
        var startsSeen = 0
        var i = 0
        while (i < k) {
          if (d(i) > 0) m += 1
          if (d(i) == 0L || (d(i) * scale) * g * p <= b * (log2g + n)) {
            chosen += i
            nChosen += 1
            startsSeen |= (if (startFlags(i)) 2 else 1)
          }
          i += 1
        }
        // Re-estimate s_c for the chosen set (divergence w.r.t. the set).
        val chosenIdx = chosen.result()
        var divChosen = 0L
        if (nChosen >= 2) {
          val sUni = startsSeen != 3
          e = 0
          while (e < burst.size) {
            var nm = 0
            var j = 0
            while (j < nChosen) { if (burst(e, chosenIdx(j))) nm += 1; j += 1 }
            if ((nm != 0 && nm != nChosen) || !sUni) divChosen += 1
            e += stride
          }
        }
        val sC = 1L + (divChosen * scale).round // graphlet snapshot + event snapshots
        val sP = 1L + (divChosen * scale).round
        val st = stats(sC, sP, nChosen)
        val ben = if (nChosen >= 2) model.benefit(st) else Double.NegativeInfinity
        Decision(chosenIdx, ben, st, m + 1)
    }
  }
}
