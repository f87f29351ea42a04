package repro.hamlet

import repro.core.{LinExpr, PaneAgg}
import repro.events.Event
import repro.metrics.Metrics
import repro.query.{CompiledQuery, Pred, TypeIds}

/** Everything an engine needs that does not depend on the pane: the
  * queries, the shared Kleene type's id, the members' start flags and
  * Eq. 8 constants for it, the channel layout, the set's type universe,
  * and the members' predicate table. Built once per sharable set (or
  * singleton query) when the executor is created, and once per job for
  * the MCEP and Sharon baselines.
  */
final class EnginePlan(val queries: Vector[CompiledQuery], sharedType: Option[String]) extends Serializable {
  require(queries.nonEmpty, "an engine needs at least one query")
  val k: Int = queries.size
  /** Every member's index, in plan order. */
  val all: Vector[Int] = (0 until k).toVector
  val types: TypeIds = queries.head.types
  val nT: Int = types.size
  /** Type id of the sharable Kleene type, -1 for a singleton engine. */
  val sharedTid: Int = sharedType.fold(-1)(types.of)
  /** Per member: whether the shared type starts its pattern. */
  val startsShared: Array[Boolean] =
    queries.map(q => sharedTid >= 0 && TypeIds.has(q.startMask, sharedTid)).toArray
  /** Whether every member's start flag is the same, and the majority flag. */
  val startUniform: Boolean = startsShared.distinct.length == 1
  val startMajority: Boolean = startsShared.count(identity) * 2 >= k
  /** Eq. 8's p and t: the members' mean |pt(E, q)| and mean |types(q)|. */
  val p: Double =
    if (sharedTid < 0) 0.0 else queries.map(q => java.lang.Long.bitCount(q.predMask(sharedTid))).sum.toDouble / k
  val t: Double = queries.map(q => java.lang.Long.bitCount(q.typesMask)).sum.toDouble / k
  val layout = new ChannelLayout(queries, types)
  val readers: Vector[AggReader] = queries.map(layout.reader)
  /** Types any member references: other events neither count nor end bursts. */
  val universeMask: Long = queries.map(_.universeMask).reduce(_ | _)
  val anyEdgePred: Boolean = queries.exists(_.q.edgePred.isDefined)
  /** Per type id: the members' distinct single-event predicates on it. */
  val predsOn: Array[Array[Pred]] =
    Array.tabulate(nT)(t => queries.flatMap(_.q.preds.filter(_.typ == types.names(t))).distinct.toArray)
  /** Per type id and member: the indices into `predsOn` of the member's
    * predicates on the type, or `null` when its type universe lacks it.
    */
  val predIdx: Array[Array[Array[Int]]] = Array.tabulate(nT) { t =>
    queries.map { q =>
      if (!TypeIds.has(q.universeMask, t)) null
      else q.q.preds.filter(_.typ == types.names(t)).map(predsOn(t).indexOf(_)).distinct.toArray
    }.toArray
  }
}

/** How an engine sums a new event's predecessors. Both profiles give the
  * same results (up to summation order), decisions, snapshots and
  * graphlets; see DESIGN.md, "Published cost profiles".
  */
sealed trait CostProfile extends Serializable
/** The published cost, which the figure benches run: a non-shared event
  * walks every stored node, O(n); a shared one re-sums its graphlet, O(g·s).
  */
case object Faithful extends CostProfile
/** Running sums (Cogra, SIGMOD 2019), which the Spark runners run: a
  * non-shared event reads per-type sums, O(types), unless its query has an
  * edge predicate or MIN/MAX; a shared one reads one running expression, O(s).
  */
case object RunningSums extends CostProfile

/** Online trend aggregation over one (group, pane) for one set of queries.
  *
  * This single engine implements both execution strategies of the paper:
  *
  *  - **Non-shared** (§3.2, Greta [33]): per-query event graphs whose
  *    intermediate aggregates are plain numbers; each new event walks all
  *    stored predecessor events (Equations 1–3) — O(n) per event per
  *    query, the published cost profile (the `n` term of Eq. 8), unless
  *    the [[CostProfile]] is [[RunningSums]].
  *  - **Shared** (§3.3, Algorithm 1): one graphlet per burst of the
  *    sharable Kleene type, whose intermediate aggregates are linear
  *    expressions over *snapshots* — created at graphlet level when the
  *    graphlet opens (Definition 8) and at event level whenever per-query
  *    predicates/edge predicates make an event's predecessor set diverge
  *    across the sharing queries (Definition 9).
  *
  * The [[SharingPolicy]] decides per burst which strategy runs and for
  * which subset of queries (§4.2 split/merge, §4.3 query-set choice).
  * Runtime switching needs no state migration, exactly as the paper
  * argues: a *merge* materializes a graphlet-level snapshot whose
  * per-query values consolidate everything processed so far, read from
  * each query's per-type sums of nodes and closed shared graphlets in
  * O(channels × predecessor types) ([[QState.runningInput]]; §4.2 prices
  * it at O(k·g·t)); a *split* "comes for free" — per-query graph
  * construction just continues, with closed shared graphlets contributing
  * at aggregate granularity (the paper's "snapshot x is replaced by its
  * value per query").
  *
  * All per-event work is on type ids, bit sets and primitive arrays (see
  * DESIGN.md, "Engine data layout"); names were resolved in the plan.
  *
  * Not thread-safe; instantiate per (group, pane).
  */
final class SetPaneEngine(plan: EnginePlan, policy: SharingPolicy, metrics: Metrics,
                          profile: CostProfile = Faithful) {
  import plan.{k, nT, sharedTid, layout}
  private val queries = plan.queries
  private val nCh = layout.size
  private val ChC = 0
  /** Whether the plan has a sharable type: only then is a graphlet shared. */
  private val sharable = sharedTid >= 0

  // ------------------------------------------------------------------
  // Per-query state (non-shared graph + shared-close sums + finals)
  // ------------------------------------------------------------------
  private final class QState(val cq: CompiledQuery) {
    val hasEdge = cq.q.edgePred.isDefined
    val nB = cq.negTid.length
    /** Whether the non-shared step reads `cumAll` instead of walking: an
      * edge predicate filters single predecessors, and MIN/MAX needs each
      * one's extremes.
      */
    val runSums = profile == RunningSums && !hasEdge && cq.minMaxTid < 0

    /** Non-shared graph nodes of this pane (plus, for edge-predicate
      * queries, materialized per-query values of shared-processed events —
      * same-type pairs must be filterable per predecessor). Under
      * `runSums` the store only counts them.
      */
    val nodes = new NodeStore(cq, nCh)
    /** Σ of this query's values over events of *closed shared graphlets*,
      * per type (`nCh` entries per type id) — the aggregate-granularity
      * stand-in for those events in later walks ("snapshot replaced by its
      * value per query", §4.2). `cumSharedSet` marks the types written.
      */
    val cumShared = new Array[Double](nT * nCh)
    var cumSharedSet = 0L
    /** Σ of this query's values over *all* processed events per type
      * (nodes + closed shared graphlets) — lets a merge price its
      * graphlet-level snapshot from aggregates instead of re-walking the
      * graph (§4.2: merge cost is linear, not quadratic).
      */
    val cumAll = new Array[Double](nT * nCh)
    /** `cumAll` captured at the last matching mid-pattern negation, per
      * (barrier, type): everything of the barrier's from-types processed
      * before it, which may not cross it. Every path subtracts it.
      */
    val blockedAll = new Array[Double](nB * nT * nCh)
    /** Per barrier: the pane's event count at its last match (-1: none). */
    val blockedAt = Array.fill(nB)(-1L)
    /** The from-types of every barrier that has matched. */
    var blockedSet = 0L

    def addCum(tbl: Array[Double], tid: Int, v: Array[Double]): Unit = {
      val o = tid * nCh
      var ch = 0
      while (ch < nCh) { tbl(o + ch) += v(ch); ch += 1 }
    }

    /** Contribution of type `T` from `cum` to a new `toTid` event, net of
      * negation barriers: what may not cross is the capture of the
      * applicable barrier that matched last. (Not the largest capture: a
      * cum table falls under SUM/AVG over negative values.) An unwritten
      * capture entry is 0.
      */
    def cumNet(cum: Array[Double], T: Int, toTid: Int, ch: Int): Double = {
      var bl = 0.0
      var at = -1L
      var b = 0
      while (b < nB) {
        if (blockedAt(b) > at && TypeIds.has(cq.negFrom(b), T) && TypeIds.has(cq.negTo(b), toTid)) {
          at = blockedAt(b)
          bl = blockedAll((b * nT + T) * nCh + ch)
        }
        b += 1
      }
      cum(T * nCh + ch) - bl
    }

    /** A matched negative event of barrier `b` blocks the current `cumAll`
      * of the barrier's from-types.
      */
    def block(b: Int): Unit = {
      blockedAt(b) = nEvents
      blockedSet |= cq.negFrom(b)
      var m = cq.negFrom(b)
      while (m != 0L) {
        val T = java.lang.Long.numberOfTrailingZeros(m)
        m &= m - 1
        System.arraycopy(cumAll, T * nCh, blockedAll, (b * nT + T) * nCh, nCh)
      }
    }

    /** Add to `out` the sums in `cum` of the types in `types`, net of
      * barriers into a `tid` event.
      */
    private def addNet(cum: Array[Double], types: Long, tid: Int, out: Array[Double]): Unit = {
      var m = types
      while (m != 0L) {
        val T = java.lang.Long.numberOfTrailingZeros(m)
        m &= m - 1
        var ch = 0
        while (ch < nCh) { out(ch) += cumNet(cum, T, tid, ch); ch += 1 }
      }
    }

    /** Add to `out` what every processed event passes to a new `tid` event,
      * from the per-type sums in O(channels × predecessor types): the price
      * of a merge (Definition 8 / Eq. 5) and the running-sum step.
      */
    def runningInput(tid: Int, out: Array[Double]): Unit = {
      val pm = cq.predMask(tid)
      addNet(cumAll, pm, tid, out)
      metrics.evalOps += java.lang.Long.bitCount(pm).toLong * nCh
    }

    /** Predecessor input of a new event `e` of type `tid` into `out`. Under
      * running sums, [[runningInput]]. Otherwise the faithful walk over
      * every stored node, plus `cumShared` net of the barrier captures over
      * the types that have either (`cumAll` = nodes + `cumShared`, so the
      * blocked nodes are subtracted too). An edge-pred query keeps its shared
      * events in `nodes`, and `Workload.compile` rejects a barrier into its
      * own from-types, so no capture holds a node its filter dropped.
      */
    def predecessorBase(e: Event, tid: Int, out: Array[Double]): Unit = {
      java.util.Arrays.fill(out, 0.0)
      if (runSums) runningInput(tid, out)
      else {
        val pm = cq.predMask(tid)
        nodes.walk(e, tid, pm, out, metrics) // O(n): the published NS cost
        addNet(cumShared, pm & (cumSharedSet | blockedSet), tid, out)
      }
    }

    val finalAcc = new Array[Double](nCh)
    var finalMin = Double.PositiveInfinity
    var finalMax = Double.NegativeInfinity
    var lastNSTid = -1
  }

  // Built per (group, pane), so without a reflective ClassTag.
  private val qs: Array[QState] = {
    val a = new Array[QState](k)
    var i = 0
    while (i < k) { a(i) = new QState(queries(i)); i += 1 }
    a
  }
  private val scratch = new Array[Double](nCh)

  /** Non-shared processing of one matched event (Equations 1–3); leaves
    * the event's channel values in `scratch`.
    */
  private def processNS(st: QState, e: Event, tid: Int): Unit = {
    if (st.lastNSTid != tid) { st.lastNSTid = tid; metrics.graphlets += 1 }
    val v = scratch
    st.predecessorBase(e, tid, v)
    var mn = st.nodes.walkMin
    var mx = st.nodes.walkMax
    if (TypeIds.has(st.cq.startMask, tid)) v(ChC) += 1.0
    layout.inject(e, tid, v)
    if (tid == st.cq.minMaxTid && v(ChC) > 0) {
      e.num.get(st.cq.minMaxAttr).foreach { a => mn = math.min(mn, a); mx = math.max(mx, a) }
    }
    if (v(ChC) == 0) { mn = Double.PositiveInfinity; mx = Double.NegativeInfinity }
    if (st.runSums) st.nodes.count() else st.nodes.append(e, tid, v, mn, mx)
    if (TypeIds.has(st.cq.endMask, tid)) {
      var ch = 0
      while (ch < nCh) { st.finalAcc(ch) += v(ch); ch += 1 }
      st.finalMin = math.min(st.finalMin, mn)
      st.finalMax = math.max(st.finalMax, mx)
    }
  }

  /** One matched event for a query outside the open graphlet: a
    * pattern-final NOT first invalidates the trends ended so far (so a
    * same-type event then ends new ones), then the non-shared step, then
    * the mid-pattern barriers the event raises, which block only what came
    * before it: its own value joins `cumAll` after they capture it.
    */
  private def processAlone(st: QState, e: Event, tid: Int): Unit = {
    if (TypeIds.has(st.cq.trailingMask, tid)) {
      java.util.Arrays.fill(st.finalAcc, 0.0)
      st.finalMin = Double.PositiveInfinity
      st.finalMax = Double.NegativeInfinity
    }
    val positive = TypeIds.has(st.cq.typesMask, tid)
    if (positive) processNS(st, e, tid)
    var b = 0
    while (b < st.nB) { if (st.cq.negTid(b) == tid) st.block(b); b += 1 }
    if (positive) st.addCum(st.cumAll, tid, scratch)
  }

  // ------------------------------------------------------------------
  // Shared graphlet (linear expressions over snapshots)
  // ------------------------------------------------------------------
  private var shMembers: Array[Int] = Array.emptyIntArray
  /** Per query: whether it is a member of the open graphlet. */
  private val isMember = new Array[Boolean](k)
  /** Whether the members' start flags for the shared type agree. */
  private var shStartUniform = true
  /** Under [[RunningSums]]: the running Σ of the stored events'
    * expressions, per channel; `null` under [[Faithful]].
    */
  private val shSum = if (sharable && profile == RunningSums) new Array[LinExpr](nCh) else null
  /** Under [[Faithful]]: expressions of the graphlet's stored events, `nCh`
    * per event. Under running sums only their count and size are kept.
    */
  private var shExprs = if (sharable && shSum == null) new Array[LinExpr](64 * nCh) else null
  private var shCount = 0
  /** Σ over stored events and channels of the expression sizes. */
  private var shTerms = 0L
  private val sumBuilder = if (sharable) new LinExpr.Builder else null

  /** Snapshot table S of the open graphlet. Its snapshots are numbered
    * from 0 (the graphlet-level one); snapshot `s` has the `LinExpr` slots
    * `s * nCh + ch`, and member `q`'s value of slot `x` is at `x * k + q`.
    */
  private var snapVals = new Array[Double](8 * k * nCh)
  /** Snapshots of the open graphlet; 0 while none is open. */
  private var shSnaps = 0
  private def shActive: Boolean = shSnaps > 0
  /** The graphlet-input expressions: snapshot 0, channel by channel. */
  private val shInput = if (sharable) Array.tabulate(nCh)(LinExpr.ofSlot) else null

  /** A new all-zero snapshot of the open graphlet; returns its first slot. */
  private def newSnap(): Int = {
    val first = shSnaps * nCh
    shSnaps += 1
    val need = shSnaps * nCh * k
    if (need > snapVals.length) snapVals = java.util.Arrays.copyOf(snapVals, 2 * need)
    java.util.Arrays.fill(snapVals, first * k, need, 0.0)
    first
  }

  private def evalExpr(expr: LinExpr, q: Int): Double = {
    metrics.evalOps += expr.size.toLong
    var acc = expr.const
    var i = 0
    while (i < expr.size) { acc += expr.coefAt(i) * snapVals(expr.keyAt(i) * k + q); i += 1 }
    acc
  }

  /** Predecessor input of a new event in the shared graphlet: the
    * graphlet-input snapshot plus the expressions of all stored events.
    * Faithfully that re-sums the store — the O(n·s) walk of §3.3's
    * complexity analysis (sharing saves the ×k, not the walk); under
    * running sums it reads the one running expression, O(s).
    */
  private def sumEventExprs(ch: Int): LinExpr = {
    sumBuilder.clear()
    sumBuilder += shInput(ch)
    if (shSum != null) {
      sumBuilder += shSum(ch)
      metrics.evalOps += shSum(ch).size.toLong
    } else {
      var j = 0
      while (j < shCount) {
        val x = shExprs(j * nCh + ch)
        sumBuilder += x
        metrics.evalOps += x.size.toLong
        j += 1
      }
    }
    sumBuilder.result()
  }

  /** `acc0` plus query `q`'s stored-event values on channel `ch`: in store
    * order, or from the running expression.
    */
  private def sumStoredValues(acc0: Double, ch: Int, q: Int): Double =
    if (shSum != null) acc0 + evalExpr(shSum(ch), q)
    else {
      var acc = acc0
      var j = 0
      while (j < shCount) { acc += evalExpr(shExprs(j * nCh + ch), q); j += 1 }
      acc
    }

  /** Open a shared graphlet for `members`: create the graphlet-level
    * snapshot (Definition 8) valued per query from everything processed so
    * far. This is also exactly the *merge* of §4.2, priced from per-type
    * sums: O(channels × predecessor types) per member.
    */
  private def openShared(members: Vector[Int], tid: Int): Unit = {
    newSnap() // snapshot 0: slots 0 until nCh
    members.foreach { i =>
      // Snapshot value from per-type aggregates: merge prices in
      // O(channels × predecessor types) per query instead of re-walking the
      // per-query graphs. Uniformity at merge time makes the unfiltered
      // aggregate the right value for edge-pred queries too.
      val v = scratch
      java.util.Arrays.fill(v, 0.0)
      qs(i).runningInput(tid, v)
      var ch = 0
      while (ch < nCh) { snapVals(ch * k + i) = v(ch); ch += 1 }
    }
    if (shSum != null) shSum.mapInPlace(_ => LinExpr.zero)
    shCount = 0
    shTerms = 0L
    shMembers = members.toArray
    shMembers.foreach(isMember(_) = true)
    shStartUniform = shMembers.map(plan.startsShared(_)).distinct.length == 1
    metrics.snapshotsCreated += 1
    metrics.graphlets += 1
    metrics.sharedGraphlets += 1
  }

  /** Close the active shared graphlet: evaluate the per-query sums of its
    * events, fold them into the shared-close sums and final accumulators,
    * and drop the snapshot table (no live expression references it
    * anymore). After this, per-query non-shared graph construction simply
    * continues — the *split* of §4.2.
    */
  private def closeShared(): Unit = if (shActive) {
    shMembers.foreach { i =>
      val st = qs(i)
      val isEnd = TypeIds.has(st.cq.endMask, sharedTid)
      val v = scratch
      var ch = 0
      while (ch < nCh) {
        v(ch) = sumStoredValues(0.0, ch, i)
        if (isEnd) st.finalAcc(ch) += v(ch)
        ch += 1
      }
      // Edge-pred members already materialized each shared event into
      // their graph (nodes + cumAll); adding the graphlet sum again would
      // double count.
      if (!st.hasEdge) {
        st.addCum(st.cumShared, sharedTid, v)
        st.cumSharedSet |= 1L << sharedTid
        st.addCum(st.cumAll, sharedTid, v)
      }
    }
    shMembers.foreach(isMember(_) = false)
    shSnaps = 0
    shCount = 0
    shTerms = 0L
  }

  /** Shared processing of burst event `bi` (Algorithm 1, lines 16–21). */
  private def processShared(e: Event, bi: Int, tid: Int): Unit = {
    val nm = shMembers.length
    var nMatched = 0
    var mi = 0
    while (mi < nm) { if (burstMatches(bi, shMembers(mi))) nMatched += 1; mi += 1 }
    if (nMatched == 0) return // matched by no sharing query: skip
    // Edge predicates filter every same-type adjacent pair; sharing stays
    // uniform only while every edge-predicate member admits every stored
    // predecessor (then the filtered sum equals the shared one).
    val edgeUniform = !plan.anyEdgePred || shMembers.forall { i =>
      !qs(i).hasEdge || !burstMatches(bi, i) || qs(i).nodes.edgeAllPass(e, tid)
    }
    val uniform = nMatched == nm && shStartUniform && edgeUniform

    val exprs = new Array[LinExpr](nCh)
    if (uniform) {
      val start = if (plan.startsShared(shMembers(0))) 1.0 else 0.0
      var ch = 0
      while (ch < nCh) { exprs(ch) = sumEventExprs(ch); ch += 1 }
      exprs(ChC) = exprs(ChC) + start
      ch = 1
      while (ch < nCh) {
        if (layout.injTid(ch) == tid) exprs(ch) = exprs(ch) + exprs(ChC) * layout.injection(e, ch)
        ch += 1
      }
    } else {
      // Event-level snapshot (Definition 9): per-query values computed
      // eagerly, after which propagation continues shared.
      val first = newSnap()
      var mi = 0
      while (mi < nm) {
        val i = shMembers(mi)
        if (burstMatches(bi, i)) {
          val st = qs(i)
          val v = scratch
          if (st.hasEdge) {
            // Filtered predecessors via the per-query graph walk.
            st.predecessorBase(e, tid, v)
          } else {
            var ch = 0
            while (ch < nCh) { v(ch) = sumStoredValues(evalExpr(shInput(ch), i), ch, i); ch += 1 }
          }
          if (plan.startsShared(i)) v(ChC) += 1.0
          layout.inject(e, tid, v)
          var ch = 0
          while (ch < nCh) { snapVals((first + ch) * k + i) = v(ch); ch += 1 }
        } // else: unmatched -> all-zero values (event invisible to i)
        mi += 1
      }
      metrics.snapshotsCreated += 1
      var ch = 0
      while (ch < nCh) { exprs(ch) = LinExpr.ofSlot(first + ch); ch += 1 }
    }
    if (shSum == null) {
      if ((shCount + 1) * nCh > shExprs.length) shExprs = java.util.Arrays.copyOf(shExprs, 2 * shExprs.length)
      System.arraycopy(exprs, 0, shExprs, shCount * nCh, nCh)
    } else {
      var ch = 0
      while (ch < nCh) {
        metrics.evalOps += (shSum(ch).size + exprs(ch).size).toLong
        sumBuilder.clear()
        sumBuilder += shSum(ch)
        sumBuilder += exprs(ch)
        shSum(ch) = sumBuilder.result()
        ch += 1
      }
    }
    shCount += 1
    shTerms += exprs.iterator.map(_.size.toLong).sum
    // Edge-predicate members materialize their per-query value of this
    // event into their graph (predecessor base for later filtered walks).
    shMembers.foreach { i =>
      if (qs(i).hasEdge && burstMatches(bi, i)) {
        val v = Array.tabulate(nCh)(ch => evalExpr(exprs(ch), i))
        qs(i).nodes.append(e, tid, v, Double.PositiveInfinity, Double.NegativeInfinity)
        qs(i).addCum(qs(i).cumAll, tid, v)
      }
    }
    metrics.observeTerms(exprs(ChC).size.toLong)
  }

  // ------------------------------------------------------------------
  // Pane processing: burst segmentation, per-burst decisions, flush
  // ------------------------------------------------------------------
  private var nEvents = 0L
  private val burstMatches = new MatchVector(k)

  /** Rough state-size model (paper's peak-memory metric; see Metrics). */
  private def currentBytes: Long = {
    var b = 0L
    var i = 0
    while (i < k) {
      val st = qs(i)
      // Sum entries written: the cumShared types, and each from-type of a barrier that has blocked.
      var entries = java.lang.Long.bitCount(st.cumSharedSet)
      var nb = 0
      while (nb < st.nB) { if (st.blockedAt(nb) >= 0) entries += java.lang.Long.bitCount(st.cq.negFrom(nb)); nb += 1 }
      b += entries.toLong * nCh * 8 + nCh * 8L
      b += st.nodes.size.toLong * (48L + nCh * 8L)
      i += 1
    }
    b += shCount * 48L + shTerms * 16L
    b += shSnaps.toLong * k * nCh * 8L
    b
  }

  /** One burst: the events `events(sel(from until until))`, all of type id
    * `tid`. Only a burst of the sharable type is decided (and may open a
    * graphlet); every event then runs shared for the graphlet's members and
    * alone for every other matching query — the split "comes for free".
    */
  private def processBurst(events: Array[Event], sel: Array[Int], from: Int, until: Int, tid: Int): Unit = {
    // Burst boundary: graphlets of all other types become inactive
    // (Definitions 6 and 10). Bursts alternate types, so an open graphlet
    // is never of this burst's type.
    closeShared()
    burstMatches.fill(plan, until - from)(_ => tid, i => events(sel(from + i)))
    if (tid == sharedTid && k > 1) {
      metrics.totalBursts += 1
      val t0 = System.nanoTime()
      val dec = SharingOptimizer.decide(policy, plan, burstMatches, nEvents)
      metrics.decisions += 1
      metrics.decisionNanos += System.nanoTime() - t0
      metrics.plansExamined += dec.plansExamined
      if (dec.share) {
        metrics.sharedBursts += 1
        openShared(dec.sharedIdx, tid)
      }
    }
    var bi = 0
    while (bi < until - from) {
      val e = events(sel(from + bi))
      if (shActive) processShared(e, bi, tid)
      var i = 0
      while (i < k) {
        if (!isMember(i) && burstMatches(bi, i)) processAlone(qs(i), e, tid)
        i += 1
      }
      nEvents += 1; metrics.events += 1
      bi += 1
    }
    // Without shared graphlets the state only grows within a pane: its
    // peak is observed when the pane ends.
    if (sharable) metrics.observeBytes(currentBytes)
  }

  /** Process one pane's events (time-ordered; `tids(i)` is the workload
    * type id of `events(i)`, -1 for a type no query references) and return
    * the aggregate of each query of the plan, in plan order. Events whose
    * type no member references are ignored and do not end bursts.
    */
  def processPane(events: Array[Event], tids: Array[Int]): Array[PaneAgg] = {
    val t0 = System.nanoTime()
    val sel = new Array[Int](events.length)
    var nSel = 0
    var i = 0
    while (i < events.length) {
      if (tids(i) >= 0 && TypeIds.has(plan.universeMask, tids(i))) { sel(nSel) = i; nSel += 1 }
      i += 1
    }
    var from = 0
    while (from < nSel) {
      val tid = tids(sel(from))
      var until = from + 1
      while (until < nSel && tids(sel(until)) == tid) until += 1
      processBurst(events, sel, from, until, tid)
      from = until
    }
    // Pane end: every graphlet completes (Definition 10).
    closeShared()
    metrics.observeBytes(currentBytes)
    metrics.wallNanos += System.nanoTime() - t0
    val out = new Array[PaneAgg](k)
    i = 0
    while (i < k) { out(i) = plan.readers(i).read(qs(i).finalAcc, qs(i).finalMin, qs(i).finalMax); i += 1 }
    out
  }
}
