package repro.baselines

import repro.core.PaneAgg
import repro.events.Event
import repro.hamlet.{EnginePlan, MatchVector}
import repro.metrics.Metrics
import repro.query.{CompiledQuery, PEvent, PKleene, PNot, PSeq, TypeIds}

/** Sharon-style baseline [35]: *online* aggregation of **fixed-length**
  * event sequences (no Kleene closure). As in the paper's methodology
  * (§6.1), each Kleene sub-pattern `E+` is flattened into fixed-length
  * sequence queries covering every length 1..L, where L is the longest
  * possible match (here: the number of E events in the pane, capped at
  * `maxLen` for terminating benches; hitting the cap adds 1 to
  * `Metrics.truncations`).
  *
  * Per flattened variant we keep A-Seq-style online prefix counts
  * (`cnt(i)` = matched prefixes of length i, skip-till-any-match), so a
  * single E event costs O(Σ_j j) = O(L²) per Kleene query — the overhead
  * that dominates Sharon on trend workloads (Figure 9 discussion).
  *
  * Built once per job from the plan of its queries; the constructor
  * rejects a query it cannot flatten, before any pane runs.
  *
  * @param fixedLen static flatten length l per §6.1 methodology (the
  *                 estimated longest match, fixed for the workload at
  *                 compile time); each pane flattens to at least its own
  *                 count of Kleene events, so 0 derives it per pane
  */
final class SharonEngine(plan: EnginePlan, fixedLen: Int, maxLen: Int = 64) {
  import plan.{queries, types}

  /** Positive linear item sequence of a flattenable pattern, as type ids:
    * (preTypes, kleeneType, postTypes). Mid/trailing negation positions are
    * handled via the compiled query's barriers. Edge predicates and MIN/MAX
    * cannot be evaluated on prefix counts and are rejected.
    */
  private def flattenShape(cq: CompiledQuery): (Vector[Int], Int, Vector[Int]) = {
    require(cq.q.edgePred.isEmpty, s"${cq.id}: Sharon flattening cannot apply an edge predicate")
    require(cq.minMaxAttr == null, s"${cq.id}: Sharon prefix counts cannot track MIN/MAX")
    def atoms(p: repro.query.Pattern): Vector[Either[Int, Int]] = p match {
      case PEvent(t)   => Vector(Left(cq.types.of(t)))
      case PKleene(PEvent(t)) => Vector(Right(cq.types.of(t)))
      case PSeq(items) => items.toVector.flatMap(atoms)
      case PNot(_)     => Vector.empty
      case other => throw new IllegalArgumentException(s"Sharon flattening unsupported for $other")
    }
    val as = atoms(cq.q.pattern)
    val ki = as.indexWhere(_.isRight)
    require(ki >= 0 && as.count(_.isRight) == 1, s"${cq.id}: need exactly one E+ to flatten")
    (as.take(ki).map(_.left.toOption.get),
     as(ki).toOption.get,
     as.drop(ki + 1).map(_.left.toOption.get))
  }

  private val shapes: Vector[(Vector[Int], Int, Vector[Int])] = queries.map(flattenShape)

  /** The aggregate of each query of the plan over one (group, pane), in
    * plan order.
    */
  def processPane(events: Seq[Event], metrics: Metrics): Array[PaneAgg] = {
    val t0 = System.nanoTime()
    // Locals, not fields: the prefix-count loops read them per event.
    val layout = plan.layout
    val nCh = layout.size
    val evs = events.toArray
    val tids = evs.map(ev => types.of(ev.typ))
    val out = new Array[PaneAgg](queries.size)
    // The events any member references, and every member's predicate outcomes on them.
    val sel = evs.indices.filter(i => tids(i) >= 0 && TypeIds.has(plan.universeMask, tids(i))).toArray
    val matches = new MatchVector(queries.size)
    matches.fill(plan, sel.length)(p => tids(sel(p)), p => evs(sel(p)))

    for (qi <- queries.indices) {
      val cq = queries(qi)
      val (pre, e, post) = shapes(qi)
      val idx = sel.indices.filter(p => TypeIds.has(cq.universeMask, tids(sel(p))))
      val nE = idx.count(p => tids(sel(p)) == e && matches(p, qi))
      val L = math.min(math.max(fixedLen, math.max(nE, 1)), maxLen)
      if (nE > maxLen) metrics.truncations += 1

      // Variant j has positions: pre ++ (e × j) ++ post, 1 <= j <= L.
      // cnt(v)(i) = matched prefixes of length i (cnt(v)(0) = 1 virtual);
      // chans(v)(ch)(i) = channel totals over those prefixes.
      val lens = Array.tabulate(L)(j => pre.length + (j + 1) + post.length)
      val posType: Array[Array[Int]] = Array.tabulate(L) { j =>
        (pre ++ Vector.fill(j + 1)(e) ++ post).toArray
      }
      val cnt = Array.tabulate(L)(j => { val a = new Array[Double](lens(j) + 1); a(0) = 1.0; a })
      val chans = Array.tabulate(L)(j => Array.fill(nCh - 1)(new Array[Double](lens(j) + 1)))

      // Whether a matched event of type `tid` blocks the edge from stage
      // type `from` to stage type `to` (a mid-pattern NOT between them).
      def blocks(tid: Int, from: Int, to: Int): Boolean = {
        var b = 0
        while (b < cq.negTid.length) {
          if (cq.negTid(b) == tid && TypeIds.has(cq.negFrom(b), from) && TypeIds.has(cq.negTo(b), to)) return true
          b += 1
        }
        false
      }

      val negMask = cq.negTid.foldLeft(0L)((m, t) => m | (1L << t))
      idx.foreach { p =>
        val ev = evs(sel(p))
        val tid = tids(sel(p))
        val matched = matches(p, qi)
        val isTrailNeg = matched && TypeIds.has(cq.trailingMask, tid)
        val isPos = matched && TypeIds.has(cq.typesMask, tid)
        val isNeg = matched && TypeIds.has(negMask, tid)
        // A pattern-final NOT resets before a same-type event ends new trends.
        if (isTrailNeg) {
          var j = 0
          while (j < L) {
            cnt(j)(lens(j)) = 0.0
            var ch = 0; while (ch < nCh - 1) { chans(j)(ch)(lens(j)) = 0.0; ch += 1 }
            j += 1
          }
        }
        if (isPos || isNeg) {
          var j = 0
          while (j < L) {
            val pt = posType(j)
            var i = lens(j)
            while (i >= 1) {
              // A mid-pattern NOT between 1-based stages i and i+1 blocks
              // the prefixes that ended at stage i before this event. Stage
              // i+1 already read them (edges into the negating event stay
              // valid); the event's own extension to stage i is added after
              // the reset (edges out of it stay valid too).
              if (isNeg && i < lens(j) && blocks(tid, pt(i - 1), pt(i))) {
                cnt(j)(i) = 0.0
                var ch = 0; while (ch < nCh - 1) { chans(j)(ch)(i) = 0.0; ch += 1 }
              }
              if (isPos && pt(i - 1) == tid) {
                val add = cnt(j)(i - 1)
                cnt(j)(i) += add
                var ch = 1
                while (ch < nCh) {
                  val inj = if (layout.injTid(ch) == tid) layout.injection(ev, ch) else 0.0
                  chans(j)(ch - 1)(i) += chans(j)(ch - 1)(i - 1) + inj * add
                  ch += 1
                }
                metrics.evalOps += nCh
              }
              i -= 1
            }
            j += 1
          }
        }
        metrics.events += 1
      }

      val chTot = new Array[Double](nCh)
      for (j <- 0 until L) {
        chTot(0) += cnt(j)(lens(j))
        var ch = 1
        while (ch < nCh) { chTot(ch) += chans(j)(ch - 1)(lens(j)); ch += 1 }
      }
      metrics.observeBytes(lens.map(l => (l + 1).toLong * nCh * 8).sum)
      out(qi) = plan.readers(qi).read(chTot, Double.PositiveInfinity, Double.NegativeInfinity)
    }
    metrics.wallNanos += System.nanoTime() - t0
    out
  }
}
