package repro.baselines

import repro.core.PaneAgg
import repro.events.Event
import repro.hamlet.ChannelSpec
import repro.metrics.Metrics
import repro.query.{CompiledQuery, PEvent, PKleene, PNot, PSeq}

/** Sharon-style baseline [35]: *online* aggregation of **fixed-length**
  * event sequences (no Kleene closure). As in the paper's methodology
  * (§6.1), each Kleene sub-pattern `E+` is flattened into fixed-length
  * sequence queries covering every length 1..L, where L is the longest
  * possible match (here: the number of E events in the pane, capped at
  * `maxLen` for terminating benches — the cap is reported).
  *
  * Per flattened variant we keep A-Seq-style online prefix counts
  * (`cnt(i)` = matched prefixes of length i, skip-till-any-match), so a
  * single E event costs O(Σ_j j) = O(L²) per Kleene query — the overhead
  * that dominates Sharon on trend workloads (Figure 9 discussion).
  */
object SharonEngine {

  /** Positive linear item sequence of a flattenable pattern:
    * (preTypes, kleeneType, postTypes). Mid/trailing negation positions are
    * handled via the compiled template's barriers.
    */
  private def flattenShape(cq: CompiledQuery): (Vector[String], String, Vector[String]) = {
    def atoms(p: repro.query.Pattern): Vector[Either[String, String]] = p match {
      case PEvent(t)   => Vector(Left(t))
      case PKleene(PEvent(t)) => Vector(Right(t))
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

  /** @param fixedLen static flatten length l per §6.1 methodology (the
    *                 estimated longest match, fixed for the workload at
    *                 compile time); None derives it per pane (charitable)
    */
  def processPane(
      queries: Seq[CompiledQuery],
      events: Seq[Event],
      metrics: Metrics,
      maxLen: Int = 64,
      fixedLen: Option[Int] = None,
  ): PaneOut = {
    val t0 = System.nanoTime()
    val channels = ChannelSpec.forQueries(queries)
    val nCh = channels.size
    var truncated = false
    val out = Map.newBuilder[String, PaneAgg]

    queries.foreach { cq =>
      val (pre, e, post) = flattenShape(cq)
      val universe = cq.tpl.typeUniverse
      val evs = events.filter(ev => universe.contains(ev.typ))
      val nE = evs.count(ev => ev.typ == e && cq.q.matches(ev))
      val L = math.min(math.max(fixedLen.getOrElse(nE), math.max(nE, 1)), maxLen)
      if (nE > maxLen) truncated = true

      // Variant j has positions: pre ++ (e × j) ++ post, 1 <= j <= L.
      // cnt(v)(i) = matched prefixes of length i (cnt(v)(0) = 1 virtual);
      // chans(v)(ch)(i) = channel totals over those prefixes.
      val lens = Array.tabulate(L)(j => pre.length + (j + 1) + post.length)
      val posType: Array[Array[String]] = Array.tabulate(L) { j =>
        (pre ++ Vector.fill(j + 1)(e) ++ post).toArray
      }
      val cnt = Array.tabulate(L)(j => { val a = new Array[Double](lens(j) + 1); a(0) = 1.0; a })
      val chans = Array.tabulate(L)(j => Array.fill(nCh - 1)(new Array[Double](lens(j) + 1)))

      val barriers = cq.tpl.midNegs

      evs.foreach { ev =>
        val matched = cq.q.matches(ev)
        val isTrailNeg = matched && cq.tpl.trailingNegs.contains(ev.typ)
        val isPos = matched && cq.tpl.types.contains(ev.typ)
        val negs = if (matched) barriers.filter(_.negType == ev.typ) else Nil
        // A pattern-final NOT resets before a same-type event ends new trends.
        if (isTrailNeg) {
          var j = 0
          while (j < L) {
            cnt(j)(lens(j)) = 0.0
            var ch = 0; while (ch < nCh - 1) { chans(j)(ch)(lens(j)) = 0.0; ch += 1 }
            j += 1
          }
        }
        if (isPos || negs.nonEmpty) {
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
              if (negs.nonEmpty && i < lens(j) &&
                  negs.exists(nb => nb.fromTypes.contains(pt(i - 1)) && nb.toTypes.contains(pt(i)))) {
                cnt(j)(i) = 0.0
                var ch = 0; while (ch < nCh - 1) { chans(j)(ch)(i) = 0.0; ch += 1 }
              }
              if (isPos && pt(i - 1) == ev.typ) {
                val add = cnt(j)(i - 1)
                cnt(j)(i) += add
                var ch = 1
                while (ch < nCh) {
                  val spec = channels(ch)
                  val inj = if (spec.injType.contains(ev.typ)) spec.injection(ev) else 0.0
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
      out += cq.id -> ChannelSpec.reader(channels, cq.q.agg)
        .read(chTot, Double.PositiveInfinity, Double.NegativeInfinity)
    }
    metrics.wallNanos += System.nanoTime() - t0
    PaneOut(out.result(), truncated)
  }
}
