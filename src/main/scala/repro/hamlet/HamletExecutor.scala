package repro.hamlet

import repro.core.{PaneAgg, PaneResult}
import repro.events.Event
import repro.metrics.Metrics
import repro.query.{CompiledQuery, CompiledWorkload}

/** Executes a whole compiled workload over one (group, pane): one
  * [[SetPaneEngine]] per sharable set (shared candidates, policy-driven)
  * plus one per singleton query (always non-shared). Events are processed
  * once per set — the sharing across queries *within* a set is the paper's
  * contribution; sharing across sets does not arise because sets share no
  * Kleene sub-pattern (Definition 5).
  */
final class HamletExecutor(wl: CompiledWorkload, policy: SharingPolicy) extends Serializable {

  /** Engine plans, built once: one per sharable set under `policy`, one
    * per singleton query (always non-shared).
    */
  private val plans: Vector[(EnginePlan, SharingPolicy)] =
    wl.sets.map(set => (new EnginePlan(set.queries, Some(set.sharedType)), policy)) ++
      wl.singletons.map(q => (new EnginePlan(Vector(q), None), NeverShare))

  /** Per-query aggregates for one pane of one group. */
  def processPaneAggs(events: Seq[Event], metrics: Metrics): Map[String, PaneAgg] = {
    val evs = events.toArray
    val tids = evs.map(e => wl.types.of(e.typ))
    val out = Map.newBuilder[String, PaneAgg]
    plans.foreach { case (plan, pol) =>
      out ++= new SetPaneEngine(plan, pol, metrics).processPane(evs, tids)
    }
    out.result()
  }

  /** Flat result rows for the Spark runners. */
  def processPane(grp: String, pane: Long, events: Seq[Event], metrics: Metrics): Vector[PaneResult] =
    processPaneAggs(events, metrics).toVector.sortBy(_._1).map {
      case (qid, agg) => PaneResult.of(qid, grp, pane, agg)
    }
}

/** The Greta baseline [33] (§3.2): every query runs independently on its
  * own event graph ([[repro.greta.GretaGraph]], the published O(n) per
  * event propagation). No sharing across queries — each query
  * re-processes every event — and no pane sharing across overlapping
  * windows: the bench harness re-processes each pane once per window
  * instance per query.
  */
object GretaEngine {
  def processPane(queries: Seq[CompiledQuery], events: Seq[Event], metrics: Metrics): Map[String, PaneAgg] =
    queries.map(q => q.id -> repro.greta.GretaGraph.processPane(q, events, metrics)).toMap
}
