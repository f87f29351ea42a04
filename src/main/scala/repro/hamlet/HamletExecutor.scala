package repro.hamlet

import scala.collection.immutable.ArraySeq

import repro.core.{PaneAgg, PaneResult}
import repro.events.Event
import repro.metrics.Metrics
import repro.query.{CompiledQuery, CompiledWorkload}

/** Executes a whole compiled workload over one (group, pane): one
  * [[SetPaneEngine]] per sharable set (shared candidates, policy-driven)
  * plus one per singleton query (always non-shared). Events are processed
  * once per set — the sharing across queries *within* a set is the paper's
  * contribution; sharing across sets does not arise because sets share no
  * Kleene sub-pattern (Definition 5). With no sets and every query a
  * singleton this is the Greta baseline ([[GretaEngine]]). Every engine
  * propagates at the cost of `profile`.
  */
final class HamletExecutor(wl: CompiledWorkload, policy: SharingPolicy, profile: CostProfile = Faithful)
    extends Serializable {

  /** Engine plans, built once: one per sharable set, one per singleton
    * query. A singleton plan has no sharable type, so `policy` is never
    * asked about it and it always runs non-shared.
    */
  private val plans: Vector[EnginePlan] =
    wl.sets.map(set => new EnginePlan(set.queries, Some(set.sharedType))) ++
      wl.singletons.map(q => new EnginePlan(Vector(q), None))

  /** Hands each query's aggregate for one pane of one group to `emit`. */
  def foreachAgg(events: Seq[Event], metrics: Metrics)(emit: (CompiledQuery, PaneAgg) => Unit): Unit = {
    val evs = events.toArray
    val tids = evs.map(e => wl.types.of(e.typ))
    plans.foreach { plan =>
      val aggs = new SetPaneEngine(plan, policy, metrics, profile).processPane(evs, tids)
      var i = 0
      while (i < aggs.length) { emit(plan.queries(i), aggs(i)); i += 1 }
    }
  }

  /** Per-query aggregates for one pane of one group. */
  def processPaneAggs(events: Seq[Event], metrics: Metrics): Map[String, PaneAgg] = {
    val out = Map.newBuilder[String, PaneAgg]
    foreachAgg(events, metrics)((q, agg) => out += q.id -> agg)
    out.result()
  }

  /** The result rows of one group, for the Spark runners: `events` are the
    * group's events in stream order ([[Event.streamOrder]]), cut into panes
    * in one linear scan.
    */
  def groupResults(grp: String, events: Array[Event], metrics: Metrics): Vector[PaneResult] = {
    val out = Vector.newBuilder[PaneResult]
    var from = 0
    while (from < events.length) {
      val pane = events(from).pane(wl.paneMs)
      var until = from + 1
      while (until < events.length && events(until).pane(wl.paneMs) == pane) until += 1
      foreachAgg(ArraySeq.unsafeWrapArray(events).slice(from, until), metrics) { (q, agg) =>
        out += PaneResult.of(q.id, grp, pane, agg)
      }
      from = until
    }
    out.result()
  }
}

/** The Greta baseline [33] (§3.2): every query runs alone on its own
  * non-shared engine, each event walking all stored predecessors (the
  * published O(n) per-event propagation). No sharing across queries — each
  * query re-processes every event — and no pane sharing across overlapping
  * windows: the bench harness replays each pane once per window instance.
  */
object GretaEngine {
  def apply(wl: CompiledWorkload): HamletExecutor =
    new HamletExecutor(wl.copy(sets = Vector.empty), NeverShare)
}
