package repro.testkit

import repro.baselines.{McepEngine, SharonEngine}
import repro.core.PaneAgg
import repro.events.Event
import repro.hamlet._
import repro.metrics.Metrics
import repro.query.{CompiledWorkload, TrendQuery, Workload}

/** Thin test facade: run every implementation over a single-pane event
  * sequence and return per-query aggregates.
  */
object Engines {

  def compile(qs: Seq[TrendQuery]): CompiledWorkload = Workload.compile(qs)

  def hamlet(qs: Seq[TrendQuery], events: Seq[Event], policy: SharingPolicy,
             metrics: Metrics = new Metrics, profile: CostProfile = Faithful): Map[String, PaneAgg] =
    new HamletExecutor(compile(qs), policy, profile).processPaneAggs(events, metrics)

  def greta(qs: Seq[TrendQuery], events: Seq[Event],
            metrics: Metrics = new Metrics): Map[String, PaneAgg] =
    GretaEngine(compile(qs)).processPaneAggs(events, metrics)

  /** One engine plan over every query of `qs`, for the baselines. */
  def plan(qs: Seq[TrendQuery]): EnginePlan = new EnginePlan(compile(qs).queries, None)

  /** Query ids zipped with an engine's results in plan order. */
  private def byId(plan: EnginePlan, aggs: Array[PaneAgg]): Map[String, PaneAgg] =
    plan.queries.map(_.id).zip(aggs).toMap

  def mcep(qs: Seq[TrendQuery], events: Seq[Event]): Map[String, PaneAgg] = {
    val (p, metrics) = (plan(qs), new Metrics)
    val out = new McepEngine(p).processPane(events, metrics)
    require(metrics.truncations == 0, "MCEP enumeration truncated in a correctness test")
    byId(p, out)
  }

  def sharon(qs: Seq[TrendQuery], events: Seq[Event], maxLen: Int = 512): Map[String, PaneAgg] = {
    val (p, metrics) = (plan(qs), new Metrics)
    val out = new SharonEngine(p, fixedLen = 0, maxLen).processPane(events, metrics)
    require(metrics.truncations == 0, "Sharon flattening truncated in a correctness test")
    byId(p, out)
  }

  def brute(qs: Seq[TrendQuery], events: Seq[Event]): Map[String, PaneAgg] = {
    val wl = compile(qs)
    wl.queries.map(q => q.id -> BruteForce.aggs(q, events.toIndexedSeq)).toMap
  }

  def assertSame(a: Map[String, PaneAgg], b: Map[String, PaneAgg], hint: String = ""): Unit = {
    assert(a.keySet == b.keySet, s"$hint query sets differ")
    a.keySet.foreach(q => assert(a(q).agrees(b(q)), s"$hint query $q: ${a(q)} vs ${b(q)}"))
  }
}
