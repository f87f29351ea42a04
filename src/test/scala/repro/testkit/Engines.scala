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
             metrics: Metrics = new Metrics): Map[String, PaneAgg] =
    new HamletExecutor(compile(qs), policy).processPaneAggs(events, metrics)

  def greta(qs: Seq[TrendQuery], events: Seq[Event],
            metrics: Metrics = new Metrics): Map[String, PaneAgg] =
    GretaEngine(compile(qs)).processPaneAggs(events, metrics)

  def mcep(qs: Seq[TrendQuery], events: Seq[Event]): Map[String, PaneAgg] = {
    val out = McepEngine.processPane(compile(qs).queries, events, new Metrics)
    require(!out.truncated, "MCEP enumeration truncated in a correctness test")
    out.aggs
  }

  def sharon(qs: Seq[TrendQuery], events: Seq[Event], maxLen: Int = 512): Map[String, PaneAgg] = {
    val out = SharonEngine.processPane(compile(qs).queries, events, new Metrics, fixedLen = 0, maxLen)
    require(!out.truncated, "Sharon flattening truncated in a correctness test")
    out.aggs
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
