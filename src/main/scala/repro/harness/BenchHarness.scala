package repro.harness

import scala.collection.mutable

import repro.baselines.{McepEngine, SharonEngine}
import repro.core.PaneAgg
import repro.events.Event
import repro.hamlet.{GretaEngine, HamletExecutor, SharingPolicy}
import repro.metrics.Metrics
import repro.query.CompiledWorkload

/** One measured engine run over a replayed stream.
  *
  * @param latencyMs  avg wall time to produce the results of one
  *                   (group, pane) unit — the paper's latency proxy
  *                   (processing time until the result can be emitted)
  * @param total      every (query, group, pane) result combined with
  *                   `PaneAgg.+` — must agree across engines on the same
  *                   input, channel by channel
  */
final case class RunResult(
    name: String,
    wallMs: Double,
    latencyMs: Double,
    throughputEps: Double,
    peakBytes: Long,
    metrics: Metrics,
    truncated: Boolean,
    total: PaneAgg,
)

/** Replays a stream through the engines with the orchestration each
  * approach prescribes (§6.1 Methodology):
  *
  *  - Hamlet: each (group, pane) processed once for the whole workload;
  *    results of overlapping windows reuse pane results (pane sharing).
  *  - Greta: no sharing — each query processes each pane once per
  *    overlapping window instance (w/slide times).
  *  - MCEP: shared two-step construction across queries, but no pane
  *    sharing across windows.
  *  - Sharon: flattened fixed-length online aggregation per query, no pane
  *    sharing across windows.
  */
object BenchHarness {

  /** (group, pane) partitions in time order. */
  def partition(events: Seq[Event], paneMs: Long): Vector[((String, Long), Vector[Event])] =
    events
      .groupBy(e => (e.grp, e.pane(paneMs)))
      .view.mapValues(_.toVector.sorted(Event.streamOrder))
      .toVector
      .sortBy { case ((g, p), _) => (p, g) }

  private def result(name: String, wallNanos: Long, nEvents: Long, nUnits: Long,
                     metrics: Metrics, truncated: Boolean, total: PaneAgg): RunResult = {
    val wallMs = wallNanos / 1e6
    RunResult(name, wallMs,
      latencyMs = wallMs / math.max(nUnits, 1),
      throughputEps = nEvents / math.max(wallMs / 1000.0, 1e-9),
      peakBytes = metrics.peakBytes, metrics = metrics,
      truncated = truncated, total = total)
  }

  def runHamlet(wl: CompiledWorkload, policy: SharingPolicy, events: Seq[Event],
                name: String = "HAMLET"): RunResult = {
    val metrics = new Metrics
    val parts = partition(events, wl.paneMs)
    val exec = new HamletExecutor(wl, policy)
    var total = PaneAgg.empty
    val t0 = System.nanoTime()
    parts.foreach { case (_, evs) => exec.foreachAgg(evs, metrics)((_, agg) => total += agg) }
    result(name, System.nanoTime() - t0, events.size.toLong, parts.size.toLong,
      metrics, truncated = false, total)
  }

  def runGreta(wl: CompiledWorkload, events: Seq[Event]): RunResult = {
    val metrics = new Metrics
    val parts = partition(events, wl.paneMs)
    // One executor per count of overlapping window instances per pane;
    // inside it every query still runs alone on its own engine.
    val byReps = wl.queries.groupBy(q => q.windowPanes / q.slidePanes).toVector.sortBy(_._1)
      .map { case (reps, qs) => (reps, GretaEngine(wl.copy(queries = qs))) }
    var total = PaneAgg.empty
    val t0 = System.nanoTime()
    parts.foreach { case (_, evs) =>
      byReps.foreach { case (reps, exec) =>
        var r = 0
        while (r < reps) {
          exec.foreachAgg(evs, metrics)((_, agg) => if (r == 0) total += agg)
          r += 1
        }
      }
    }
    // The replay is sequential but a running Greta holds every query's
    // graph for every live window instance concurrently (space O(k·n),
    // §3.2): scale the per-graph peak accordingly.
    metrics.peakBytes *= wl.queries.map(q => q.windowPanes / q.slidePanes).sum
    result("GRETA", System.nanoTime() - t0, events.size.toLong, parts.size.toLong,
      metrics, truncated = false, total)
  }

  def runMcep(wl: CompiledWorkload, events: Seq[Event], maxVisits: Long = 20_000_000L): RunResult = {
    val metrics = new Metrics
    val parts = partition(events, wl.paneMs)
    var total = PaneAgg.empty
    var truncated = false
    val reps = wl.queries.map(q => q.windowPanes / q.slidePanes).max
    val t0 = System.nanoTime()
    parts.foreach { case (_, evs) =>
      var r = 0
      while (r < reps) {
        val out = McepEngine.processPane(wl.queries, evs, metrics, maxVisits)
        truncated ||= out.truncated
        if (r == 0) total = out.aggs.values.foldLeft(total)(_ + _)
        r += 1
      }
    }
    result("MCEP", System.nanoTime() - t0, events.size.toLong, parts.size.toLong,
      metrics, truncated, total)
  }

  def runSharon(wl: CompiledWorkload, events: Seq[Event], maxLen: Int = 64): RunResult = {
    val metrics = new Metrics
    val parts = partition(events, wl.paneMs)
    // Static flatten length per §6.1: the longest possible Kleene match —
    // here the max per-(group, pane) count of any query's Kleene type.
    val kleeneTypes = wl.queries.flatMap(_.q.pattern.kleeneTypes).toSet
    val fixedLen = parts.iterator
      .map { case (_, evs) => kleeneTypes.map(t => evs.count(_.typ == t)).maxOption.getOrElse(0) }
      .maxOption.getOrElse(1)
    var total = PaneAgg.empty
    var truncated = false
    val t0 = System.nanoTime()
    parts.foreach { case (_, evs) =>
      wl.queries.foreach { q =>
        val reps = q.windowPanes / q.slidePanes
        var r = 0
        while (r < reps) {
          val out = SharonEngine.processPane(Seq(q), evs, metrics, maxLen, Some(fixedLen))
          truncated ||= out.truncated
          if (r == 0) total = out.aggs.values.foldLeft(total)(_ + _)
          r += 1
        }
      }
    }
    // Like Greta, a running Sharon keeps per-query per-window-instance
    // prefix-count state concurrently.
    metrics.peakBytes *= wl.queries.map(q => q.windowPanes / q.slidePanes).sum
    result("SHARON", System.nanoTime() - t0, events.size.toLong, parts.size.toLong,
      metrics, truncated, total)
  }

  /** Fixed-width table printer used by every bench/job. */
  def printTable(title: String, header: Seq[String], rows: Seq[Seq[String]]): Unit = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(_(i).length).max)
    def fmt(r: Seq[String]) =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
    println()
    println(s"== $title ==")
    println(fmt(header))
    println(widths.map("-" * _).mkString("|-", "-|-", "-|"))
    rows.foreach(r => println(fmt(r)))
  }

  def fmtD(x: Double): String =
    if (x == 0) "0"
    else if (math.abs(x) >= 100) f"$x%.0f"
    else if (math.abs(x) >= 1) f"$x%.2f"
    else f"$x%.4f"
}
