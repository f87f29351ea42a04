package repro.harness

import repro.baselines.{McepEngine, SharonEngine}
import repro.core.PaneAgg
import repro.events.Event
import repro.hamlet.{CostProfile, EnginePlan, Faithful, GretaEngine, HamletExecutor, SharingPolicy}
import repro.metrics.Metrics
import repro.query.{CompiledQuery, CompiledWorkload}

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
    total: PaneAgg,
) {
  /** Whether an engine hit a safety cap: `total` is then a lower bound. */
  def truncated: Boolean = metrics.truncations > 0
}

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

  /** One engine call over one (group, pane): hands each query's aggregate
    * to `emit`.
    */
  private type Call = (Vector[Event], Metrics, PaneAgg => Unit) => Unit

  /** Overlapping window instances that contain one pane of `q`: the times
    * an engine without pane sharing processes that pane for `q`.
    */
  private def instances(q: CompiledQuery): Int = q.windowPanes / q.slidePanes

  private def executor(exec: HamletExecutor): Call =
    (evs, metrics, emit) => exec.foreachAgg(evs, metrics)((_, agg) => emit(agg))

  /** Times one run: every (group, pane) goes through `jobs` in order, each
    * job replaying it as many times as it says, and only a job's first
    * replay of a unit adds to the total. The callers build every job
    * before the clock starts, and one untimed pass with throwaway metrics
    * warms the code, so no setting is timed cold. The replay is sequential,
    * but a running Greta or Sharon holds every query's state for every live
    * window instance at once (space O(k·n), §3.2), so `peakScale`
    * multiplies the replay's peak by the number of those instances.
    */
  private def replay(name: String, events: Seq[Event], parts: Vector[((String, Long), Vector[Event])],
                     jobs: Seq[(Int, Call)], peakScale: Long): RunResult = {
    val metrics = new Metrics
    var total = PaneAgg.empty
    val keep: PaneAgg => Unit = agg => total += agg
    val skip: PaneAgg => Unit = _ => ()
    val warm = new Metrics
    parts.foreach { case (_, evs) => jobs.foreach { case (_, call) => call(evs, warm, skip) } }
    val t0 = System.nanoTime()
    parts.foreach { case (_, evs) =>
      jobs.foreach { case (reps, call) =>
        var r = 0
        while (r < reps) {
          call(evs, metrics, if (r == 0) keep else skip)
          r += 1
        }
      }
    }
    val wallMs = (System.nanoTime() - t0) / 1e6
    metrics.peakBytes *= peakScale
    RunResult(name, wallMs,
      latencyMs = wallMs / math.max(parts.size, 1),
      throughputEps = events.size / math.max(wallMs / 1000.0, 1e-9),
      peakBytes = metrics.peakBytes, metrics = metrics, total = total)
  }

  def runHamlet(wl: CompiledWorkload, policy: SharingPolicy, events: Seq[Event],
                name: String = "HAMLET", profile: CostProfile = Faithful): RunResult =
    replay(name, events, partition(events, wl.paneMs),
      Seq(1 -> executor(new HamletExecutor(wl, policy, profile))), peakScale = 1)

  /** One executor per count of overlapping window instances per pane;
    * inside it every query still runs alone on its own engine.
    */
  def runGreta(wl: CompiledWorkload, events: Seq[Event]): RunResult = {
    val jobs = wl.queries.groupBy(instances).toVector.sortBy(_._1)
      .map { case (reps, qs) => reps -> executor(GretaEngine(wl.copy(queries = qs))) }
    replay("GRETA", events, partition(events, wl.paneMs), jobs,
      peakScale = wl.queries.map(instances).sum)
  }

  def runMcep(wl: CompiledWorkload, events: Seq[Event]): RunResult = {
    val mcep = new McepEngine(new EnginePlan(wl.queries, None))
    val call: Call = (evs, metrics, emit) => mcep.processPane(evs, metrics).foreach(emit)
    replay("MCEP", events, partition(events, wl.paneMs),
      Seq(wl.queries.map(instances).max -> call), peakScale = 1)
  }

  def runSharon(wl: CompiledWorkload, events: Seq[Event], maxLen: Int = 64): RunResult = {
    val parts = partition(events, wl.paneMs)
    // Static flatten length per §6.1: the longest possible Kleene match —
    // here the max per-(group, pane) count of any query's Kleene type.
    val kleeneTypes = wl.queries.flatMap(_.q.pattern.kleeneTypes).toSet
    val fixedLen = parts.iterator
      .map { case (_, evs) => kleeneTypes.map(t => evs.count(_.typ == t)).maxOption.getOrElse(0) }
      .maxOption.getOrElse(1)
    val jobs = wl.queries.map { q =>
      val sharon = new SharonEngine(new EnginePlan(Vector(q), None), fixedLen, maxLen)
      val call: Call = (evs, metrics, emit) => sharon.processPane(evs, metrics).foreach(emit)
      instances(q) -> call
    }
    replay("SHARON", events, parts, jobs, peakScale = wl.queries.map(instances).sum)
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
