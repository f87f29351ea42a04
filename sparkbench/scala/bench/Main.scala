package bench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Path, Paths}
import java.util.concurrent.ConcurrentLinkedQueue
import java.util.concurrent.atomic.AtomicInteger

import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.spark.sql.{Dataset, Encoder, Row, SparkSession}
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.streaming.StreamingQueryProgress
import org.apache.spark.storage.StorageLevel

import repro.core.PaneResult
import repro.events.{Event, StreamGen}
import repro.hamlet.{Dynamic, HamletExecutor}
import repro.harness.{BenchHarness, Workloads}
import repro.metrics.Metrics
import repro.query.{CompiledWorkload, TrendQuery, Workload}
import repro.spark.{BatchRunner, StreamingRunner}

/** End-to-end benchmark of the Spark batch and streaming paths.
  *
  *   bench.Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  *              [--scale full|tiny] [--perturb 0|1]
  *
  * Untraced runs time whole passes; the traced run times the calls into
  * each module from here and reads the counters Spark and the engine
  * already expose. Both print one JSON result as the last stdout line.
  */
object Main {

  /** A workload: its generator (seed → events), its queries, and whether
    * the events go through the streaming runner. The program sees only
    * the events and the queries.
    */
  final case class Spec(
      defaultSeed: Long,
      gen: Long => Vector[Event],
      queries: Vector[TrendQuery],
      streaming: Boolean,
      microBatch: Int,
  )

  def specs(tiny: Boolean): Map[String, Spec] = {
    val stock: Long => Vector[Event] =
      if (tiny) s => StreamGen.stockLike(4, 300, nCompanies = 8, seed = s)
      else s => StreamGen.stockLike(32, 2000, nCompanies = 50, seed = s)
    val ride: Long => Vector[Event] =
      if (tiny) s => StreamGen.ridesharing(3, 1000, nGroups = 100, seed = s)
      else s => StreamGen.ridesharing(4, 20000, nGroups = 2000, seed = s)
    val stockQ = Workloads.stockW2(if (tiny) 12 else 60)
    val rideQ = Workloads.ridesharingW1(15, 12, 1)
    val mb = if (tiny) 500 else 5000
    Map(
      "stock-batch"      -> Spec(7L, stock, stockQ, streaming = false, mb),
      "rideshare-batch"  -> Spec(42L, ride, rideQ, streaming = false, mb),
      "rideshare-stream" -> Spec(42L, ride, rideQ, streaming = true, mb),
    )
  }

  /** Spark task slots: one core is left to the driver, the JIT compiler
    * and GC, whose work otherwise lands on the critical path of a stage.
    */
  val Cores: Int = math.max(1, math.min(3, Runtime.getRuntime.availableProcessors - 1))
  val Partitions: Int = 2 * Cores
  val Setups = 9
  /** Untimed batch passes before the timed ones: at least two (the first
    * is cold) and at least `WarmupS` seconds, as the JIT keeps compiling
    * for several passes after the first.
    */
  val WarmupPasses = 2
  val WarmupS = 12.0

  private val out = mutable.LinkedHashMap.empty[String, (Double, String)]
  private def put(name: String, v: Double, unit: String): Unit = out(name) = (v, unit)

  private def secs(t0: Long): Double = (System.nanoTime - t0) / 1e9

  /** Runs `f` until `seconds` have passed and at least `min` times. */
  private def passes[A](seconds: Double, min: Int)(f: Int => A): Vector[A] = {
    val t0 = System.nanoTime
    val b = Vector.newBuilder[A]
    var i = 0
    while (i < min || secs(t0) < seconds) { b += f(i); i += 1 }
    b.result()
  }

  private def session(work: Path): SparkSession =
    SparkSession.builder
      .master(s"local[$Cores]")
      .appName("sparkbench")
      .config("spark.sql.shuffle.partitions", Partitions.toLong)
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", work.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", work.resolve("warehouse").toString)
      .config("spark.sql.streaming.numRecentProgressUpdates", "1000")
      // Adaptive coalescing would merge the small pane-stage shuffle into
      // one task and run every group's engine on a single core.
      .config("spark.sql.adaptive.coalescePartitions.enabled", "false")
      .getOrCreate()

  private def toWin(r: Row) =
    WinRow(r.getString(0), r.getString(1), r.getLong(2), r.getLong(3),
      if (r.isNullAt(4)) None else Some(r.getDouble(4)))

  /** One untraced batch pass: events in, collected window rows out. */
  private def batchPass(spark: SparkSession, wl: CompiledWorkload, events: Seq[Event]): (Double, Vector[WinRow]) = {
    val t0 = System.nanoTime
    val ds = BatchRunner.toDS(spark, events)
    val rows = BatchRunner.windowed(spark, wl, BatchRunner.paneResults(spark, wl, Dynamic(), ds)).collect()
    val t = secs(t0)
    (t, rows.iterator.map(toWin).toVector)
  }

  private def perturbWin(rows: Vector[WinRow]): Vector[WinRow] =
    rows.updated(0, rows(0).copy(value = Some(rows(0).value.fold(1.0)(v => v * 2 + 1))))

  private def perturbPane(rows: Vector[PaneResult]): Vector[PaneResult] =
    rows.updated(0, rows(0).copy(c = rows(0).c * 2 + 1))

  /** One streaming pass: micro-batches of the stream in generator order,
    * each added once the previous one is processed, then the flush.
    */
  final case class StreamPass(
      seconds: Double,
      rows: Vector[(Int, PaneResult)], // (step that emitted the row, row)
      submitNs: Array[Long],
      endNs: Array[Long],
      progress: Array[StreamingQueryProgress],
  )

  private var ckpts = 0

  private def streamPass(spark: SparkSession, wl: CompiledWorkload, steps: Vector[Seq[Event]], work: Path): StreamPass = {
    import spark.implicits._
    val input = MemoryStream[Event](implicitly[Encoder[Event]], spark.sqlContext)
    val step = new AtomicInteger(-1)
    val emitted = new ConcurrentLinkedQueue[(Int, PaneResult)]()
    ckpts += 1
    val query = StreamingRunner.run(spark, wl, Dynamic(), input.toDS())
      .writeStream
      .option("checkpointLocation", work.resolve(s"ckpt-$ckpts").toString)
      .foreachBatch { (df: Dataset[PaneResult], _: Long) =>
        val s = step.get
        df.collect().foreach(r => emitted.add((s, r)))
      }
      .start()
    val sub = new Array[Long](steps.size)
    val end = new Array[Long](steps.size)
    try {
      for (i <- steps.indices) {
        step.set(i)
        sub(i) = System.nanoTime
        input.addData(steps(i))
        query.processAllAvailable()
        end(i) = System.nanoTime
      }
    } finally query.stop()
    val total = steps.indices.map(i => end(i) - sub(i)).sum / 1e9
    StreamPass(total, emitted.asScala.toVector, sub, end, query.recentProgress)
  }

  def main(argv: Array[String]): Unit = {
    val opts = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val tiny = opts.getOrElse("scale", "full") match {
      case "full" => false
      case "tiny" => true
      case s      => sys.error(s"unknown scale $s")
    }
    val name = opts.getOrElse("workload", sys.error("--workload is required"))
    val spec = specs(tiny).getOrElse(name, sys.error(s"unknown workload $name"))
    val seed = opts.get("seed").map(_.toLong).getOrElse(spec.defaultSeed)
    val seconds = opts.getOrElse("seconds", "10").toDouble
    val trace = opts.getOrElse("trace", "0") == "1"
    val perturb = opts.getOrElse("perturb", "0") == "1"
    val work = Paths.get(sys.props.getOrElse("sparkbench.work", "."))
      .toAbsolutePath
    Files.createDirectories(work)

    val phase = mutable.LinkedHashMap.empty[String, Any]
    phase("jvm_up_s") = f"${ManagementFactory.getRuntimeMXBean.getUptime / 1e3}%.2f"
    var tPhase = System.nanoTime
    def mark(k: String): Unit = { phase(k) = f"${secs(tPhase)}%.2f"; tPhase = System.nanoTime }

    // Inputs first, outside every timing.
    val events = spec.gen(seed)
    val steps = events.grouped(spec.microBatch).toVector

    // Set-up: a fresh SparkSession plus Workload.compile, several times.
    val startS = mutable.ArrayBuffer.empty[Double]
    val compileMs = mutable.ArrayBuffer.empty[Double]
    var spark: SparkSession = null
    var wl: CompiledWorkload = null
    for (i <- 0 until Setups) {
      if (spark != null) {
        spark.stop()
        SparkSession.clearActiveSession()
        SparkSession.clearDefaultSession()
      }
      val t0 = System.nanoTime
      spark = session(work)
      val t1 = System.nanoTime
      wl = Workload.compile(spec.queries)
      startS += (t1 - t0) / 1e9
      compileMs += secs(t1) * 1e3
    }
    spark.sparkContext.setLogLevel("WARN")
    val setupS = startS.indices.map(i => startS(i) + compileMs(i) / 1e3)

    mark("gen_setup_s")
    val ref = new Reference(wl, events, Cores)
    mark("reference_s")
    val check = new Check
    val flush = StreamingRunner.flushEvents(events.map(_.grp).distinct, events.map(_.ts).max + wl.paneMs * 10)
    val allSteps = steps :+ flush
    // The streaming warm-up is the first half of the stream and the flush:
    // it reaches every code path at half the cost of a cold full pass.
    val warmSteps = steps.take((steps.size + 1) / 2) :+ flush
    // Step that carries the last event of each (group, pane).
    val lastStep = mutable.HashMap.empty[(String, Long), Int]
    events.iterator.zipWithIndex.foreach { case (e, i) => lastStep((e.grp, e.pane(wl.paneMs))) = i / spec.microBatch }

    var anchorOk = true
    val n = events.size.toDouble
    val info = mutable.LinkedHashMap[String, Any](
      "workload" -> name, "seed" -> seed, "scale" -> (if (tiny) "tiny" else "full"),
      "trace" -> trace, "events" -> events.size, "master" -> spark.sparkContext.master,
      "shuffle_partitions" -> Partitions, "nproc" -> Runtime.getRuntime.availableProcessors,
      "heap_max_mb" -> Runtime.getRuntime.maxMemory / (1024 * 1024),
      "jvm_flags" -> ManagementFactory.getRuntimeMXBean.getInputArguments.asScala.mkString(" "),
      "git_sha" -> sys.props.getOrElse("sparkbench.git", "unknown"),
      "source_sha256" -> sys.props.getOrElse("sparkbench.sources", "unknown"),
    )

    def checkStream(p: StreamPass, want: Map[(String, String, Long), repro.core.PaneAgg], perturbIt: Boolean): Unit = {
      val rows = p.rows.map(_._2)
      check.panes(if (perturbIt) perturbPane(rows) else rows, want)
    }

    // Pane-emit latency of one streaming pass; rows of the flush step excluded.
    def emitMs(p: StreamPass): Vector[Double] =
      p.rows.collect { case (s, r) if s < steps.size =>
        (p.endNs(s) - p.submitNs(lastStep((r.grp, r.pane)))) / 1e6
      }

    if (!trace) {
      put("setup_s", Stats.median(setupS), "s")
      if (!spec.streaming) {
        // The cold pass collects the pane rows, whose channels the window
        // rows do not carry.
        val w0 = System.nanoTime
        check.panes(BatchRunner.paneResults(spark, wl, Dynamic(), BatchRunner.toDS(spark, events)).collect(), ref.panes)
        passes(WarmupS - secs(w0), WarmupPasses - 1)(_ => check.windows(batchPass(spark, wl, events)._2, ref.windows))
        mark("warmup_s")
        val timed = passes(seconds, 2) { i =>
          val (t, rows) = batchPass(spark, wl, events)
          check.windows(if (perturb && i == 0) perturbWin(rows) else rows, ref.windows)
          t
        }
        val t = Stats.median(timed)
        put("events_per_s", n / t, "1/s")
        // A batch job emits every row when the pass ends.
        put("pane_emit_ms_p50", t * 1e3, "ms")
        put("pane_emit_ms_p99", t * 1e3, "ms")
        info("passes") = timed.map(x => f"$x%.2f").mkString(",")
      } else {
        streamPass(spark, wl, warmSteps, work)
        mark("warmup_s")
        val timed = passes(seconds, 2) { i =>
          val p = streamPass(spark, wl, allSteps, work)
          val lat = emitMs(p)
          (p, Stats.quantile(lat, 0.5), Stats.quantile(lat, 0.99), lat.size)
        }
        mark("measure_s")
        // Every pass is compared one for one with the batch runner's pane
        // rows, which are compared with the reference.
        val batchRows = BatchRunner.paneResults(spark, wl, Dynamic(), BatchRunner.toDS(spark, events)).collect()
        check.panes(batchRows, ref.panes)
        val batchMap = batchRows.map(r => (r.queryId, r.grp, r.pane) -> repro.core.PaneAgg(r.c, r.n, r.s, r.mn, r.mx)).toMap
        timed.zipWithIndex.foreach { case ((p, _, _, _), i) => checkStream(p, batchMap, perturb && i == 0) }
        put("events_per_s", n / Stats.median(timed.map(_._1.seconds)), "1/s")
        put("pane_emit_ms_p50", Stats.median(timed.map(_._2)), "ms")
        put("pane_emit_ms_p99", Stats.median(timed.map(_._3)), "ms")
        info("passes") = timed.map(x => f"${x._1.seconds}%.2f").mkString(",")
        info("emit_samples_per_pass") = timed.head._4
      }
    } else {
      put("query.compile_ms", Stats.median(compileMs.toSeq), "ms")
      put("spark.session_start_s", Stats.median(startS.toSeq), "s")

      // Cold passes of both paths, outside the traced intervals.
      val (firstS, firstRows) = batchPass(spark, wl, events)
      check.windows(firstRows, ref.windows)
      put("spark.first_pass_s", firstS, "s")
      val batchRows = BatchRunner.paneResults(spark, wl, Dynamic(), BatchRunner.toDS(spark, events)).collect()
      check.panes(batchRows, ref.panes)
      val batchMap = batchRows.map(r => (r.queryId, r.grp, r.pane) -> repro.core.PaneAgg(r.c, r.n, r.s, r.mn, r.mx)).toMap
      streamPass(spark, wl, warmSteps, work)

      val jvm = new JvmProbe
      val probe = new TaskProbe(spark.sparkContext)
      jvm.start()

      // spark batch: toDS, the pane stage materialized on its own, and the
      // roll-up over the materialized panes.
      final case class Staged(toDs: Double, pane: Double, roll: Double, tasks: Vector[TaskRec], skew: Double,
                              paneRows: Int, winRows: Int)
      probe.drain()
      val staged = passes(seconds * 0.4, 2) { i =>
        val t0 = System.nanoTime
        val ds = BatchRunner.toDS(spark, events)
        val t1 = System.nanoTime
        val panes = BatchRunner.paneResults(spark, wl, Dynamic(), ds).persist(StorageLevel.MEMORY_ONLY)
        panes.count()
        val t2 = System.nanoTime
        val paneTasks = probe.drain()
        val t2b = System.nanoTime
        val wrows = BatchRunner.windowed(spark, wl, panes).collect()
        val t3 = System.nanoTime
        val rollTasks = probe.drain()
        val prows = panes.collect()
        panes.unpersist(blocking = true)
        probe.drain()
        val wins = wrows.iterator.map(toWin).toVector
        check.windows(if (perturb && i == 0) perturbWin(wins) else wins, ref.windows)
        check.panes(prows, ref.panes)
        // The pane stage is the stage of the pane job that ran longest.
        val byStage = paneTasks.groupBy(_.stage)
        val paneStage = byStage.values.maxBy(_.map(_.runMs).sum)
        val times = paneStage.map(_.runMs.toDouble)
        Staged((t1 - t0) / 1e9, (t2 - t1) / 1e9, (t3 - t2b) / 1e9, paneTasks ++ rollTasks,
          times.max / math.max(1.0, Stats.median(times)), prows.length, wins.size)
      }
      put("spark.to_ds_s", Stats.median(staged.map(_.toDs)), "s")
      put("spark.pane_stage_s", Stats.median(staged.map(_.pane)), "s")
      put("spark.rollup_s", Stats.median(staged.map(_.roll)), "s")
      put("spark.shuffle_bytes", Stats.median(staged.map(_.tasks.map(_.shuffleWriteBytes).sum.toDouble)), "bytes")
      put("spark.tasks", Stats.median(staged.map(_.tasks.size.toDouble)), "count")
      put("spark.task_cpu_s", Stats.median(staged.map(_.tasks.map(_.cpuNs).sum / 1e9)), "s")
      put("spark.task_gc_s", Stats.median(staged.map(_.tasks.map(_.gcMs).sum / 1e3)), "s")
      put("spark.task_skew", Stats.median(staged.map(_.skew)), "ratio")
      put("spark.pane_rows", staged.head.paneRows.toDouble, "count")
      put("spark.window_rows", staged.head.winRows.toDouble, "count")
      probe.remove()

      // hamlet: single-threaded driver replay of the same (group, pane) units.
      val units = BenchHarness.partition(events, wl.paneMs)
      final case class Replay(engineS: Double, unitMs: Array[Double], m: Metrics)
      val replays = passes(seconds * 0.3, 2) { _ =>
        val exec = new HamletExecutor(wl, Dynamic())
        val total = new Metrics
        val unitMs = new Array[Double](units.size)
        val rows = Vector.newBuilder[PaneResult]
        var i = 0
        for (((g, p), evs) <- units) {
          val m = new Metrics
          val t0 = System.nanoTime
          val aggs = exec.processPaneAggs(evs, m)
          unitMs(i) = (System.nanoTime - t0) / 1e6
          total += m
          aggs.foreach { case (q, a) => rows += PaneResult.of(q, g, p, a) }
          i += 1
        }
        check.panes(rows.result(), ref.panes)
        Replay(unitMs.sum / 1e3, unitMs, total)
      }
      def counts(m: Metrics) = Vector(m.events, m.evalOps, m.snapshotsCreated, m.graphlets, m.sharedGraphlets,
        m.totalBursts, m.sharedBursts, m.peakLiveTerms, m.peakBytes, m.decisions, m.plansExamined)
      if (replays.map(r => counts(r.m)).distinct.size != 1) {
        anchorOk = false
        System.err.println("hamlet counters differ between passes: " + replays.map(_.m).mkString(" | "))
      }
      val m = replays.head.m
      val allUnits = replays.flatMap(_.unitMs)
      put("hamlet.engine_s", Stats.median(replays.map(_.engineS)), "s")
      put("hamlet.unit_ms_p50", Stats.quantile(allUnits, 0.5), "ms")
      put("hamlet.unit_ms_p99", Stats.quantile(allUnits, 0.99), "ms")
      put("hamlet.units", units.size.toDouble, "count")
      put("hamlet.eval_ops", m.evalOps.toDouble, "count")
      put("hamlet.snapshots", m.snapshotsCreated.toDouble, "count")
      put("hamlet.graphlets", m.graphlets.toDouble, "count")
      put("hamlet.graphlets_shared", m.sharedGraphlets.toDouble, "count")
      put("hamlet.bursts_total", m.totalBursts.toDouble, "count")
      put("hamlet.bursts_shared", m.sharedBursts.toDouble, "count")
      put("hamlet.peak_live_terms", m.peakLiveTerms.toDouble, "count")
      put("hamlet.peak_bytes_sum", m.peakBytes.toDouble, "bytes")
      put("hamlet.decision_ms", Stats.median(replays.map(_.m.decisionNanos / 1e6)), "ms")
      put("hamlet.decisions", m.decisions.toDouble, "count")
      put("hamlet.plans_examined", m.plansExamined.toDouble, "count")
      info("hamlet_passes") = replays.size

      // spark streaming: the same stream through StreamingRunner, read
      // from StreamingQueryProgress.
      val streams = passes(seconds * 0.3, 1) { _ =>
        val p = streamPass(spark, wl, allSteps, work)
        checkStream(p, batchMap, perturbIt = false)
        p
      }
      def p50(f: StreamingQueryProgress => Double): Double =
        Stats.median(streams.map(s => Stats.median(s.progress.toSeq.map(f))))
      def dur(k: String)(p: StreamingQueryProgress): Double =
        Option(p.durationMs.get(k)).map(_.doubleValue).getOrElse(0.0)
      put("stream.microbatches", streams.head.progress.length.toDouble, "count")
      put("stream.trigger_ms_p50", p50(dur("triggerExecution")), "ms")
      put("stream.add_batch_ms_p50", p50(dur("addBatch")), "ms")
      put("stream.wal_commit_ms_p50", p50(dur("walCommit")), "ms")
      put("stream.commit_offsets_ms_p50", p50(dur("commitOffsets")), "ms")
      put("stream.planning_ms_p50", p50(dur("queryPlanning")), "ms")
      put("stream.state_rows_max",
        streams.head.progress.flatMap(_.stateOperators.headOption.map(_.numRowsTotal.toDouble)).maxOption.getOrElse(0.0),
        "count")
      put("stream.state_commit_ms_p50",
        p50(_.stateOperators.headOption.map(_.commitTimeMs.toDouble).getOrElse(0.0)), "ms")
      put("stream.panes_emitted", streams.head.rows.count(_._1 < steps.size).toDouble, "count")
      put("stream.panes_flushed", streams.head.rows.count(_._1 == steps.size).toDouble, "count")

      put("check.rows", check.rows.toDouble, "count")
      put("check.failed", check.failed.toDouble, "count")
      put("check.inexact", check.inexact.toDouble, "count")
      put("jvm.gc_s", jvm.gcSeconds, "s")
      put("jvm.jit_ms", jvm.jitMs, "ms")
      put("jvm.heap_peak_mb", jvm.heapPeakMb, "MB")
      val traced =
        if (spec.streaming) Stats.median(streams.map(_.seconds))
        else Stats.median(staged.map(s => s.toDs + s.pane + s.roll))
      put("trace.events_per_s", n / traced, "1/s")
      info("staged_passes") = staged.size
      info("stream_passes") = streams.size
      info("hamlet_counts") = counts(m).mkString(",")
    }
    mark("rest_s")
    spark.stop()
    mark("stop_s")
    info("setups_s") = setupS.mkString(",")
    info("phases") = phase.map { case (k, v) => s"$k=$v" }.mkString(" ")

    info("check_rows") = check.rows
    info("check_failed") = check.failed
    info("check_inexact") = check.inexact
    println("# sparkbench " + Json.obj(info.toSeq))
    val correct = check.failed == 0 && anchorOk
    val metrics = out.toSeq.map { case (k, (v, u)) =>
      require(!v.isNaN && !v.isInfinite, s"metric $k is not finite")
      k -> Json.Raw(Json.obj(Seq("value" -> v, "unit" -> u)))
    }
    println(Json.obj(Seq("correct" -> correct, "attempted" -> check.rows, "failed" -> check.failed,
      "metrics" -> Json.Raw(Json.obj(metrics)))))
  }
}

/** Minimal JSON writer for the result line. */
object Json {
  final case class Raw(s: String)
  private def str(s: String) =
    "\"" + s.flatMap {
      case '"'  => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c    => c.toString
    } + "\""
  def value(v: Any): String = v match {
    case Raw(s)     => s
    case s: String  => str(s)
    case b: Boolean => b.toString
    case i: Int     => i.toString
    case l: Long    => l.toString
    case d: Double  => java.lang.Double.toString(d)
    case other      => str(other.toString)
  }
  def obj(kvs: Seq[(String, Any)]): String =
    kvs.map { case (k, v) => str(k) + ": " + value(v) }.mkString("{", ", ", "}")
}
