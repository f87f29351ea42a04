package repro.spark

import java.nio.charset.StandardCharsets.UTF_8
import java.util.concurrent.{ConcurrentLinkedQueue, CountDownLatch, TimeUnit}

import scala.jdk.CollectionConverters._
import scala.util.Random

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart,
  SparkListenerStageCompleted, StageInfo}
import org.apache.spark.sql.Dataset
import org.apache.spark.sql.functions.col
import org.apache.spark.storage.StorageLevel

import repro.{Oracle, SparkSpec}
import repro.core.PaneResult
import repro.events.{Event, StreamGen}
import repro.hamlet.{AlwaysShare, Dynamic, NeverShare}
import repro.metrics.Metrics
import repro.query._
import repro.testkit.{Engines, TrendSql}

/** The Dataset-based runner: results must match the direct engine calls,
  * and — via the DuckDB recursive-CTE path-counting oracle — the SQL
  * definition of trend counting.
  */
class SparkBatchSpec extends SparkSpec {

  private def mkEvents(seed: Int, n: Int, groups: Int, panes: Int, paneMs: Long): Vector[Event] = {
    val rnd = new Random(seed)
    val types = Vector("A", "B", "C", "D")
    (0 until n).toVector.map { i =>
      Event(i.toLong, rnd.nextLong(paneMs * panes).abs, types(rnd.nextInt(types.size)),
        s"g${rnd.nextInt(groups)}", Map("v" -> rnd.nextInt(100).toDouble))
    }.sorted(Event.streamOrder).zipWithIndex.map { case (e, i) => e.copy(id = i.toLong) }
  }

  private val w42 = QueryWindow(4, 2)

  /** An event's fields with each value as its bits, so -0.0 and NaN
    * compare exactly (`Event` equality has -0.0 == 0.0 and NaN != NaN), and
    * each string escaped to ASCII, so a failure message with an unpaired
    * surrogate can still be written to the test log.
    */
  private def exact(e: Event) = {
    def esc(s: String) = s.flatMap(c => if (c < 128 && c != '\\') c.toString else f"\\u${c.toInt}%04x")
    (e.id, e.ts, esc(e.typ), esc(e.grp), e.num.map { case (k, v) => esc(k) -> java.lang.Double.doubleToRawLongBits(v) },
      e.str.map { case (k, v) => esc(k) -> esc(v) })
  }

  /** Events with every edge of the ingest blocks: empty, small and large
    * maps, non-ASCII and unpaired-surrogate strings, -0.0 and NaN, and ids
    * out of stream order.
    */
  private val oddEvents: Vector[Event] = {
    val many = (0 until 7).map(i => s"a$i" -> (i * 1.5 - 3)).toMap
    Vector(
      Event(5, 10, "A", "g0"),
      Event(2, 10, "B", "g0", num = many, str = Map("k" -> "v")),
      Event(9, 20, "Ä", "grüße ✓", num = Map("v" -> -0.0, "w" -> Double.NaN), str = Map("ключ" -> "値")),
      Event(1, 30, "B", "g\uD800x", num = Map("v\uDC00" -> 1.0), str = Map("s" -> "\uDBFF", "t" -> "")),
      Event(7, 30, "", "g0", num = Map("v" -> Double.NegativeInfinity, "x" -> Double.MinPositiveValue)),
      Event(0, 40, "C", "g1", str = (0 until 6).map(i => s"s$i" -> s"v${i % 2}").toMap),
    )
  }

  test("toDS round-trips events including attribute maps") {
    // Spark stores strings as UTF-8 (`getBytes(UTF_8)`), so an unpaired
    // surrogate comes back as '?' whatever the ingest does; the ingest
    // block itself keeps it.
    def utf8(s: String) = new String(s.getBytes(UTF_8), UTF_8)
    def viaSpark(e: Event) = Event(e.id, e.ts, utf8(e.typ), utf8(e.grp),
      e.num.map { case (k, v) => utf8(k) -> v }, e.str.map { case (k, v) => utf8(k) -> utf8(v) })
    assert(oddEvents.map(viaSpark) != oddEvents)
    assert(EventBlocks.decode(EventBlocks.encode(oddEvents)).map(exact).toVector == oddEvents.map(exact))
    // 1 and 2 events: fewer than the partitions, so most partitions are empty.
    for (events <- Seq(mkEvents(1, 50, 3, 2, 120_000L), oddEvents, oddEvents.take(1), oddEvents.take(2))) {
      val got = BatchRunner.toDS(spark, events).collect().toVector.sortBy(_.id)
      val want = events.map(viaSpark).sortBy(_.id)
      assert(got.map(exact) == want.map(exact))
      assert(got.filterNot(_.num.values.exists(_.isNaN)) == want.filterNot(_.num.values.exists(_.isNaN)))
    }
  }

  test("paneResults equals direct executor output across groups and panes") {
    val qs = Seq(
      TrendQuery("q1", Pattern.seq("A", "B+"), window = w42),
      TrendQuery("q2", Pattern.seq("C", "B+"), window = w42))
    val wl = Workload.compile(qs)
    val events = mkEvents(2, 120, 4, 3, wl.paneMs)
    val got = BatchRunner
      .paneResults(spark, wl, Dynamic(), BatchRunner.toDS(spark, events))
      .collect().toVector

    val exec = new repro.hamlet.HamletExecutor(wl, Dynamic())
    val expected = events.groupBy(e => (e.grp, e.pane(wl.paneMs))).toVector.flatMap {
      case ((g, p), evs) =>
        exec.processPaneAggs(evs.sorted(Event.streamOrder), new Metrics)
          .map { case (q, agg) => PaneResult.of(q, g, p, agg) }
    }
    assertSameRows(got, expected)
  }

  test("toDS takes events in any order; no events give no pane or window rows") {
    val wl = Workload.compile(Seq(
      TrendQuery("q1", Pattern.seq("A", "B+"), Agg.Avg("B", "v"), window = w42),
      TrendQuery("q2", Pattern.seq("C", "B+"), Agg.Max("B", "v"), window = w42)))
    val events = mkEvents(4, 150, 4, 3, wl.paneMs)
    val got = BatchRunner
      .paneResults(spark, wl, Dynamic(), BatchRunner.toDS(spark, new Random(4).shuffle(events)))
      .collect().toVector
    val exec = new repro.hamlet.HamletExecutor(wl, Dynamic())
    val expected = events.groupBy(_.grp).toVector.flatMap { case (g, evs) =>
      exec.groupResults(g, evs.sorted(Event.streamOrder).toArray, new Metrics)
    }
    assertSameRows(got, expected)

    val empty = BatchRunner.paneResults(spark, wl, Dynamic(), BatchRunner.toDS(spark, Seq.empty))
    assert(empty.count() == 0)
    assert(BatchRunner.windowed(spark, wl, empty).count() == 0)
  }

  /** `body`'s result and the completed stages, by id, of the one job it
    * must run, read once the listener has seen the job end.
    */
  private def oneJob[A](body: => A): (A, Vector[StageInfo]) = {
    // The stages of the job run under a marker property.
    val sc = spark.sparkContext
    val marker = "repro.test.pass"
    val jobs = new ConcurrentLinkedQueue[Int]()
    val stageIds = new ConcurrentLinkedQueue[Int]()
    val stages = new ConcurrentLinkedQueue[StageInfo]()
    val ended = new CountDownLatch(1)
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        if (e.properties != null && e.properties.getProperty(marker) != null) {
          jobs.add(e.jobId)
          stageIds.addAll(e.stageIds.asJava)
        }
      override def onStageCompleted(e: SparkListenerStageCompleted): Unit =
        if (stageIds.contains(e.stageInfo.stageId)) stages.add(e.stageInfo)
      override def onJobEnd(e: SparkListenerJobEnd): Unit = if (jobs.contains(e.jobId)) ended.countDown()
    }
    sc.addSparkListener(listener)
    sc.setLocalProperty(marker, "1")
    val out = try body finally sc.setLocalProperty(marker, null)
    assert(ended.await(30, TimeUnit.SECONDS))
    sc.removeSparkListener(listener)
    assert(jobs.size == 1)
    (out, stages.asScala.toVector.sortBy(_.stageId))
  }

  private def written(s: StageInfo) = s.taskMetrics.shuffleWriteMetrics.recordsWritten
  private def read(s: StageInfo) = s.taskMetrics.shuffleReadMetrics.recordsRead

  test("a batch pass is one job of one stage with no shuffle") {
    val wl = Workload.compile(Seq(
      TrendQuery("q1", Pattern.seq("A", "B+"), window = w42),
      TrendQuery("q2", Pattern.seq("C", "B+"), Agg.Sum("B", "v"), window = w42)))
    val events = mkEvents(6, 600, 4, 10, wl.paneMs)
    val (windows, stages) = oneJob {
      BatchRunner.windowed(spark, wl, BatchRunner.paneResults(spark, wl, Dynamic(), BatchRunner.toDS(spark, events)))
        .collect()
    }
    assert(windows.nonEmpty)

    // `toDS` placed each group's block where the engine reads it, and the
    // roll-up runs in the engine's task: one stage, no shuffle.
    assert(stages.size == 1 && written(stages.head) == 0,
      s"stages (id, shuffle records written): ${stages.map(s => (s.stageId, written(s)))}")
    assert(stages.head.numTasks == spark.conf.get("spark.sql.shuffle.partitions").toInt)
  }

  test("toDS places each group's events in exactly one partition") {
    val events = mkEvents(8, 500, 12, 4, 60_000L)
    val parts = BatchRunner.toDS(spark, events).rdd.glom().collect()
    assert(parts.length == spark.conf.get("spark.sql.shuffle.partitions").toInt)
    val homes = parts.toVector.zipWithIndex.flatMap { case (es, i) => es.map(_.grp -> i) }.distinct.groupMap(_._1)(_._2)
    assert(homes.keySet == events.map(_.grp).toSet)
    homes.foreach { case (g, ps) => assert(ps.size == 1, s"group $g lies in partitions $ps") }
    assert(parts.map(_.length).sum == events.size)
  }

  private val twoQueries = Workload.compile(Seq(
    TrendQuery("q1", Pattern.seq("A", "B+"), window = w42),
    TrendQuery("q2", Pattern.seq("C", "B+"), Agg.Avg("B", "v"), window = w42)))

  private def paneRows(ds: Dataset[Event]) =
    BatchRunner.paneResults(spark, twoQueries, Dynamic(), ds).collect().toVector

  test("a toDS Dataset read after the partition count changed shuffles its blocks and gives the same pane rows") {
    val events = mkEvents(9, 400, 5, 6, twoQueries.paneMs)
    val want = paneRows(BatchRunner.toDS(spark, events))
    val n = spark.conf.get("spark.sql.shuffle.partitions").toInt
    val ds = BatchRunner.toDS(spark, events)
    spark.conf.set("spark.sql.shuffle.partitions", (n + 3).toString)
    val (got, stages) = try oneJob(paneRows(ds)) finally spark.conf.set("spark.sql.shuffle.partitions", n.toString)
    assertSameRows(got, want)
    // One record per group: the blocks move whole, as they were encoded.
    assert(stages.map(written).sum == events.map(_.grp).distinct.size,
      s"stages (id, shuffle records written): ${stages.map(s => (s.stageId, written(s)))}")
  }

  test("a filtered or persisted toDS Dataset gives the same pane rows as the direct pass") {
    val events = mkEvents(10, 400, 5, 6, twoQueries.paneMs)
    val want = paneRows(BatchRunner.toDS(spark, events))
    assert(want.nonEmpty)
    assertSameRows(paneRows(BatchRunner.toDS(spark, events).filter((_: Event) => true)), want)
    val persisted = BatchRunner.toDS(spark, events).persist(StorageLevel.MEMORY_ONLY)
    try {
      assert(persisted.count() == events.size)
      assertSameRows(paneRows(persisted), want)
    } finally persisted.unpersist(blocking = true)
  }

  test("windowed over cached panes reads the cache and does not run the engine again") {
    val wl = Workload.compile(Seq(
      TrendQuery("q1", Pattern.seq("A", "B+"), window = w42),
      TrendQuery("q2", Pattern.seq("C", "B+"), Agg.Avg("B", "v"), window = w42)))
    val events = mkEvents(7, 400, 4, 8, wl.paneMs)
    def pass(panes: Dataset[PaneResult]) = BatchRunner.windowed(spark, wl, panes).collect().toVector
      .map(r => (r.getString(0), r.getString(1), r.getLong(2), r.getLong(3), Option(r.getAs[java.lang.Double](4))))
      .sortBy(r => (r._1, r._2, r._3))
    val uncached = pass(BatchRunner.paneResults(spark, wl, Dynamic(), BatchRunner.toDS(spark, events)))

    val panes = BatchRunner.paneResults(spark, wl, Dynamic(), BatchRunner.toDS(spark, events))
      .persist(StorageLevel.MEMORY_ONLY)
    try {
      assert(panes.count() > 0)
      val (cached, stages) = oneJob(pass(panes))
      // Every shuffle record the job reads was written in the job (the
      // cached pane rows, shuffled by group for the roll-up): no stage
      // reads the event shuffle, which was written before it.
      assert(stages.map(read).sum == stages.map(written).sum && stages.map(written).sum > 0,
        s"stages (id, shuffle records read, written): ${stages.map(s => (s.stageId, read(s), written(s)))}")
      assert(uncached.nonEmpty && cached == uncached)
    } finally panes.unpersist(blocking = true)
  }

  test("policies agree through the Spark runner") {
    val qs = Seq(
      TrendQuery("q1", Pattern.seq("A", "B+"), preds = Seq(NumPred("B", "v", ">", 40)), window = w42),
      TrendQuery("q2", Pattern.seq("C", "B+"), window = w42))
    val wl = Workload.compile(qs)
    val events = mkEvents(3, 150, 3, 3, wl.paneMs)
    val ds = BatchRunner.toDS(spark, events)
    def sums(p: repro.hamlet.SharingPolicy) =
      BatchRunner.paneResults(spark, wl, p, ds).collect()
        .map(r => (r.queryId, r.grp, r.pane) -> r.c).toMap
    val never = sums(NeverShare)
    assert(sums(AlwaysShare) == never)
    assert(sums(Dynamic()) == never)
  }

  // ---- DuckDB oracle: trend counting as recursive path counting ------
  private def oracleCheck(q: TrendQuery, seed: Int, n: Int = 60): Unit = {
    val wl = Workload.compile(Seq(q))
    oracleCheckOn(wl, mkEvents(seed, n, 3, 2, wl.paneMs), numAttrs = Seq("v"))
  }

  /** The Spark runner's channels of each query of `wl` over `events`
    * against DuckDB's.
    */
  private def oracleCheckOn(wl: CompiledWorkload, events: Seq[Event],
                            numAttrs: Seq[String] = Nil, strAttrs: Seq[String] = Nil): Unit = {
    val results = BatchRunner.paneResults(spark, wl, Dynamic(), BatchRunner.toDS(spark, events))
    val eventsDf = TrendSql.eventsDf(spark, events, wl.paneMs, numAttrs, strAttrs)
    wl.queries.foreach { cq =>
      val cols = ("grp" +: "pane" +: TrendSql.channels(cq.q.agg)).map(col)
      Oracle.assertEquivalent(
        results.filter(r => r.queryId == cq.id && r.c > 0.0).select(cols: _*),
        TrendSql.countSql(cq),
        "events" -> eventsDf,
        "trans" -> TrendSql.transitionsDf(spark, cq),
      )
    }
  }

  test("oracle: SEQ(A, B+)") { oracleCheck(TrendQuery("q", Pattern.seq("A", "B+"), window = w42), 10) }

  test("oracle: bare Kleene B+") {
    oracleCheck(TrendQuery("q", Pattern.seq("B+"), window = w42), 11, n = 30)
  }

  test("oracle: SEQ(A, B+, C)") {
    oracleCheck(TrendQuery("q", Pattern.seq("A", "B+", "C"), window = w42), 12)
  }

  test("oracle: predicate on the Kleene type") {
    oracleCheck(TrendQuery("q", Pattern.seq("A", "B+"),
      preds = Seq(NumPred("B", "v", ">", 35)), window = w42), 13)
  }

  test("oracle: trailing negation SEQ(A, B+, NOT D)") {
    oracleCheck(TrendQuery("q", Pattern.seq("A", "B+", "!D"), window = w42), 14)
  }

  test("oracle: mid negation SEQ(A, NOT C, B+)") {
    oracleCheck(TrendQuery("q", Pattern.seq("A", "!C", "B+"), window = w42), 15)
  }

  test("oracle: mid negation after Kleene SEQ(A, B+, NOT C, D)") {
    oracleCheck(TrendQuery("q", Pattern.seq("A", "B+", "!C", "D"), window = w42), 16)
  }

  test("oracle: predicates on multiple types") {
    oracleCheck(TrendQuery("q", Pattern.seq("A", "B+"),
      preds = Seq(NumPred("B", "v", ">", 20), NumPred("A", "v", "<", 80)), window = w42), 17)
  }

  test("oracle: string predicate, Figure 1's q1 SEQ(R, T+, D) with R.rtype = Pool") {
    val q1 = TrendQuery("q1", Pattern.seq("R", "T+", "D"),
      preds = Seq(StrPred("R", "rtype", "Pool")), window = w42)
    val events = StreamGen.ridesharing(minutes = 6, eventsPerMin = 20, nGroups = 3,
      meanKleene = 3, maxKleene = 6, seed = 5)
    val rtypes = events.filter(_.typ == "R").flatMap(_.str.get("rtype")).toSet
    assert(rtypes == Set("Pool", "Solo"))
    oracleCheckOn(Workload.compile(Seq(q1)), events, strAttrs = Seq("rtype"))

    // The same query next to a sibling that shares T+, per (group, pane).
    val qs = Seq(q1, TrendQuery("q2", Pattern.seq("R", "T+", "C"), window = w42))
    val wl = Workload.compile(qs)
    assert(wl.sets.map(_.queries.size) == Vector(2))
    var q1Trends = 0.0
    events.groupBy(e => (e.grp, e.pane(wl.paneMs))).foreach { case (key, evs) =>
      val expected = Engines.brute(qs, evs)
      q1Trends += expected("q1").c
      Seq(NeverShare, AlwaysShare, Dynamic()).foreach { p =>
        Engines.assertSame(Engines.hamlet(qs, evs, p), expected, s"$key $p")
      }
    }
    assert(q1Trends > 0)
  }

  private val rising = EdgePred("v", "<")

  test("oracle: edge predicate in a shared set, SEQ(A, B+) rising next to SEQ(C, B+)") {
    val qs = Seq(
      TrendQuery("q1", Pattern.seq("A", "B+"), window = w42, edgePred = Some(rising)),
      TrendQuery("q2", Pattern.seq("C", "B+"), window = w42))
    val wl = Workload.compile(qs)
    assert(wl.sets.map(_.queries.size) == Vector(2))
    oracleCheckOn(wl, mkEvents(30, 120, 3, 2, wl.paneMs), numAttrs = Seq("v"))
  }

  // Each aggregate on B.v, with and without a rising edge predicate, next
  // to a SEQ(C, B+) sibling (shared unless MIN/MAX, which never share).
  for ((agg, seed) <- Seq(Agg.CountE("B"), Agg.Sum("B", "v"), Agg.Avg("B", "v"),
                          Agg.Min("B", "v"), Agg.Max("B", "v")).zip(31 until 36)) {
    test(s"oracle: $agg channels, with and without an edge predicate") {
      for (edge <- Seq(None, Some(rising))) {
        val wl = Workload.compile(Seq(
          TrendQuery("q1", Pattern.seq("A", "B+"), agg, window = w42, edgePred = edge),
          TrendQuery("q2", Pattern.seq("C", "B+"), agg, window = w42)))
        assert(wl.sets.size == (if (Agg.shareClass(agg).isDefined) 1 else 0))
        oracleCheckOn(wl, mkEvents(seed, 120, 3, 2, wl.paneMs), numAttrs = Seq("v"))
      }
    }
  }

  for (seed <- 20 until 26) {
    test(s"oracle: randomized multi-pane multi-group run (seed $seed)") {
      oracleCheck(TrendQuery("q", Pattern.seq("A", "B+"),
        preds = if (seed % 2 == 0) Seq(NumPred("B", "v", ">", 50)) else Nil,
        window = w42), seed, n = 80)
    }
  }
}
