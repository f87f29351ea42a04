package repro.spark

import scala.util.Random

import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.streaming.StreamingQuery

import repro.SparkSpec
import repro.core.PaneResult
import repro.events.Event
import repro.hamlet.{Dynamic, NeverShare, SharingPolicy}
import repro.query._

/** The Structured Streaming stateful operator must produce exactly the
  * batch runner's pane results, across micro-batch boundaries (buffered
  * open panes in group state, per-burst dynamic decisions inside each
  * micro-batch).
  */
class StreamingSpec extends SparkSpec {

  private val w42 = QueryWindow(4, 2)

  private def mkEvents(seed: Int, n: Int, groups: Int, panes: Int, paneMs: Long): Vector[Event] = {
    val rnd = new Random(seed)
    val types = Vector("A", "B", "C", "D")
    (0 until n).toVector.map { i =>
      Event(i.toLong, rnd.nextLong(paneMs * panes).abs, types(rnd.nextInt(types.size)),
        s"g${rnd.nextInt(groups)}", Map("v" -> rnd.nextInt(100).toDouble))
    }.sorted(Event.streamOrder).zipWithIndex.map { case (e, i) => e.copy(id = i.toLong) }
  }

  private def runStreaming(
      wl: CompiledWorkload,
      policy: SharingPolicy,
      batches: Seq[Seq[Event]],
      name: String,
  ): Vector[PaneResult] = {
    implicit val sqlCtx = spark.sqlContext
    import spark.implicits._
    val input = MemoryStream[Event]
    val out = StreamingRunner.run(spark, wl, policy, input.toDS())
    val query: StreamingQuery = out.writeStream
      .format("memory").queryName(name).outputMode("append").start()
    try {
      batches.foreach { b => input.addData(b); query.processAllAvailable() }
      val groups = batches.flatten.map(_.grp).distinct
      val lastTs = batches.flatten.map(_.ts).max
      input.addData(StreamingRunner.flushEvents(groups, lastTs + wl.paneMs * 10))
      query.processAllAvailable()
      spark.table(name).as[PaneResult].collect().toVector
    } finally query.stop()
  }

  private def key(r: PaneResult) = (r.queryId, r.grp, r.pane)

  private def batchRows(wl: CompiledWorkload, events: Seq[Event]): Vector[PaneResult] =
    BatchRunner.paneResults(spark, wl, Dynamic(), BatchRunner.toDS(spark, events)).collect().toVector

  test("streaming equals batch over multiple micro-batches") {
    val qs = Seq(
      TrendQuery("q1", Pattern.seq("A", "B+"), window = w42),
      TrendQuery("q2", Pattern.seq("C", "B+"), window = w42))
    val wl = Workload.compile(qs)
    val events = mkEvents(31, 160, 3, 4, wl.paneMs)
    val batches = events.grouped(40).toSeq // pane boundaries cross batches
    val streamed = runStreaming(wl, Dynamic(), batches, "res_multi")
    assertSameRows(streamed, batchRows(wl, events))
  }

  test("a pane is emitted only once even when its events span micro-batches") {
    val qs = Seq(TrendQuery("q1", Pattern.seq("A", "B+"), window = w42))
    val wl = Workload.compile(qs)
    val events = mkEvents(32, 90, 2, 3, wl.paneMs)
    val streamed = runStreaming(wl, Dynamic(), events.grouped(13).toSeq, "res_once")
    val keys = streamed.map(key)
    assert(keys.distinct.size == keys.size)
  }

  test("per-micro-batch dynamic decisions agree with NeverShare results") {
    val qs = Seq(
      TrendQuery("q1", Pattern.seq("A", "B+"), preds = Seq(NumPred("B", "v", ">", 50)), window = w42),
      TrendQuery("q2", Pattern.seq("A", "B+"), window = w42))
    val wl = Workload.compile(qs)
    val events = mkEvents(33, 120, 2, 3, wl.paneMs)
    val dyn = runStreaming(wl, Dynamic(), events.grouped(30).toSeq, "res_dyn")
    val nev = runStreaming(wl, NeverShare, events.grouped(30).toSeq, "res_nev")
    assertSameRows(dyn, nev)
  }

  test("an event that arrives after later events of its open pane is merged in stream order") {
    val wl = Workload.compile(Seq(TrendQuery("q1", Pattern.seq("A", "B+"), window = w42)))
    val (b10, a20, b30) = (Event(0, 10, "B", "g"), Event(1, 20, "A", "g"), Event(2, 30, "B", "g"))
    // Only A@20 -> B@30 is a trend; B@10 comes before any A.
    val streamed = runStreaming(wl, Dynamic(), Seq(Seq(b10, b30), Seq(a20)), "res_late_in_pane")
    val batch = batchRows(wl, Seq(b10, a20, b30))
    assert(batch.map(_.c) == Vector(1.0))
    assertSameRows(streamed, batch)
  }

  /** Cuts `events` into micro-batches at random points, then delays random
    * events to the next micro-batch, but only while the event's pane is
    * still its group's newest once its own micro-batch is in: events arrive
    * out of order within an open pane, never after their pane was emitted.
    */
  private def randomSplits(rnd: Random, events: Vector[Event], paneMs: Long): Vector[Vector[Event]] = {
    val cuts = (0 +: Vector.fill(6)(rnd.nextInt(events.size)) :+ events.size).sorted
    val batches = cuts.zip(cuts.tail).map { case (a, b) => events.slice(a, b) }
    val newest = scala.collection.mutable.Map.empty[String, Long]
    var carry = Vector.empty[Event]
    batches.zipWithIndex.map { case (b, i) =>
      val in = b ++ carry
      in.foreach(e => newest(e.grp) = math.max(newest.getOrElse(e.grp, -1L), e.pane(paneMs)))
      val (later, now) = in.partition { e =>
        i < batches.size - 1 && e.pane(paneMs) == newest(e.grp) && rnd.nextDouble() < 0.3
      }
      carry = later
      now
    }
  }

  for (seed <- 40 until 43) {
    test(s"random micro-batch splits give the batch runner's rows (seed $seed)") {
      val qs = Seq(
        TrendQuery("q1", Pattern.seq("A", "B+"), window = w42),
        TrendQuery("q2", Pattern.seq("C", "B+"), Agg.Sum("B", "v"), window = w42),
        TrendQuery("q3", Pattern.seq("A", "B+", "!D"), Agg.Max("B", "v"), window = w42),
        TrendQuery("q4", Pattern.seq("A", "!C", "B+"), Agg.Avg("B", "v"), window = w42))
      val wl = Workload.compile(qs)
      val events = mkEvents(seed, 150, 3, 4, wl.paneMs)
      val batches = randomSplits(new Random(seed), events, wl.paneMs)
      assert(batches.flatten.sortBy(_.id) == events)
      val streamed = runStreaming(wl, Dynamic(), batches.filter(_.nonEmpty), s"res_split_$seed")
      assertSameRows(streamed, batchRows(wl, events))
    }
  }

  test("state is cleaned up after flush") {
    val qs = Seq(TrendQuery("q1", Pattern.seq("A", "B+"), window = w42))
    val wl = Workload.compile(qs)
    val events = mkEvents(34, 40, 2, 2, wl.paneMs)
    // Flushing twice must not duplicate results or fail.
    implicit val sqlCtx = spark.sqlContext
    import spark.implicits._
    val input = MemoryStream[Event]
    val out = StreamingRunner.run(spark, wl, Dynamic(), input.toDS())
    val query = out.writeStream.format("memory").queryName("res_clean").outputMode("append").start()
    try {
      input.addData(events); query.processAllAvailable()
      val groups = events.map(_.grp).distinct
      input.addData(StreamingRunner.flushEvents(groups, events.map(_.ts).max + wl.paneMs * 10))
      query.processAllAvailable()
      val n1 = spark.table("res_clean").count()
      input.addData(StreamingRunner.flushEvents(groups, events.map(_.ts).max + wl.paneMs * 20))
      query.processAllAvailable()
      assert(spark.table("res_clean").count() == n1)
    } finally query.stop()
  }
}
