package repro.spark

import java.nio.file.Files
import java.nio.file.attribute.PosixFilePermissions
import java.util.concurrent.ConcurrentLinkedQueue

import scala.jdk.CollectionConverters._
import scala.util.Random

import jdk.jfr.Recording
import jdk.jfr.consumer.RecordingFile
import org.apache.spark.sql.Dataset
import org.apache.spark.sql.execution.streaming.checkpointing.FileContextBasedCheckpointFileManager
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

  private def flush(wl: CompiledWorkload, events: Seq[Event]): Seq[Event] =
    StreamingRunner.flushEvents(events.map(_.grp).distinct, events.map(_.ts).max + wl.paneMs * 10)

  /** Starts a query on `checkpoint`, feeds it `batches` one micro-batch
    * each, stops it and returns the rows it emitted.
    */
  private def runOn(
      checkpoint: String,
      wl: CompiledWorkload,
      input: MemoryStream[Event],
      batches: Seq[Seq[Event]],
  ): Vector[PaneResult] = {
    val emitted = new ConcurrentLinkedQueue[PaneResult]()
    val query = StreamingRunner.run(spark, wl, Dynamic(), input.toDS()).writeStream
      .option("checkpointLocation", checkpoint)
      .foreachBatch { (df: Dataset[PaneResult], _: Long) => df.collect().foreach(emitted.add) }
      .start()
    try batches.foreach { b => input.addData(b); query.processAllAvailable() }
    finally query.stop()
    emitted.asScala.toVector
  }

  private val splitQueries = Seq(
    TrendQuery("q1", Pattern.seq("A", "B+"), window = w42),
    TrendQuery("q2", Pattern.seq("C", "B+"), Agg.Sum("B", "v"), window = w42),
    TrendQuery("q3", Pattern.seq("A", "B+", "!D"), Agg.Max("B", "v"), window = w42),
    TrendQuery("q4", Pattern.seq("A", "!C", "B+"), Agg.Avg("B", "v"), window = w42))

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
      val wl = Workload.compile(splitQueries)
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

  test("a query restarted from its checkpoint emits every row exactly once") {
    val wl = Workload.compile(splitQueries)
    val events = mkEvents(35, 150, 3, 4, wl.paneMs)
    val batches = events.grouped(25).toSeq
    implicit val sqlCtx = spark.sqlContext
    import spark.implicits._
    val input = MemoryStream[Event]
    withTempDir { dir =>
      val first = runOn(dir.toString, wl, input, batches.take(3))
      val second = runOn(dir.toString, wl, input, batches.drop(3) :+ flush(wl, events))
      assert(first.nonEmpty && second.nonEmpty)
      assertSameRows(first ++ second, batchRows(wl, events))
    }
  }

  test("a query on a local checkpoint starts no readlink or chmod process") {
    val wl = Workload.compile(splitQueries)
    val events = mkEvents(36, 120, 3, 4, wl.paneMs)
    implicit val sqlCtx = spark.sqlContext
    import spark.implicits._
    val input = MemoryStream[Event]
    withTempDir { dir =>
      val jfr = dir.resolve("process-starts.jfr")
      val rec = new Recording()
      val rows =
        try {
          rec.enable("jdk.ProcessStart")
          rec.start()
          val rows = runOn(dir.resolve("checkpoint").toString, wl, input, events.grouped(40).toSeq :+ flush(wl, events))
          rec.stop()
          rec.dump(jfr)
          rows
        } finally rec.close()
      val commands = RecordingFile.readAllEvents(jfr).asScala.map(_.getString("command")).toVector
      // Spark itself may still start `rm` or `getconf`.
      val forks = commands.filter(c => Set("readlink", "chmod")(c.takeWhile(_ != ' ').split('/').last))
      assert(forks.isEmpty, s"${forks.size} of ${commands.size} process starts: ${forks.take(3)}")
      assertSameRows(rows, batchRows(wl, events))
    }
  }

  test("a query writes the checkpoint files Spark's own manager writes, with the same modes") {
    val wl = Workload.compile(splitQueries)
    val events = mkEvents(37, 90, 3, 4, wl.paneMs)
    val key = "spark.sql.streaming.checkpointFileManagerClass"
    val uuid = "[0-9a-f]{8}(-[0-9a-f]{4}){3}-[0-9a-f]{12}".r
    implicit val sqlCtx = spark.sqlContext
    import spark.implicits._
    /** Relative path (ids masked) → mode of each file and directory written. */
    def checkpoint(manager: String): Map[String, String] = withTempDir { dir =>
      val before = spark.conf.getOption(key)
      spark.conf.set(key, manager)
      try runOn(dir.toString, wl, MemoryStream[Event], events.grouped(30).toSeq :+ flush(wl, events))
      finally before.fold(spark.conf.unset(key))(spark.conf.set(key, _))
      Files.walk(dir).iterator.asScala.drop(1).map { f =>
        uuid.replaceAllIn(dir.relativize(f).toString, "<id>") ->
          PosixFilePermissions.toString(Files.getPosixFilePermissions(f))
      }.toMap
    }
    val ours = checkpoint(classOf[LocalCheckpointFileManager].getName)
    val sparks = checkpoint(classOf[FileContextBasedCheckpointFileManager].getName)
    assert(ours.keys.exists(_.endsWith(".delta")) && ours.keys.exists(_.endsWith(".crc")))
    assert(ours == sparks)
  }
}
