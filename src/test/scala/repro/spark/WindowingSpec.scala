package repro.spark

import scala.collection.mutable
import scala.util.Random

import org.apache.spark.HashPartitioner
import org.apache.spark.sql.{DataFrame, Dataset}
import org.apache.spark.sql.types._

import repro.SparkSpec
import repro.core.{PaneAgg, PaneResult}
import repro.events.StreamGen
import repro.hamlet.Dynamic
import repro.query._

/** Window roll-up: pane results → WITHIN/SLIDE window results per query,
  * with the final value derived per aggregate.
  */
class WindowingSpec extends SparkSpec {

  private def pr(q: String, grp: String, pane: Long, c: Double, n: Double = 0,
                 s: Double = 0, mn: Double = Double.PositiveInfinity,
                 mx: Double = Double.NegativeInfinity) =
    PaneResult(q, grp, pane, c, n, s, mn, mx)

  private def collect(wl: CompiledWorkload, rows: Seq[PaneResult]): Map[(String, String, Long), Option[Double]] = {
    import spark.implicits._
    BatchRunner.windowed(spark, wl, spark.createDataset(rows))
      .collect()
      .map(r => (r.getAs[String]("queryId"), r.getAs[String]("grp"), r.getAs[Long]("windowInstance")) ->
        Option(r.getAs[java.lang.Double]("value")).map(_.doubleValue()))
      .toMap
  }

  test("tumbling window (w = s) sums its panes") {
    val wl = Workload.compile(Seq(TrendQuery("q", Pattern.seq("A", "B+"), window = QueryWindow(4, 4))))
    // pane = 4 min -> windowPanes = 1: each pane is its own window.
    val out = collect(wl, Seq(pr("q", "g", 0, 3), pr("q", "g", 1, 5)))
    assert(out((("q"), "g", 0L)).contains(3.0))
    assert(out((("q"), "g", 1L)).contains(5.0))
  }

  test("sliding window: every pane lands in w/s instances") {
    val wl = Workload.compile(Seq(TrendQuery("q", Pattern.seq("A", "B+"), window = QueryWindow(4, 2))))
    // windowPanes = 2, slidePanes = 1: instance i covers panes {i, i+1}.
    val out = collect(wl, Seq(pr("q", "g", 0, 1), pr("q", "g", 1, 10), pr("q", "g", 2, 100)))
    assert(out((("q"), "g", 0L)).contains(11.0))  // panes 0,1
    assert(out((("q"), "g", 1L)).contains(110.0)) // panes 1,2
    assert(out((("q"), "g", 2L)).contains(100.0)) // pane 2 (open tail)
  }

  test("AVG derives from summed S and N channels") {
    val wl = Workload.compile(Seq(
      TrendQuery("q", Pattern.seq("A", "B+"), Agg.Avg("B", "v"), window = QueryWindow(4, 4))))
    val out = collect(wl, Seq(pr("q", "g", 0, 2, n = 4, s = 10), pr("q", "g", 1, 2, n = 2, s = 8)))
    assert(out((("q"), "g", 0L)).contains(2.5))
    assert(out((("q"), "g", 1L)).contains(4.0))
  }

  test("MIN/MAX combine across panes; empty combines yield null") {
    val wl = Workload.compile(Seq(
      TrendQuery("mn", Pattern.seq("A", "B+"), Agg.Min("B", "v"), window = QueryWindow(8, 4)),
      TrendQuery("mx", Pattern.seq("A", "B+"), Agg.Max("B", "v"), window = QueryWindow(8, 4))))
    val rows = Seq(
      pr("mn", "g", 0, 1, mn = 5), pr("mn", "g", 1, 1, mn = 3),
      pr("mx", "g", 0, 1, mx = 7), pr("mx", "g", 1, 1, mx = 9),
      pr("mn", "h", 0, 0), // no trend: mn stays +inf -> null value
    )
    val out = collect(wl, rows)
    assert(out((("mn"), "g", 0L)).contains(3.0))
    assert(out((("mx"), "g", 0L)).contains(9.0))
    assert(out((("mn"), "h", 0L)).isEmpty)
  }

  test("queries with different windows roll up independently") {
    val wl = Workload.compile(Seq(
      TrendQuery("a", Pattern.seq("A", "B+"), window = QueryWindow(4, 2)),
      TrendQuery("b", Pattern.seq("C", "B+"), window = QueryWindow(8, 2))))
    // pane = 2 min; "a": 2 panes/window, "b": 4 panes/window.
    val rows = (0 until 4).flatMap(p => Seq(pr("a", "g", p.toLong, 1), pr("b", "g", p.toLong, 1)))
    val out = collect(wl, rows)
    assert(out((("a"), "g", 0L)).contains(2.0))
    assert(out((("b"), "g", 0L)).contains(4.0))
  }

  test("window rows keep their schema: names, order, types and nullability") {
    import spark.implicits._
    val wl = Workload.compile(Seq(TrendQuery("q", Pattern.seq("A", "B+"), window = QueryWindow(4, 2))))
    val schema = BatchRunner.windowed(spark, wl, spark.emptyDataset[PaneResult]).schema
    assert(schema == StructType(Seq(
      StructField("queryId", StringType, nullable = true),
      StructField("grp", StringType, nullable = true),
      StructField("windowInstance", LongType, nullable = false),
      StructField("windowEndPane", LongType, nullable = false),
      StructField("value", DoubleType, nullable = true))))
  }

  /** `windowed`'s rows over `panes`, sorted by query, group and instance. */
  private def windowRows(wl: CompiledWorkload, panes: Dataset[PaneResult]) =
    BatchRunner.windowed(spark, wl, panes).collect().toVector
      .map(r => (r.getString(0), r.getString(1), r.getLong(2), r.getLong(3), Option(r.getAs[java.lang.Double](4))))
      .sortBy(r => (r._1, r._2, r._3))

  private lazy val spreadWl = Workload.compile(Seq(
    TrendQuery("a", Pattern.seq("A", "B+"), Agg.Avg("B", "v"), window = QueryWindow(8, 2)),
    TrendQuery("b", Pattern.seq("C", "B+"), Agg.Max("B", "v"), window = QueryWindow(6, 2))))

  /** Pane rows of group "g" for both queries of [[spreadWl]], with integer
    * channels, so every order of summing gives the same bits.
    */
  private val spread = (0L until 20L).flatMap(p => Seq(
    pr("a", "g", p, (p % 3).toDouble, n = (1 + p % 2).toDouble, s = (2 * p).toDouble),
    pr("b", "g", p, 1, n = 1, s = 0, mn = (-p).toDouble, mx = (p * 7 % 11).toDouble)))

  test("partials of a group merge across tasks: rows spread over partitions roll up as from one") {
    import spark.implicits._
    val apart = (0L until 20L).map(p => pr("a", "h", p, 1, n = 1, s = p.toDouble))
    val one = windowRows(spreadWl, spark.createDataset(spread ++ apart).repartition(1))
    // "g" round-robin over 7 partitions, "h" alone in an eighth.
    val many = spark.createDataset(spread).repartition(7).union(spark.createDataset(apart).repartition(1))
    val groupsPerPartition = many.rdd.mapPartitions(it => Iterator(it.map(_.grp).toSet)).collect().toVector
    assert(groupsPerPartition.count(_.contains("g")) == 7)
    assert(groupsPerPartition.count(_.contains("h")) == 1 && groupsPerPartition.contains(Set("h")))
    assert(one.nonEmpty && one.map(_._2).toSet == Set("g", "h"))
    assert(windowRows(spreadWl, many) == one)
  }

  test("a foreign partitioner never skips the merge") {
    import spark.implicits._
    val n = spark.conf.get("spark.sql.shuffle.partitions").toInt

    // Rows hashed by pane under the session's partition count: a
    // `HashPartitioner` of the runner's count, on a group spread over
    // several partitions.
    val hashed = spark.sparkContext.parallelize(spread.map(r => r.pane -> r))
      .partitionBy(new HashPartitioner(n))
      .mapPartitions(_.map(_._2), preservesPartitioning = true)
    assert(hashed.partitioner.contains(new HashPartitioner(n)))
    assert(hashed.mapPartitions(it => Iterator(it.nonEmpty)).collect().count(identity) > 1)
    val one = windowRows(spreadWl, spark.createDataset(spread).repartition(1))
    assert(one.nonEmpty && windowRows(spreadWl, spark.createDataset(hashed)) == one)

    // Pane rows from `paneResults`, rolled up under another partition count.
    val events = StreamGen.ridesharing(minutes = 16, eventsPerMin = 40, nGroups = 5, meanKleene = 3, maxKleene = 6,
      seed = 9)
    val wl = Workload.compile(Seq(
      TrendQuery("r", Pattern.seq("R", "T+", "D"), window = QueryWindow(8, 2)),
      TrendQuery("s", Pattern.seq("R", "T+"), Agg.Sum("T", "price"), window = QueryWindow(4, 2))))
    def panes = BatchRunner.paneResults(spark, wl, Dynamic(), BatchRunner.toDS(spark, events))
    val same = windowRows(wl, panes)
    val before = panes
    spark.conf.set("spark.sql.shuffle.partitions", (n + 3).toString)
    try {
      assert(BatchRunner.windowed(spark, wl, before).rdd.getNumPartitions == n + 3)
      assert(same.map(_._2).distinct.size > 1 && windowRows(wl, before) == same)
    } finally spark.conf.set("spark.sql.shuffle.partitions", n.toString)
  }

  test("pane rows of another class viewed as PaneResult roll up as PaneResults do") {
    import spark.implicits._
    val other = spark.createDataset(spark.sparkContext.parallelize(
      spread.map(r => WindowingSpec.PaneRow(r.queryId, r.grp, r.pane, r.c, r.n, r.s, r.mn, r.mx)))).as[PaneResult]
    val want = windowRows(spreadWl, spark.createDataset(spread))
    assert(want.nonEmpty && windowRows(spreadWl, other) == want)
  }

  /** Plain Scala roll-up: (query, group, window instance) → (end pane, value). */
  private def reference(wl: CompiledWorkload,
                        rows: Seq[PaneResult]): Map[(String, String, Long), (Long, Option[Double])] = {
    val byId = wl.queries.map(q => q.id -> q).toMap
    val acc = mutable.HashMap.empty[(String, String, Long), PaneAgg]
    for (r <- rows; q = byId(r.queryId); wi <- 0L to r.pane / q.slidePanes
         if wi * q.slidePanes + q.windowPanes > r.pane) {
      val a = PaneAgg(r.c, r.n, r.s, r.mn, r.mx)
      acc((r.queryId, r.grp, wi)) = acc.get((r.queryId, r.grp, wi)).fold(a)(_ + a)
    }
    acc.map { case (k @ (qid, _, wi), a) =>
      val q = byId(qid)
      val v = q.q.agg match {
        case Agg.CountStar => Some(a.c)
        case Agg.CountE(_) => Some(a.n)
        case Agg.Sum(_, _) => Some(a.s)
        case Agg.Avg(_, _) => if (a.n == 0.0) None else Some(a.s / a.n)
        case Agg.Min(_, _) => if (a.mn.isInfinite) None else Some(a.mn)
        case Agg.Max(_, _) => if (a.mx.isInfinite) None else Some(a.mx)
      }
      k -> (wi * q.slidePanes + q.windowPanes, v)
    }.toMap
  }

  /** `windowed`'s rows `out` hold exactly the instances of `want`, with
    * the same end panes and values equal up to summation order.
    */
  private def assertReference(out: DataFrame, want: Map[(String, String, Long), (Long, Option[Double])]): Unit = {
    val got = out.collect()
      .map(r => (r.getString(0), r.getString(1), r.getLong(2)) ->
        (r.getLong(3), Option(r.getAs[java.lang.Double](4))))
    assert(got.length == want.size && got.map(_._1).toSet == want.keySet)
    got.foreach { case (k, (end, v)) =>
      val (wantEnd, wantV) = want(k)
      assert(end == wantEnd, s"$k")
      (v.map(_.doubleValue()), wantV) match {
        case (Some(a), Some(b)) => assert(math.abs(a - b) <= 1e-6 * math.max(1.0, math.abs(b)), s"$k: $a vs $b")
        case (a, b)             => assert(a == b, s"$k")
      }
    }
  }

  for (seed <- 0 until 4) {
    test(s"random pane rows roll up as the plain Scala reference does (seed $seed)") {
      import spark.implicits._
      val rnd = new Random(seed)
      val aggs = Seq(Agg.CountStar, Agg.CountE("B"), Agg.Sum("B", "v"), Agg.Avg("B", "v"),
        Agg.Min("B", "v"), Agg.Max("B", "v"))
      val wl = Workload.compile(aggs.zipWithIndex.map { case (agg, i) =>
        val slide = 1 + rnd.nextInt(3)
        TrendQuery(s"q$i", Pattern.seq("A", "B+"), agg, window = QueryWindow(slide * (1 + rnd.nextInt(4)), slide))
      })
      // Several groups, each query with a random subset of 12 panes (gaps),
      // and panes without a trend (empty MIN/MAX) or without a B (n = 0).
      val rows = for {
        q <- wl.queries; g <- Seq("g0", "g1", "g2"); p <- 0L until 12L if rnd.nextInt(3) > 0
      } yield {
        val c = rnd.nextInt(4).toDouble
        val n = if (c == 0 || rnd.nextInt(4) == 0) 0.0 else 1.0 + rnd.nextInt(5)
        val lo = rnd.nextGaussian() * 100
        if (n == 0) pr(q.id, g, p, c)
        else pr(q.id, g, p, c, n, s = lo * n + rnd.nextDouble(), mn = lo, mx = lo + rnd.nextDouble() * 50)
      }
      val want = reference(wl, rows)
      // From one task, and with each group's rows spread over five tasks.
      assertReference(BatchRunner.windowed(spark, wl, spark.createDataset(rows)), want)
      assertReference(BatchRunner.windowed(spark, wl, spark.createDataset(rows).repartition(5)), want)
      assert(want.values.exists(_._2.isEmpty), "no null value was exercised")
    }
  }

  for (seed <- 0 until 4) {
    test(s"toDS, paneResults and windowed under random windows match the reference over their pane rows (seed $seed)") {
      val rnd = new Random(100 + seed)
      // Slides are multiples of a random base, so the pane (the gcd of all
      // windows and slides) varies with the seed.
      val base = 1 + rnd.nextInt(3)
      val shapes = Seq(
        (Pattern.seq("R", "T+", "D"), Agg.CountStar), (Pattern.seq("R", "T+"), Agg.CountE("T")),
        (Pattern.seq("R", "T+"), Agg.Sum("T", "price")), (Pattern.seq("R", "T+", "C"), Agg.Avg("T", "speed")),
        (Pattern.seq("R", "T+"), Agg.Min("T", "speed")), (Pattern.seq("R", "T+", "P"), Agg.Max("T", "price")))
      val wl = Workload.compile(shapes.zipWithIndex.map { case ((pat, agg), i) =>
        val slide = base * (1 + rnd.nextInt(3))
        TrendQuery(s"q$i", pat, agg, window = QueryWindow(slide * (1 + rnd.nextInt(3)), slide))
      })
      val events = StreamGen.ridesharing(minutes = 30, eventsPerMin = 30, nGroups = 4, meanKleene = 3,
        maxKleene = 6, seed = seed.toLong)
      def panes = BatchRunner.paneResults(spark, wl, Dynamic(), BatchRunner.toDS(spark, events))
      val want = reference(wl, panes.collect().toVector)
      assert(want.keySet.map(_._1).size == wl.queries.size && want.keySet.map(_._2).size > 1)
      assert(wl.queries.exists(q => q.windowPanes > q.slidePanes), "no sliding window was drawn")
      assertReference(BatchRunner.windowed(spark, wl, panes), want)
    }
  }
}

object WindowingSpec {
  /** A pane row of a class other than [[PaneResult]], with its fields. */
  final case class PaneRow(queryId: String, grp: String, pane: Long, c: Double, n: Double, s: Double, mn: Double,
                           mx: Double)
}
