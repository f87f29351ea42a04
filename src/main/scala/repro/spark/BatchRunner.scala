package repro.spark

import scala.collection.mutable

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}

import repro.core.{PaneAgg, PaneResult}
import repro.events.Event
import repro.hamlet.{HamletExecutor, RunningSums, SharingPolicy}
import repro.metrics.Metrics
import repro.query.{Agg, CompiledWorkload}

/** Batch execution of a compiled workload on Spark.
  *
  * The stream is partitioned by the grouping attribute with `groupByKey`
  * (§3.1 "partitions the stream by the values of grouping attributes");
  * within a group the events are sorted in stream order and each pane runs
  * through the [[HamletExecutor]] at the [[RunningSums]] cost (trends are
  * pane-scoped, DESIGN.md).
  * Window roll-up groups the pane results by group once more and sums each
  * query's panes into its window instances in the task, so every pane
  * result is reused by all windows that hold it.
  */
object BatchRunner {

  /** One window instance of one query over one group: a row of [[windowed]]. */
  final case class WindowRow(queryId: String, grp: String, windowInstance: Long, windowEndPane: Long,
                             value: Option[Double])

  /** The events as a Dataset, in `defaultParallelism` slices: each slice
    * is packed on the driver as one [[EventBlocks]] block and unpacked
    * into `Event`s in its Spark task, where the Dataset encoder runs.
    */
  def toDS(spark: SparkSession, events: Seq[Event]): Dataset[Event] = {
    import spark.implicits._
    val n = spark.sparkContext.defaultParallelism
    val evs = events.toIndexedSeq
    val blocks = (0 until n).map { i =>
      EventBlocks.encode(evs.slice((i.toLong * evs.size / n).toInt, ((i + 1).toLong * evs.size / n).toInt))
    }
    spark.createDataset(spark.sparkContext.parallelize(blocks, n).flatMap(EventBlocks.decode))
  }

  /** Per-(query, group, pane) aggregate channels. */
  def paneResults(
      spark: SparkSession,
      wl: CompiledWorkload,
      policy: SharingPolicy,
      events: Dataset[Event],
  ): Dataset[PaneResult] = {
    import spark.implicits._
    val exec = new HamletExecutor(wl, policy, RunningSums)
    events
      .groupByKey(_.grp)
      .flatMapGroups { (grp: String, it: Iterator[Event]) =>
        exec.groupResults(grp, it.toArray.sorted(Event.streamOrder), new Metrics)
      }
  }

  /** Roll pane results up into sliding-window results per query
    * (WITHIN/SLIDE): pane p belongs to window instances i with
    * i·slide ≤ p < i·slide + window; a window instance's value combines
    * its panes' channels with `PaneAgg.+` and the final value is derived
    * per the query's aggregate (null for AVG over no events and for
    * MIN/MAX over no trend).
    *
    * Output columns: queryId, grp, windowInstance, windowEndPane, value.
    */
  def windowed(spark: SparkSession, wl: CompiledWorkload, panes: Dataset[PaneResult]): DataFrame = {
    import spark.implicits._
    val geom = wl.queries.map(q => q.id -> (q.windowPanes.toLong, q.slidePanes.toLong, q.q.agg)).toMap
    panes.groupByKey(_.grp).flatMapGroups { (grp: String, rows: Iterator[PaneResult]) =>
      val acc = mutable.HashMap.empty[(String, Long), PaneAgg]
      for (r <- rows) {
        val (wp, sp, _) = geom(r.queryId)
        val a = PaneAgg(r.c, r.n, r.s, r.mn, r.mx)
        for (i <- math.max(0L, Math.floorDiv(r.pane - wp + sp, sp)) to Math.floorDiv(r.pane, sp))
          acc.updateWith((r.queryId, i))(o => Some(o.fold(a)(_ + a)))
      }
      acc.iterator.map { case ((q, i), a) =>
        val (wp, sp, agg) = geom(q)
        WindowRow(q, grp, i, i * sp + wp, value(agg, a))
      }
    }.toDF()
  }

  private def value(agg: Agg, a: PaneAgg): Option[Double] = agg match {
    case Agg.CountStar => Some(a.c)
    case Agg.CountE(_) => Some(a.n)
    case Agg.Sum(_, _) => Some(a.s)
    case Agg.Avg(_, _) => Option.when(a.n != 0.0)(a.s / a.n)
    case Agg.Min(_, _) => Option.when(a.mn != Double.PositiveInfinity)(a.mn)
    case Agg.Max(_, _) => Option.when(a.mx != Double.NegativeInfinity)(a.mx)
  }
}
