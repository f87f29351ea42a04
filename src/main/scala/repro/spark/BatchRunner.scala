package repro.spark

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._

import repro.core.PaneResult
import repro.events.Event
import repro.hamlet.{HamletExecutor, SharingPolicy}
import repro.metrics.Metrics
import repro.query.{Agg, CompiledWorkload}

/** Batch execution of a compiled workload on Spark.
  *
  * The stream is partitioned by the grouping attribute with `groupByKey`
  * (§3.1 "partitions the stream by the values of grouping attributes");
  * within a group the events are sorted in stream order and each pane runs
  * through the [[HamletExecutor]] (trends are pane-scoped, DESIGN.md).
  * Window roll-up from pane results is plain DataFrame aggregation.
  */
object BatchRunner {

  def toDS(spark: SparkSession, events: Seq[Event]): Dataset[Event] = {
    import spark.implicits._
    spark.createDataset(events)
  }

  /** Per-(query, group, pane) aggregate channels. */
  def paneResults(
      spark: SparkSession,
      wl: CompiledWorkload,
      policy: SharingPolicy,
      events: Dataset[Event],
  ): Dataset[PaneResult] = {
    import spark.implicits._
    val exec = new HamletExecutor(wl, policy)
    events
      .groupByKey(_.grp)
      .flatMapGroups { (grp: String, it: Iterator[Event]) =>
        exec.groupResults(grp, it.toArray.sorted(Event.streamOrder), new Metrics)
      }
  }

  /** Roll pane results up into sliding-window results per query
    * (WITHIN/SLIDE): pane p belongs to window instances i with
    * i·slide ≤ p < i·slide + window; a window instance's value combines
    * its panes' channels (sums for c/n/s, min/mn, max/mx) and the final
    * value is derived per the query's aggregate.
    *
    * Output columns: queryId, grp, windowInstance, windowEndPane, value.
    */
  def windowed(spark: SparkSession, wl: CompiledWorkload, panes: Dataset[PaneResult]): DataFrame = {
    import spark.implicits._
    val geom = wl.queries
      .map { q =>
        val kind = q.q.agg match {
          case Agg.CountStar => "count"
          case Agg.CountE(_) => "countE"
          case Agg.Sum(_, _) => "sum"
          case Agg.Avg(_, _) => "avg"
          case Agg.Min(_, _) => "min"
          case Agg.Max(_, _) => "max"
        }
        (q.id, q.windowPanes, q.slidePanes, kind)
      }
      .toDF("queryId", "wp", "sp", "kind")

    panes.toDF()
      .join(broadcast(geom), "queryId")
      .withColumn("wi",
        explode(sequence(
          greatest(lit(0L), ceil(($"pane" - $"wp" + 1).cast("double") / $"sp").cast("long")),
          floor($"pane".cast("double") / $"sp").cast("long"))))
      .groupBy($"queryId", $"grp", $"wi", $"kind", $"wp", $"sp")
      .agg(
        sum($"c").as("c"), sum($"n").as("n"), sum($"s").as("sm"),
        min($"mn").as("mn"), max($"mx").as("mx"))
      .select(
        $"queryId", $"grp",
        $"wi".as("windowInstance"),
        ($"wi" * $"sp" + $"wp").as("windowEndPane"),
        when($"kind" === "count", $"c")
          .when($"kind" === "countE", $"n")
          .when($"kind" === "sum", $"sm")
          .when($"kind" === "avg", when($"n" =!= 0.0, $"sm" / $"n"))
          .when($"kind" === "min", when($"mn" =!= lit(Double.PositiveInfinity), $"mn"))
          .when($"kind" === "max", when($"mx" =!= lit(Double.NegativeInfinity), $"mx"))
          .as("value"))
  }
}
