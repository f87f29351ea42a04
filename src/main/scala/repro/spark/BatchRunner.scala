package repro.spark

import scala.collection.mutable
import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration

import org.apache.spark.{Partition, Partitioner, SparkContext, TaskContext}
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Dataset, Encoder, Encoders, SparkSession}
import org.apache.spark.sql.catalyst.plans.logical.SerializeFromObject
import org.apache.spark.sql.execution.ExternalRDD
import org.apache.spark.sql.types.ObjectType
import org.apache.spark.storage.StorageLevel

import repro.core.{PaneAgg, PaneResult}
import repro.events.Event
import repro.hamlet.{HamletExecutor, RunningSums, SharingPolicy}
import repro.metrics.Metrics
import repro.query.{Agg, CompiledWorkload}

/** Batch execution of a compiled workload on Spark.
  *
  * The stream is partitioned by the grouping attribute (§3.1 "partitions
  * the stream by the values of grouping attributes"): [[toDS]] packs each
  * group's events into one [[EventBlocks]] block in the partition the
  * group hashes to, and any other input is packed per (task, group) and
  * shuffled by group. Within a group the events are sorted in stream order
  * and each pane runs through the [[HamletExecutor]] at the [[RunningSums]]
  * cost (trends are pane-scoped, DESIGN.md).
  * Window roll-up gathers each group's pane rows in one task and sums each
  * query's panes into its window instances there, so every pane result is
  * reused by all windows that hold it. Behind [[paneResults]] the groups
  * are already whole in the pane tasks, so a pass from [[toDS]] to window
  * rows is one stage with no shuffle.
  */
object BatchRunner {

  /** One window instance of one query over one group: a row of [[windowed]]. */
  final case class WindowRow(queryId: String, grp: String, windowInstance: Long, windowEndPane: Long,
                             value: Option[Double])

  private lazy val eventEncoder: Encoder[Event] = Encoders.product[Event]
  private lazy val paneEncoder: Encoder[PaneResult] = Encoders.product[PaneResult]
  private lazy val windowEncoder: Encoder[WindowRow] = Encoders.product[WindowRow]

  /** The events as a Dataset, one [[EventBlocks]] block per group: the
    * groups are gathered on the driver, each block lies in the partition
    * that the runner's partitioner picks for its group, and the partitions'
    * blocks are encoded concurrently. [[paneResults]] takes the blocks as
    * they are; any other read decodes them into `Event`s in its tasks.
    */
  def toDS(spark: SparkSession, events: Seq[Event]): Dataset[Event] = {
    implicit val ec: ExecutionContext = ExecutionContext.global
    val part = partitioner(spark)
    val evs = Array.fill(part.numPartitions)(mutable.ArrayBuffer.empty[Event])
    events.foreach(e => evs(part.getPartition(e.grp)) += e)
    val parts = Await.result(Future.traverse(evs.toVector.zipWithIndex) { case (es, i) =>
      Future(new BlockPartition(i, groupBlocks(es.iterator).toVector))
    }, Duration.Inf)
    spark.createDataset[Event](new EventRDD(new GroupBlocks(spark.sparkContext, parts.toArray, part)))(eventEncoder)
  }

  /** Per-(query, group, pane) aggregate channels. */
  def paneResults(
      spark: SparkSession,
      wl: CompiledWorkload,
      policy: SharingPolicy,
      events: Dataset[Event],
  ): Dataset[PaneResult] = {
    val exec = new HamletExecutor(wl, policy, RunningSums)
    val blocks = objects(events) match {
      case e: EventRDD => e.blocks
      case rdd => rdd.mapPartitions(groupBlocks)
    }
    val panes = blocks
      .partitionBy(partitioner(spark))
      .mapPartitions({ blocks =>
        byGroup(blocks)(_._1).iterator.flatMap { case (grp, bs) =>
          val events = bs.iterator.flatMap(b => EventBlocks.decode(b._2)).toArray.sorted(Event.streamOrder)
          exec.groupResults(grp, events, new Metrics)
        }
      }, preservesPartitioning = true)
    spark.createDataset(panes)(paneEncoder)
  }

  /** Roll pane results up into sliding-window results per query
    * (WITHIN/SLIDE): pane p belongs to window instances i with
    * i·slide ≤ p < i·slide + window; a window instance's value combines
    * its panes' channels with `PaneAgg.+` and the final value is derived
    * per the query's aggregate (null for AVG over no events and for
    * MIN/MAX over no trend).
    *
    * The pane rows are keyed by group and partitioned by the runner's
    * partitioner, and one task rolls each group's rows up into its window
    * instances. When `panes` comes straight from [[paneResults]] (not
    * cached, same partition count) it already carries that partitioner, so
    * the roll-up runs in the pane task and nothing is shuffled; any other
    * input is shuffled once, as pane rows.
    *
    * Output columns: queryId, grp, windowInstance, windowEndPane, value.
    */
  def windowed(spark: SparkSession, wl: CompiledWorkload, panes: Dataset[PaneResult]): DataFrame = {
    val qs = wl.queries.map(q => (q.id, q.windowPanes.toLong, q.slidePanes.toLong, q.q.agg)).toArray
    val index = qs.iterator.map(_._1).zipWithIndex.toMap
    val rows = objects(panes)
      .mapPartitions(_.map(r => r.grp -> r), preservesPartitioning = true)
      .partitionBy(partitioner(spark))
      .mapPartitions { it =>
        // group → (query index, instance) → the channels of its panes so far
        val acc = mutable.HashMap.empty[String, mutable.HashMap[(Int, Long), PaneAgg]]
        it.foreach { case (grp, r) =>
          val q = index(r.queryId)
          val (_, wp, sp, _) = qs(q)
          val w = acc.getOrElseUpdate(grp, mutable.HashMap.empty)
          val a = PaneAgg(r.c, r.n, r.s, r.mn, r.mx)
          for (i <- math.max(0L, Math.floorDiv(r.pane - wp + sp, sp)) to Math.floorDiv(r.pane, sp))
            w.updateWith((q, i))(o => Some(o.fold(a)(_ + a)))
        }
        acc.iterator.flatMap { case (grp, w) =>
          w.iterator.map { case ((q, i), a) =>
            val (id, wp, sp, agg) = qs(q)
            WindowRow(id, grp, i, i * sp + wp, value(agg, a))
          }
        }
      }
    spark.createDataset(rows)(windowEncoder).toDF()
  }

  /** The objects of `ds`: for a Dataset made by `createDataset(rdd)` and
    * not cached, that RDD itself (so a Dataset that [[toDS]] or
    * [[paneResults]] made is not planned again, and keeps its partitioner);
    * for any other, `ds.rdd`. `as[T]` keeps the plan of a Dataset of
    * another class, so the RDD's class is checked too.
    */
  private def objects[T](ds: Dataset[T]): RDD[T] = ds.queryExecution.analyzed match {
    case SerializeFromObject(_, ExternalRDD(obj, rdd))
        if obj.dataType == ObjectType(ds.encoder.clsTag.runtimeClass) && ds.storageLevel == StorageLevel.NONE =>
      rdd.asInstanceOf[RDD[T]]
    case _ => ds.rdd
  }

  private def partitioner(spark: SparkSession) =
    new GroupPartitioner(spark.conf.get("spark.sql.shuffle.partitions").toInt)

  /** Hashes a group into `numPartitions`, as `HashPartitioner` does, but
    * equals only its own kind: an RDD that carries it was partitioned by
    * this object, so a group's rows are in one partition.
    */
  private final class GroupPartitioner(val numPartitions: Int) extends Partitioner {
    def getPartition(key: Any): Int = if (key == null) 0 else Math.floorMod(key.hashCode, numPartitions)
    override def equals(other: Any): Boolean = other match {
      case p: GroupPartitioner => p.numPartitions == numPartitions
      case _                   => false
    }
    override def hashCode: Int = numPartitions
  }

  /** One partition of [[toDS]]: the block of each group placed in it. It
    * holds the blocks itself, so each task ships only its own.
    */
  private final class BlockPartition(val index: Int, val blocks: Seq[(String, Array[Byte])]) extends Partition

  /** [[toDS]]'s blocks, declaring the partitioner that placed them. */
  private final class GroupBlocks(sc: SparkContext, @transient private val parts: Array[Partition],
                                  part: GroupPartitioner) extends RDD[(String, Array[Byte])](sc, Nil) {
    override val partitioner: Option[Partitioner] = Some(part)
    protected def getPartitions: Array[Partition] = parts
    def compute(split: Partition, context: TaskContext): Iterator[(String, Array[Byte])] =
      split.asInstanceOf[BlockPartition].blocks.iterator
  }

  /** The events of [[toDS]]'s `blocks`, decoded in their tasks. */
  private final class EventRDD(val blocks: RDD[(String, Array[Byte])]) extends RDD[Event](blocks) {
    protected def getPartitions: Array[Partition] = blocks.partitions
    def compute(split: Partition, context: TaskContext): Iterator[Event] =
      blocks.iterator(split, context).flatMap(b => EventBlocks.decode(b._2))
  }

  /** One [[EventBlocks]] block per group of `events`, keyed by the group. */
  private def groupBlocks(events: Iterator[Event]): Iterator[(String, Array[Byte])] =
    byGroup(events)(_.grp).iterator.map { case (g, es) => g -> EventBlocks.encode(es) }

  /** `xs` collected per key. */
  private def byGroup[A](xs: Iterator[A])(key: A => String): mutable.HashMap[String, mutable.ArrayBuffer[A]] = {
    val out = mutable.HashMap.empty[String, mutable.ArrayBuffer[A]]
    xs.foreach(x => out.getOrElseUpdate(key(x), mutable.ArrayBuffer.empty) += x)
    out
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
