package repro.spark

import java.lang.Double.{doubleToRawLongBits, longBitsToDouble}

import scala.collection.mutable
import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration

import org.apache.spark.Partitioner
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
  * the stream by the values of grouping attributes"): each task packs its
  * events into one [[EventBlocks]] block per group, and the blocks are
  * shuffled by group. Within a group the events are sorted in stream order
  * and each pane runs through the [[HamletExecutor]] at the [[RunningSums]]
  * cost (trends are pane-scoped, DESIGN.md).
  * Window roll-up sums each query's panes into its window instances in the
  * task that holds the panes, so every pane result is reused by all
  * windows that hold it; behind [[paneResults]] it finishes there too, so a
  * pass is two stages: ingest, then engine and roll-up.
  */
object BatchRunner {

  /** One window instance of one query over one group: a row of [[windowed]]. */
  final case class WindowRow(queryId: String, grp: String, windowInstance: Long, windowEndPane: Long,
                             value: Option[Double])

  private lazy val eventEncoder: Encoder[Event] = Encoders.product[Event]
  private lazy val paneEncoder: Encoder[PaneResult] = Encoders.product[PaneResult]
  private lazy val windowEncoder: Encoder[WindowRow] = Encoders.product[WindowRow]

  /** The events as a Dataset, in `defaultParallelism` slices: the slices
    * are packed on the driver concurrently, each as one [[EventBlocks]]
    * block, and unpacked into `Event`s in their Spark tasks.
    */
  def toDS(spark: SparkSession, events: Seq[Event]): Dataset[Event] = {
    implicit val ec: ExecutionContext = ExecutionContext.global
    val n = spark.sparkContext.defaultParallelism
    val evs = events.toIndexedSeq
    val blocks = Await.result(Future.traverse((0 until n).toVector) { i =>
      Future(EventBlocks.encode(evs.slice((i.toLong * evs.size / n).toInt, ((i + 1).toLong * evs.size / n).toInt)))
    }, Duration.Inf)
    spark.createDataset(spark.sparkContext.parallelize(blocks, n).flatMap(EventBlocks.decode))(eventEncoder)
  }

  /** Per-(query, group, pane) aggregate channels. */
  def paneResults(
      spark: SparkSession,
      wl: CompiledWorkload,
      policy: SharingPolicy,
      events: Dataset[Event],
  ): Dataset[PaneResult] = {
    val exec = new HamletExecutor(wl, policy, RunningSums)
    val panes = objects(events)
      .mapPartitions(it => byGroup(it)(_.grp).iterator.map { case (g, es) => g -> EventBlocks.encode(es) })
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
    * Each task rolls its own pane rows up per group first, and the partials
    * of a group from all tasks are then merged by group. When `panes` comes
    * straight from [[paneResults]] (not cached, same partition count) its
    * tasks already hold whole groups, so the roll-up and the merge both run
    * in the pane task and nothing is shuffled.
    *
    * Output columns: queryId, grp, windowInstance, windowEndPane, value.
    */
  def windowed(spark: SparkSession, wl: CompiledWorkload, panes: Dataset[PaneResult]): DataFrame = {
    val qs = wl.queries.map(q => (q.id, q.windowPanes.toLong, q.slidePanes.toLong, q.q.agg)).toArray
    val index = qs.iterator.map(_._1).zipWithIndex.toMap
    val rows = objects(panes)
      .mapPartitions({ it =>
        val acc = mutable.HashMap.empty[String, Windows]
        it.foreach { r =>
          val q = index(r.queryId)
          val (_, wp, sp, _) = qs(q)
          val w = acc.getOrElseUpdate(r.grp, new Windows)
          val a = PaneAgg(r.c, r.n, r.s, r.mn, r.mx)
          for (i <- math.max(0L, Math.floorDiv(r.pane - wp + sp, sp)) to Math.floorDiv(r.pane, sp)) w.add(q, i, a)
        }
        acc.iterator.map { case (g, w) => g -> w.pack }
      }, preservesPartitioning = true)
      .partitionBy(partitioner(spark))
      .mapPartitions { parts =>
        byGroup(parts)(_._1).iterator.flatMap { case (grp, ps) =>
          // Behind `paneResults` a group arrives as one partial: its rows
          // come straight from the packed array.
          val packed =
            if (ps.size == 1) ps.head._2
            else { val w = new Windows; ps.foreach(p => w.unpack(p._2)); w.pack }
          Iterator.range(0, packed.length, 7).map { j =>
            val (id, wp, sp, agg) = qs(packed(j).toInt)
            val i = packed(j + 1)
            WindowRow(id, grp, i, i * sp + wp, value(agg, Windows.agg(packed, j)))
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

  /** `xs` collected per key. */
  private def byGroup[A](xs: Iterator[A])(key: A => String): mutable.HashMap[String, mutable.ArrayBuffer[A]] = {
    val out = mutable.HashMap.empty[String, mutable.ArrayBuffer[A]]
    xs.foreach(x => out.getOrElseUpdate(key(x), mutable.ArrayBuffer.empty) += x)
    out
  }

  /** The window instances of one group: (query index, instance) → the
    * channels of the panes added so far. Shipped as one `Array[Long]`,
    * seven entries per instance: query index, instance, and the bits of
    * c, n, s, mn and mx.
    */
  private final class Windows {
    private val sums = mutable.HashMap.empty[(Int, Long), PaneAgg]

    def add(q: Int, i: Long, a: PaneAgg): Unit = sums.updateWith((q, i))(o => Some(o.fold(a)(_ + a)))

    def pack: Array[Long] = {
      val out = new Array[Long](7 * sums.size)
      var j = 0
      sums.foreach { case ((q, i), a) =>
        out(j) = q; out(j + 1) = i
        out(j + 2) = doubleToRawLongBits(a.c); out(j + 3) = doubleToRawLongBits(a.n)
        out(j + 4) = doubleToRawLongBits(a.s); out(j + 5) = doubleToRawLongBits(a.mn)
        out(j + 6) = doubleToRawLongBits(a.mx)
        j += 7
      }
      out
    }

    def unpack(p: Array[Long]): Unit = {
      var j = 0
      while (j < p.length) { add(p(j).toInt, p(j + 1), Windows.agg(p, j)); j += 7 }
    }
  }

  private object Windows {
    /** The channels of the instance packed at `p(j)`. */
    def agg(p: Array[Long], j: Int): PaneAgg =
      PaneAgg(longBitsToDouble(p(j + 2)), longBitsToDouble(p(j + 3)), longBitsToDouble(p(j + 4)),
        longBitsToDouble(p(j + 5)), longBitsToDouble(p(j + 6)))
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
