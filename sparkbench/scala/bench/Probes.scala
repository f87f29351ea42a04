package bench

import java.lang.management.{ManagementFactory, MemoryType}
import java.util.concurrent.ConcurrentLinkedQueue

import scala.jdk.CollectionConverters._

import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerTaskEnd}

object Stats {
  /** Linear-interpolated quantile of `xs` (q in [0, 1]). */
  def quantile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "quantile of no samples")
    val s = xs.sorted
    val pos = q * (s.size - 1)
    val lo = math.floor(pos).toInt
    val hi = math.min(lo + 1, s.size - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }
  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)
}

/** One finished Spark task, as its `TaskMetrics` report it. */
final case class TaskRec(stage: Int, runMs: Long, cpuNs: Long, gcMs: Long, shuffleWriteBytes: Long)

/** Collects task metrics from outside the program through a listener. */
final class TaskProbe(sc: SparkContext) extends SparkListener {
  private val recs = new ConcurrentLinkedQueue[TaskRec]()
  sc.addSparkListener(this)

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val m = e.taskMetrics
    if (m != null)
      recs.add(TaskRec(e.stageId, m.executorRunTime, m.executorCpuTime, m.jvmGCTime,
        m.shuffleWriteMetrics.bytesWritten))
  }

  /** Tasks finished since the last call (waits for the listener bus). */
  def drain(): Vector[TaskRec] = {
    org.apache.spark.BenchAccess.waitForListeners(sc)
    val out = Vector.newBuilder[TaskRec]
    var r = recs.poll()
    while (r != null) { out += r; r = recs.poll() }
    out.result()
  }

  def remove(): Unit = sc.removeSparkListener(this)
}

/** JVM-wide GC time, JIT time and heap peak over an interval. */
final class JvmProbe {
  private val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala
  private val jit = ManagementFactory.getCompilationMXBean
  private val heap = ManagementFactory.getMemoryPoolMXBeans.asScala.filter(_.getType == MemoryType.HEAP)
  private var gc0 = 0L
  private var jit0 = 0L

  private def gcMs = gcs.map(g => math.max(0L, g.getCollectionTime)).sum

  def start(): Unit = {
    heap.foreach(_.resetPeakUsage())
    gc0 = gcMs
    jit0 = jit.getTotalCompilationTime
  }
  def gcSeconds: Double = (gcMs - gc0) / 1e3
  def jitMs: Double = (jit.getTotalCompilationTime - jit0).toDouble
  def heapPeakMb: Double = heap.map(_.getPeakUsage.getUsed).sum / (1024.0 * 1024.0)
}
