package repro

import java.nio.file.{Files, Path}

import org.apache.commons.io.FileUtils
import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

import repro.core.{PaneAgg, PaneResult}

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM (the image exports it, or derives ~75% of the cgroup
  * limit). Broadcast joins are disabled so shuffle/join papers actually
  * exercise the shuffle path at SF~=0.1; re-enable per-query if the
  * paper's contribution is the broadcast side. Shuffle partitions default
  * to twice the session's parallelism (the test inputs are tiny, so more
  * partitions only add task overhead); SPARK_SHUFFLE_PARTITIONS overrides.
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  override def afterAll(): Unit = { super.afterAll() }

  /** `f` on a new temporary directory, deleted afterwards with its contents. */
  def withTempDir[A](f: Path => A): A = {
    val dir = Files.createTempDirectory("repro")
    try f(dir) finally FileUtils.deleteDirectory(dir.toFile)
  }

  /** `got` and `want` hold the same (query, group, pane) rows, each once,
    * and every channel of a row agrees ([[PaneAgg.agrees]]).
    */
  def assertSameRows(got: Seq[PaneResult], want: Seq[PaneResult]): Unit = {
    def byKey(rs: Seq[PaneResult]) = {
      val m = rs.map(r => (r.queryId, r.grp, r.pane) -> PaneAgg(r.c, r.n, r.s, r.mn, r.mx)).toMap
      assert(m.size == rs.size, "a (query, group, pane) row is emitted twice")
      m
    }
    val (g, w) = (byKey(got), byKey(want))
    assert(g.keySet == w.keySet)
    g.foreach { case (k, a) => assert(a.agrees(w(k)), s"$k: $a vs ${w(k)}") }
  }
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    s.conf.set("spark.sql.shuffle.partitions",
      sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", (2 * s.sparkContext.defaultParallelism).toString))
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism} " +
      s"shufflePartitions=${s.conf.get("spark.sql.shuffle.partitions")}"
    )
    s
  }
}
