package repro.spark

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Path => JPath}

import scala.jdk.CollectionConverters._

import org.apache.hadoop.conf.Configuration
import org.apache.hadoop.fs.{FileAlreadyExistsException, FileSystem, Path, RawLocalFileSystem}
import org.apache.spark.sql.execution.streaming.checkpointing.{CheckpointFileManager, FileSystemBasedCheckpointFileManager}
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream

import repro.SparkSpec
import repro.events.Event
import repro.hamlet.Dynamic
import repro.query.{Pattern, QueryWindow, TrendQuery, Workload}

/** [[LocalCheckpointFileManager]] keeps the contract of Spark's checkpoint
  * file managers: atomic publish with Hadoop's checksum file and the local
  * file system's modes, no trace of a cancelled or refused write, and
  * Spark's own choice of manager on any other file system.
  */
class CheckpointFileManagerSpec extends SparkSpec {

  private val conf = new Configuration()

  private def names(dir: JPath): Set[String] = Files.list(dir).iterator.asScala.map(_.getFileName.toString).toSet
  private def mode(f: JPath) = Files.getPosixFilePermissions(f)
  private def write(fm: CheckpointFileManager, p: Path, text: String, overwrite: Boolean = false): Unit = {
    val out = fm.createAtomic(p, overwrite)
    out.write(text.getBytes(UTF_8))
    out.close()
  }
  private def read(fm: CheckpointFileManager, p: Path): String = {
    val in = fm.open(p)
    try new String(in.readAllBytes(), UTF_8) finally in.close()
  }

  test("createAtomic then close publishes the file and its checksum with the local file system's mode") {
    withTempDir { dir =>
      val base = new Path(dir.toUri)
      val fm = new LocalCheckpointFileManager(base, conf)
      write(fm, new Path(base, "a"), "offsets")
      FileSystem.getLocal(conf).create(new Path(base, "ref")).close()
      assert(names(dir) == Set("a", ".a.crc", "ref", ".ref.crc"))
      assert(mode(dir.resolve("a")) == mode(dir.resolve("ref")))
      assert(mode(dir.resolve(".a.crc")) == mode(dir.resolve(".ref.crc")))
      assert(read(fm, new Path(base, "a")) == "offsets")
    }
  }

  test("cancel leaves neither the file nor its temp file") {
    withTempDir { dir =>
      val base = new Path(dir.toUri)
      val fm = new LocalCheckpointFileManager(base, conf)
      val out = fm.createAtomic(new Path(base, "a"), overwriteIfPossible = false)
      out.write(Array[Byte](1, 2, 3))
      out.cancel()
      assert(names(dir).isEmpty)
    }
  }

  test("a write that may not overwrite an existing file fails and keeps the file") {
    withTempDir { dir =>
      val base = new Path(dir.toUri)
      val fm = new LocalCheckpointFileManager(base, conf)
      write(fm, new Path(base, "a"), "first")
      intercept[FileAlreadyExistsException](write(fm, new Path(base, "a"), "second"))
      assert(read(fm, new Path(base, "a")) == "first")
      write(fm, new Path(base, "a"), "third", overwrite = true)
      assert(read(fm, new Path(base, "a")) == "third")
    }
  }

  test("mkdirs, list, exists, delete and open round-trip") {
    withTempDir { dir =>
      val base = new Path(dir.toUri)
      val fm = new LocalCheckpointFileManager(base, conf)
      val sub = new Path(base, "state/0")
      fm.mkdirs(sub)
      FileSystem.getLocal(conf).mkdirs(new Path(base, "ref/0"))
      assert(fm.exists(sub) && Files.isDirectory(dir.resolve("state/0")))
      assert(mode(dir.resolve("state/0")) == mode(dir.resolve("ref/0")))
      write(fm, new Path(sub, "1.delta"), "one")
      write(fm, new Path(sub, "2.delta"), "two")
      assert(fm.list(sub).map(_.getPath.getName).toSet == Set("1.delta", "2.delta"))
      assert(read(fm, new Path(sub, "2.delta")) == "two")
      fm.delete(new Path(sub, "1.delta"))
      assert(!fm.exists(new Path(sub, "1.delta")))
      assert(names(dir.resolve("state/0")) == Set("2.delta", ".2.delta.crc"))
      fm.delete(new Path(sub, "1.delta")) // deleting what is gone is no error
      assert(fm.isLocal)
    }
  }

  test("a path on another file system gets the manager Spark picks itself") {
    val c = new Configuration(conf)
    c.set("fs.rawtest.impl", classOf[RawLocalFileSystem].getName)
    val fm = new LocalCheckpointFileManager(new Path("rawtest:///ckpt"), c)
    val picked = CheckpointFileManager.create(new Path("rawtest:///ckpt"), c)
    // No `FileContext` serves the scheme, so Spark falls back to its
    // `FileSystem`-based manager over the raw file system: no checksums.
    assert(fm.underlying.getClass == picked.getClass)
    assert(fm.underlying.getClass == classOf[FileSystemBasedCheckpointFileManager])
    withTempDir { dir =>
      write(fm, new Path(dir.toUri.toString, "a"), "raw")
      assert(names(dir) == Set("a"))
    }
  }

  test("run keeps a checkpoint file manager the session already sets") {
    val key = "spark.sql.streaming.checkpointFileManagerClass"
    val before = spark.conf.getOption(key)
    val theirs = classOf[FileSystemBasedCheckpointFileManager].getName
    spark.conf.set(key, theirs)
    try {
      val wl = Workload.compile(Seq(TrendQuery("q1", Pattern.seq("A", "B+"), window = QueryWindow(4, 2))))
      implicit val sqlCtx = spark.sqlContext
      import spark.implicits._
      StreamingRunner.run(spark, wl, Dynamic(), MemoryStream[Event].toDS())
      assert(spark.conf.get(key) == theirs)
    } finally before.fold(spark.conf.unset(key))(spark.conf.set(key, _))
  }
}
