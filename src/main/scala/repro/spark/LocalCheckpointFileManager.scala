package repro.spark

import java.nio.file.Files
import java.nio.file.attribute.PosixFilePermissions

import org.apache.hadoop.conf.Configuration
import org.apache.hadoop.fs.{FSDataInputStream, FileStatus, FileSystem, LocalFileSystem, Path, PathFilter,
  RawLocalFileSystem, UnsupportedFileSystemException}
import org.apache.hadoop.fs.permission.FsPermission
import org.apache.spark.sql.execution.streaming.checkpointing.{CheckpointFileManager,
  FileContextBasedCheckpointFileManager, FileSystemBasedCheckpointFileManager}
import org.apache.spark.sql.execution.streaming.checkpointing.CheckpointFileManager.CancellableFSDataOutputStream

/** A Structured Streaming checkpoint file manager that starts no process
  * on a local checkpoint.
  *
  * Without Hadoop's native library, the local file system starts a
  * `readlink` process for every `FileContext.rename` and a `chmod` process
  * for every file and directory it creates (it sets a mode on each, even
  * when the caller passes none). Spark's default manager renames through
  * `FileContext`, so each checkpoint file cost several process starts.
  *
  * On a `LocalFileSystem` path this manager writes like Spark's
  * `FileSystemBasedCheckpointFileManager` (a temp file, then a rename,
  * with Hadoop's `.crc` files), through a `LocalFileSystem` whose raw layer
  * sets the same mode bits with `java.nio`. On any other file system it
  * delegates to what Spark picks itself: the `FileContext`-based manager,
  * or the `FileSystem`-based one where the scheme has no `FileContext`.
  */
class LocalCheckpointFileManager(path: Path, conf: Configuration) extends CheckpointFileManager {

  private[spark] val underlying: CheckpointFileManager = path.getFileSystem(conf) match {
    case local: LocalFileSystem =>
      val nioFs = new LocalFileSystem(new LocalCheckpointFileManager.NioRawLocalFileSystem)
      nioFs.initialize(local.getUri, conf)
      new FileSystemBasedCheckpointFileManager(path, conf) { override protected val fs: FileSystem = nioFs }
    case _ =>
      try new FileContextBasedCheckpointFileManager(path, conf)
      catch { case _: UnsupportedFileSystemException => new FileSystemBasedCheckpointFileManager(path, conf) }
  }

  override def createAtomic(p: Path, overwriteIfPossible: Boolean): CancellableFSDataOutputStream =
    underlying.createAtomic(p, overwriteIfPossible)
  override def open(p: Path): FSDataInputStream = underlying.open(p)
  override def list(p: Path, filter: PathFilter): Array[FileStatus] = underlying.list(p, filter)
  override def mkdirs(p: Path): Unit = underlying.mkdirs(p)
  override def exists(p: Path): Boolean = underlying.exists(p)
  override def delete(p: Path): Unit = underlying.delete(p)
  override def isLocal: Boolean = underlying.isLocal
  override def createCheckpointDirectory(): Path = underlying.createCheckpointDirectory()
  override def close(): Unit = underlying.close()
}

object LocalCheckpointFileManager {

  /** Hadoop's raw local file system, but a mode is set through `java.nio`
    * rather than by starting `chmod` (a sticky bit, which `java.nio`
    * cannot set, still goes to Hadoop).
    */
  private final class NioRawLocalFileSystem extends RawLocalFileSystem {
    override def setPermission(p: Path, permission: FsPermission): Unit =
      if (permission.getStickyBit) super.setPermission(p, permission)
      else Files.setPosixFilePermissions(pathToFile(p).toPath, PosixFilePermissions.fromString(permission.toString))
  }
}
