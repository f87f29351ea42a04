package repro.spark

import org.apache.spark.sql.{Dataset, SparkSession}
import org.apache.spark.sql.streaming.{GroupState, GroupStateTimeout, OutputMode}

import repro.core.PaneResult
import repro.events.Event
import repro.hamlet.{HamletExecutor, RunningSums, SharingPolicy}
import repro.metrics.Metrics
import repro.query.CompiledWorkload

/** Structured Streaming execution: the Hamlet executor as a *stateful
  * operator* (`flatMapGroupsWithState`), with the dynamic sharing plan
  * (re)selected per burst inside every micro-batch — the mapping called
  * for by the reproduction brief.
  *
  * State per group: the events of the newest, still-open pane, as one
  * [[EventBlocks]] block. Each micro-batch is merged with them in stream
  * order; every event before the group's newest pane then runs through the
  * [[HamletExecutor]] at the [[RunningSums]] cost (graphlets, snapshots,
  * per-burst decisions) and the completed panes' results are appended
  * downstream. A sentinel event (type [[StreamingRunner.FlushType]], one
  * per group, with a timestamp past the last pane) flushes the final pane
  * at end of input.
  */
object StreamingRunner {

  private val CheckpointManagerConf = "spark.sql.streaming.checkpointFileManagerClass"

  /** Sentinel type that closes all open panes of its group. */
  val FlushType = "__flush__"

  def flushEvents(groups: Seq[String], afterTs: Long): Seq[Event] =
    groups.zipWithIndex.map { case (g, i) =>
      Event(Long.MaxValue - i, afterTs, FlushType, g)
    }

  /** Per-group state: the events buffered for the newest open pane, as one
    * [[EventBlocks]] block, so the state store keeps one binary column per
    * group instead of a row per event and its maps.
    */
  final case class GroupBuf(events: Array[Byte])

  /** The streaming query over `events`.
    *
    * If the session does not set `spark.sql.streaming.checkpointFileManagerClass`,
    * this sets it to [[LocalCheckpointFileManager]], which writes local
    * checkpoint files without starting a process per file; the query takes
    * the session's settings when it starts. A value the session already
    * has is kept.
    */
  def run(
      spark: SparkSession,
      wl: CompiledWorkload,
      policy: SharingPolicy,
      events: Dataset[Event],
  ): Dataset[PaneResult] = {
    import spark.implicits._
    if (spark.conf.getOption(CheckpointManagerConf).isEmpty)
      spark.conf.set(CheckpointManagerConf, classOf[LocalCheckpointFileManager].getName)
    val exec = new HamletExecutor(wl, policy, RunningSums)
    val paneMs = wl.paneMs

    def process(
        grp: String,
        it: Iterator[Event],
        state: GroupState[GroupBuf],
    ): Iterator[PaneResult] = {
      val (flushes, incoming) = it.toArray.partition(_.typ == FlushType)
      val buffered = state.getOption.fold(Iterator.empty[Event])(b => EventBlocks.decode(b.events))
      val evs = (buffered ++ incoming).toArray.sorted(Event.streamOrder)
      // Spark calls this only for a group with input, so without a flush
      // `evs` is not empty; every event before its newest pane is complete.
      val cut = if (flushes.nonEmpty) evs.length else evs.indexWhere(_.pane(paneMs) == evs.last.pane(paneMs))
      if (flushes.nonEmpty) state.remove() else state.update(GroupBuf(EventBlocks.encode(evs.drop(cut))))
      exec.groupResults(grp, evs.take(cut), new Metrics).iterator
    }

    events
      .groupByKey(_.grp)
      .flatMapGroupsWithState[GroupBuf, PaneResult](
        OutputMode.Append, GroupStateTimeout.NoTimeout)(process)
  }
}
