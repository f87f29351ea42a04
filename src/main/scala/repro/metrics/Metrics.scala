package repro.metrics

/** Execution counters collected by every engine; the bench harness turns
  * them into the paper's metrics (latency, throughput, peak memory,
  * snapshot counts, sharing ratios — §6.1 "Metrics").
  *
  * `peakBytes` follows the paper's definition of peak memory: bytes to
  * store snapshot expressions and values, matched-event state, per-query
  * aggregates (and, for the two-step baseline, the current trend).
  */
final class Metrics extends Serializable {
  var events: Long            = 0 // events processed (after per-engine filtering)
  var snapshotsCreated: Long  = 0 // s_c accumulated
  var peakLiveTerms: Long     = 0 // max s_p observed in one expression
  var totalBursts: Long       = 0 // bursts of the shared Kleene type
  var sharedBursts: Long      = 0 // ... of which executed shared
  var graphlets: Long         = 0 // graphlets created (shared + non-shared)
  var sharedGraphlets: Long   = 0
  var decisions: Long         = 0 // optimizer invocations
  var decisionNanos: Long     = 0 // time spent deciding
  var plansExamined: Long     = 0 // m+1 per decision (§4.3)
  var evalOps: Long           = 0 // expression-evaluation multiply-adds
  /** Modeled peak memory: the largest state `observeBytes` saw while this
    * object collected. `+=` adds the other object's peak, as if both
    * states were live at once, so a `Metrics` folded from per-unit ones
    * holds the sum of their peaks (sparkbench reports it as
    * `peak_bytes_sum`), not the peak of any one moment.
    */
  var peakBytes: Long         = 0
  var wallNanos: Long         = 0 // engine wall-clock
  var truncations: Long       = 0 // safety caps hit (the results are then lower bounds)

  def observeBytes(b: Long): Unit = if (b > peakBytes) peakBytes = b
  def observeTerms(t: Long): Unit = if (t > peakLiveTerms) peakLiveTerms = t

  def +=(o: Metrics): Unit = {
    events += o.events; snapshotsCreated += o.snapshotsCreated
    peakLiveTerms = math.max(peakLiveTerms, o.peakLiveTerms)
    totalBursts += o.totalBursts; sharedBursts += o.sharedBursts
    graphlets += o.graphlets; sharedGraphlets += o.sharedGraphlets
    decisions += o.decisions; decisionNanos += o.decisionNanos
    plansExamined += o.plansExamined; evalOps += o.evalOps
    peakBytes += o.peakBytes // state is per (group, pane): peaks add across concurrent state
    wallNanos += o.wallNanos; truncations += o.truncations
  }

  override def toString: String =
    f"events=$events snapsCreated=$snapshotsCreated peakTerms=$peakLiveTerms " +
    f"bursts=$sharedBursts/$totalBursts graphlets=$sharedGraphlets/$graphlets " +
    f"decisions=$decisions plans=$plansExamined evalOps=$evalOps peakBytes=$peakBytes"
}
