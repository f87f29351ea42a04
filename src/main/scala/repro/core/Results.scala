package repro.core

/** Per-query aggregate channels accumulated over one pane.
  *
  * Every supported aggregate is derivable from these (window roll-up sums
  * c/n/s and min/max-combines mn/mx; see
  * [[repro.spark.BatchRunner.windowed]]):
  * COUNT(*) = c, COUNT(E) = n, SUM = s, AVG = s/n, MIN = mn, MAX = mx.
  *
  * For a MIN or a MAX query every engine fills both `mn` and `mx` over the
  * aggregated type's events that occur in some trend; for any other query
  * they stay +∞ and −∞ (no value).
  */
final case class PaneAgg(c: Double, n: Double, s: Double, mn: Double, mx: Double) {
  def +(o: PaneAgg): PaneAgg =
    PaneAgg(c + o.c, n + o.n, s + o.s, math.min(mn, o.mn), math.max(mx, o.mx))

  /** Every channel equals `o`'s up to a relative 1e-6, and an infinite
    * channel only the same infinity: engines that sum in a different order
    * agree in this sense.
    */
  def agrees(o: PaneAgg): Boolean = {
    def close(u: Double, v: Double) =
      if (u.isInfinite || v.isInfinite) u == v
      else math.abs(u - v) <= 1e-6 * math.max(1.0, math.max(math.abs(u), math.abs(v)))
    close(c, o.c) && close(n, o.n) && close(s, o.s) && close(mn, o.mn) && close(mx, o.mx)
  }
}

object PaneAgg {
  val empty: PaneAgg =
    PaneAgg(0.0, 0.0, 0.0, Double.PositiveInfinity, Double.NegativeInfinity)
}

/** Flat result row emitted by the Spark runners: aggregate channels of one
  * query over one (group, pane).
  */
final case class PaneResult(
    queryId: String,
    grp: String,
    pane: Long,
    c: Double,
    n: Double,
    s: Double,
    mn: Double,
    mx: Double,
)

object PaneResult {
  def of(queryId: String, grp: String, pane: Long, a: PaneAgg): PaneResult =
    PaneResult(queryId, grp, pane, a.c, a.n, a.s, a.mn, a.mx)
}
