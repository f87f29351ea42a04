package repro.general

/** §5: trend-count composition for disjunctive and conjunctive patterns.
  *
  * With C12 = COUNT(P_{1,2}) (trends matched by both sub-patterns),
  * C1 = COUNT(P1) − C12 and C2 = COUNT(P2) − C12:
  *
  *  - COUNT(P1 ∨ P2) = C1 + C2 + C12
  *  - COUNT(P1 ∧ P2) = C1·C2 + C1·C12 + C2·C12 + (C12 choose 2)
  *
  * No `Pattern` expresses OR or AND (DESIGN.md, Known deviations), so only
  * the specs compose counts.
  */
object Composition {

  /** COUNT(P1 ∨ P2) from COUNT(P1), COUNT(P2), COUNT(P_{1,2}). */
  def disjunctionCount(count1: Double, count2: Double, count12: Double): Double = {
    val c1 = count1 - count12
    val c2 = count2 - count12
    c1 + c2 + count12
  }

  /** COUNT(P1 ∧ P2) from COUNT(P1), COUNT(P2), COUNT(P_{1,2}). */
  def conjunctionCount(count1: Double, count2: Double, count12: Double): Double = {
    val c1 = count1 - count12
    val c2 = count2 - count12
    c1 * c2 + c1 * count12 + c2 * count12 + count12 * (count12 - 1) / 2.0
  }
}
