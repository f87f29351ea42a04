package repro.harness

import repro.query._

/** Query-workload builders mirroring §6.1 "Event Trend Aggregation
  * Queries": workload 1 shares one Kleene sub-pattern with identical
  * windows/aggregates/predicates (Figures 9–11); workload 2 is diverse —
  * Kleene patterns of length 1–3, windows 5–20 min, mixed aggregates and
  * per-query predicates (Figures 12–13).
  */
object Workloads {

  /** `k` COUNT(*) queries cycling through `patterns`, named q0, q1, …. */
  private def countStar(k: Int, patterns: Vector[Pattern], windowMin: Int, slideMin: Int): Vector[TrendQuery] =
    (0 until k).toVector.map { i =>
      TrendQuery(s"q$i", patterns(i % patterns.size), Agg.CountStar, Nil, QueryWindow(windowMin, slideMin))
    }

  /** Ridesharing workload 1: k queries like q1–q3 of Figure 1 sharing T+. */
  def ridesharingW1(k: Int, windowMin: Int = 4, slideMin: Int = 1): Vector[TrendQuery] =
    countStar(k, Vector(Pattern.seq("R", "T+", "D"), Pattern.seq("R", "T+", "C"),
      Pattern.seq("R", "T+", "P"), Pattern.seq("R", "T+")), windowMin, slideMin)

  /** Taxi workload for Figure 11 (overlapping windows stress Greta). */
  def taxiW1(k: Int): Vector[TrendQuery] =
    countStar(k, Vector(Pattern.seq("R", "T+", "D"), Pattern.seq("R", "T+")), windowMin = 10, slideMin = 1)

  /** Smart-home workload for Figure 11. */
  def smartHomeW1(k: Int): Vector[TrendQuery] =
    countStar(k, Vector(Pattern.seq("L", "M+", "H"), Pattern.seq("L", "M+")), windowMin = 10, slideMin = 1)

  /** Stock workload 2: sharable `P+` with per-query volume thresholds
    * (the divergence source), windows 4–20 min over a 2-min pane, and a
    * mix of COUNT(*) / SUM(P.price) / AVG(P.price) aggregates.
    */
  def stockW2(k: Int): Vector[TrendQuery] =
    (0 until k).toVector.map { i =>
      val pat = i % 3 match {
        case 0 => Pattern.seq("O", "P+", "S")
        case 1 => Pattern.seq("O", "P+")
        case _ => Pattern.seq("P+")
      }
      val window = Vector(QueryWindow(4, 2), QueryWindow(8, 2), QueryWindow(12, 4), QueryWindow(20, 4))(i % 4)
      // Thresholds spread across the volume range: the calm regime
      // (volume 60–70) matches a fixed query subset (uniform, sharing
      // wins); the scattered regime (volume 0–100) gives every tick a
      // different matching subset (heavy event-level snapshots, sharing
      // loses) — the paper's burstiness axis for Figures 12/13.
      val theta = 10.0 + (i % 6) * 10.0
      val preds = Seq(NumPred("P", "volume", ">", theta))
      val agg: Agg = i % 7 match {
        case 5 => Agg.Sum("P", "price")
        case 6 => Agg.Avg("P", "price")
        case _ => Agg.CountStar
      }
      TrendQuery(s"s$i", pat, agg, preds, window)
    }
}
