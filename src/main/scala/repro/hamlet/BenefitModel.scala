package repro.hamlet

/** Statistics of one burst of events of the sharable Kleene type E,
  * feeding the sharing benefit model (Table 2 notation).
  *
  * @param b   events in the burst
  * @param n   events per window seen so far (this group/pane)
  * @param g   events per graphlet the burst would join/form
  * @param k   queries that would share
  * @param p   predecessor types per type per query (avg)
  * @param t   event types per query (avg)
  * @param sC  snapshots created by this burst (estimated)
  * @param sP  snapshots propagated per expression (estimated)
  */
final case class BurstStats(b: Long, n: Long, g: Long, k: Int,
                            p: Double, t: Double, sC: Long, sP: Long)

/** The paper publishes two variants of the dynamic sharing benefit model;
  * both are implemented (DESIGN.md "Benefit model").
  */
sealed trait CostModel extends Serializable {
  /** Cost of shared execution of the burst (Shared(G_E, Q_E)). */
  def shared(s: BurstStats): Double
  /** Cost of non-shared execution (NonShared(G_E^i, Q_E)). */
  def nonShared(s: BurstStats): Double
  /** Benefit(G_E, Q_E) = NonShared − Shared; share iff > 0. */
  final def benefit(s: BurstStats): Double = nonShared(s) - shared(s)
}

/** Definition 11 / Equation 7 — the variant used by the worked examples
  * (Equations 9–11): Shared = b·n·s_p + s_c·k·g·t, NonShared = k·b·n.
  */
case object Eq7Model extends CostModel {
  def shared(s: BurstStats): Double    = s.b.toDouble * s.n * s.sP + s.sC.toDouble * s.k * s.g * s.t
  def nonShared(s: BurstStats): Double = s.k.toDouble * s.b * s.n
}

/** Definition 12 / Equation 8 — the variant the optimizer sections (§4.2,
  * §4.3, Theorems 4.1/4.2) are proven against:
  * Shared = s_c·k·g·p + b·(log2 g + n·s_p), NonShared = k·b·(log2 g + n).
  */
case object Eq8Model extends CostModel {
  private def log2(g: Long): Double = math.log(math.max(g, 1).toDouble) / math.log(2.0)
  def shared(s: BurstStats): Double =
    s.sC.toDouble * s.k * s.g * s.p + s.b * (log2(s.g) + s.n.toDouble * s.sP)
  def nonShared(s: BurstStats): Double =
    s.k.toDouble * s.b * (log2(s.g) + s.n.toDouble)
}
