package repro.hamlet

import org.scalatest.funsuite.AnyFunSuite

import repro.events.Event
import repro.query._
import repro.testkit.Engines

/** Per-burst decisions and the §4.3 query-set choice with its two pruning
  * principles.
  */
class SharingOptimizerSpec extends AnyFunSuite {

  private def ev(id: Long, v: Double): Event = Event(id, id * 10, "B", "g", Map("v" -> v))

  private def queries(preds: Seq[Seq[Pred]]): Vector[CompiledQuery] =
    Engines.compile(preds.zipWithIndex.map { case (p, i) =>
      TrendQuery(s"q$i", Pattern.seq("A", "B+"), preds = p, window = QueryWindow(4, 2))
    }).queries

  private val noPreds = Seq(Nil, Nil, Nil, Nil)

  /** Evaluate the burst's predicates once, then decide. */
  private def decide(policy: SharingPolicy, burst: IndexedSeq[Event], qs: Vector[CompiledQuery],
                     typ: String, eventsSoFar: Long): Decision = {
    val plan = new EnginePlan(qs, Some(typ))
    val matches = new MatchVector(qs.size)
    matches.fill(plan, burst.size)(_ => plan.sharedTid, burst)
    SharingOptimizer.decide(policy, plan, matches, eventsSoFar)
  }

  test("NeverShare never shares") {
    val d = decide(NeverShare, (0 until 10).map(i => ev(i.toLong, 50)),
      queries(noPreds), "B", eventsSoFar = 5)
    assert(!d.share && d.sharedIdx.isEmpty)
  }

  test("AlwaysShare shares the full set unconditionally") {
    val d = decide(AlwaysShare, (0 until 10).map(i => ev(i.toLong, 50)),
      queries(noPreds), "B", eventsSoFar = 5)
    assert(d.share && d.sharedIdx == Vector(0, 1, 2, 3))
  }

  test("Dynamic shares a clean burst (no divergence, k=4)") {
    val d = decide(Dynamic(Eq8Model), (0 until 10).map(i => ev(i.toLong, 50)),
      queries(noPreds), "B", eventsSoFar = 20)
    assert(d.share)
    assert(d.sharedIdx.size == 4)
    assert(d.stats.sC == 1 && d.stats.k == 4)
    assert(d.plansExamined == 1) // m = 0 snapshot-introducing queries
  }

  test("Theorem 4.1 pruning: queries without snapshots are always kept") {
    // q3 diverges (threshold splits the burst), q0-q2 do not.
    val qs = queries(Seq(Nil, Nil, Nil, Seq(NumPred("B", "v", ">", 50))))
    val burst = (0 until 20).map(i => ev(i.toLong, if (i % 2 == 0) 80 else 20))
    val d = decide(Dynamic(Eq8Model), burst, qs, "B", eventsSoFar = 20)
    assert(Set(0, 1, 2).subsetOf(d.sharedIdx.toSet))
    assert(d.plansExamined == 2) // m = 1
  }

  test("burst statistics feed the model (b, n, g)") {
    val burst = (0 until 16).map(i => ev(i.toLong, 50))
    val d = decide(Dynamic(Eq8Model), burst, queries(noPreds), "B", eventsSoFar = 100)
    assert(d.stats.b == 16 && d.stats.g == 16 && d.stats.n == 116)
  }

  test("predecessor-type and type counts come from the templates") {
    val d = decide(Dynamic(Eq8Model), (0 until 4).map(i => ev(i.toLong, 50)),
      queries(noPreds), "B", eventsSoFar = 0)
    assert(d.stats.p == 2.0) // pt(B) = {A, B}
    assert(d.stats.t == 2.0) // types {A, B}
  }

  test("a two-query set with total divergence is not shared under Eq 7") {
    // Every event matched by exactly one of the two queries: s_c ≈ b makes
    // Shared ≫ NonShared for the Eq7 model with small n.
    val qs = queries(Seq(Seq(NumPred("B", "v", ">", 50)), Seq(NumPred("B", "v", "<=", 50))))
    val burst = (0 until 30).map(i => ev(i.toLong, if (i % 2 == 0) 80 else 20))
    val d = decide(Dynamic(Eq7Model), burst, qs, "B", eventsSoFar = 0)
    assert(!d.share || d.benefit <= 0 || d.sharedIdx.size < 2)
  }

  test("a single query never shares") {
    val qs = queries(Seq(Nil)).take(1)
    val d = decide(Dynamic(Eq8Model), (0 until 8).map(i => ev(i.toLong, 50)),
      qs, "B", eventsSoFar = 0)
    assert(!d.share)
  }

  test("sampling caps the divergence scan on long bursts") {
    val burst = (0 until 10_000).map(i => ev(i.toLong, 50))
    val t0 = System.nanoTime()
    val d = decide(Dynamic(Eq8Model), burst, queries(noPreds), "B", 0)
    val ms = (System.nanoTime() - t0) / 1e6
    assert(d.share)
    assert(ms < 200.0, s"decision took $ms ms") // light-weight (§4.2)
  }

  test("decision outcome is reflected in executor metrics (share ratio)") {
    val qs = Seq(
      TrendQuery("q1", Pattern.seq("A", "B+"), window = QueryWindow(4, 2)),
      TrendQuery("q2", Pattern.seq("C", "B+"), window = QueryWindow(4, 2)))
    val events = Seq(Event(0, 0, "A", "g"), Event(1, 10, "C", "g")) ++
      (2 until 30).map(i => Event(i.toLong, i * 10L, "B", "g", Map("v" -> 50.0)))
    val m = new repro.metrics.Metrics
    Engines.hamlet(qs, events, Dynamic(Eq8Model), m)
    assert(m.totalBursts == 1 && m.sharedBursts == 1)
  }
}
