package repro.baselines

import org.scalatest.funsuite.AnyFunSuite

import scala.util.Random

import repro.events.Event
import repro.metrics.Metrics
import repro.query._
import repro.testkit.{Engines, TestGen}

/** The two-step (MCEP-style) and flattened (Sharon-style) baselines must
  * produce the same results as the online engines — the paper's comparison
  * is about cost, not semantics.
  */
class BaselinesSpec extends AnyFunSuite {

  private def ev(id: Long, typ: String, v: Double = 0.0): Event =
    Event(id, id * 10, typ, "g", Map("v" -> v))

  test("MCEP: hand case A B B has three trends") {
    val q = TrendQuery("q", Pattern.seq("A", "B+"), window = QueryWindow(4, 2))
    assert(Engines.mcep(Seq(q), Seq(ev(0, "A"), ev(1, "B"), ev(2, "B")))(q.id).c == 3.0)
  }

  test("MCEP: shared construction serves multiple queries in one pass") {
    val qs = Seq(
      TrendQuery("q1", Pattern.seq("A", "B+"), window = QueryWindow(4, 2)),
      TrendQuery("q2", Pattern.seq("C", "B+"), window = QueryWindow(4, 2)))
    val events = Seq(ev(0, "A"), ev(1, "A"), ev(2, "C"), ev(3, "B"))
    val out = Engines.mcep(qs, events)
    assert(out("q1").c == 2.0 && out("q2").c == 1.0) // Example 4
  }

  test("MCEP: visit cap reports truncation") {
    val q = TrendQuery("q", Pattern.seq("B+"), window = QueryWindow(4, 2))
    val events = (0 until 30).map(i => ev(i.toLong, "B"))
    val m = new Metrics
    new McepEngine(Engines.plan(Seq(q)), maxVisits = 100).processPane(events, m)
    assert(m.truncations == 1)
  }

  test("MCEP: two-step aggregates from materialized trends (SUM)") {
    val q = TrendQuery("q", Pattern.seq("A", "B+"), Agg.Sum("B", "v"), window = QueryWindow(4, 2))
    val events = Seq(ev(0, "A"), ev(1, "B", 3), ev(2, "B", 10))
    assert(Engines.mcep(Seq(q), events)(q.id).s == 26.0)
  }

  test("Sharon: flattening covers every length (A B B B = 7 trends)") {
    val q = TrendQuery("q", Pattern.seq("A", "B+"), window = QueryWindow(4, 2))
    val events = Seq(ev(0, "A"), ev(1, "B"), ev(2, "B"), ev(3, "B"))
    assert(Engines.sharon(Seq(q), events)(q.id).c == 7.0)
  }

  test("Sharon: flatten-length cap reports truncation") {
    val q = TrendQuery("q", Pattern.seq("A", "B+"), window = QueryWindow(4, 2))
    val events = ev(0, "A") +: (1 to 10).map(i => ev(i.toLong, "B"))
    val m = new Metrics
    new SharonEngine(Engines.plan(Seq(q)), fixedLen = 0, maxLen = 3).processPane(events, m)
    assert(m.truncations == 1)
  }

  test("Sharon rejects patterns it cannot flatten (nested Kleene)") {
    val q = TrendQuery("q", PKleene(PSeq(List(PEvent("A"), PKleene(PEvent("B"))))),
      window = QueryWindow(4, 2))
    intercept[IllegalArgumentException](new SharonEngine(Engines.plan(Seq(q)), fixedLen = 0))
  }

  // Prefix counts hold no per-event values: brute force gives 5 trends for
  // a rising B and a MIN of 3 on this stream; Sharon must refuse both.
  private val abbb = Seq(ev(0, "A"), ev(1, "B", 5), ev(2, "B", 3), ev(3, "B", 8))

  test("Sharon rejects edge predicates") {
    val q = TrendQuery("q", Pattern.seq("A", "B+"), window = QueryWindow(4, 2),
      edgePred = Some(EdgePred("v", "<")))
    assert(Engines.brute(Seq(q), abbb)(q.id).c == 5.0)
    val e = intercept[IllegalArgumentException](Engines.sharon(Seq(q), abbb))
    assert(e.getMessage.contains("edge predicate"))
  }

  test("Sharon rejects MIN and MAX") {
    for (agg <- Seq(Agg.Min("B", "v"), Agg.Max("B", "v"))) {
      val q = TrendQuery("q", Pattern.seq("A", "B+"), agg, window = QueryWindow(4, 2))
      assert(Engines.brute(Seq(q), abbb)(q.id).mn == 3.0)
      val e = intercept[IllegalArgumentException](Engines.sharon(Seq(q), abbb))
      assert(e.getMessage.contains("MIN/MAX"))
    }
  }

  for (seed <- 0 until 20) {
    test(s"MCEP equals brute force on random workloads (seed $seed)") {
      val rnd = new Random(1000 + seed)
      val events = TestGen.stream(rnd, 12 + rnd.nextInt(6))
      val qs = TestGen.randomWorkload(rnd, 1 + rnd.nextInt(3))
      Engines.assertSame(Engines.mcep(qs, events), Engines.brute(qs, events), s"seed=$seed")
    }
  }

  for (seed <- 0 until 20) {
    test(s"Sharon equals brute force on flattenable workloads (seed $seed)") {
      val rnd = new Random(2000 + seed)
      val events = TestGen.stream(rnd, 12 + rnd.nextInt(6))
      // Sharon supports neither edge predicates nor nested Kleene; draw
      // from the flattenable pool.
      val qs = (0 until 1 + rnd.nextInt(3)).map { i =>
        val q = Iterator.continually(TestGen.randomQuery(rnd, s"q$i"))
          .dropWhile(_.edgePred.isDefined).next()
        q
      }
      Engines.assertSame(Engines.sharon(qs, events), Engines.brute(qs, events), s"seed=$seed")
    }
  }

  test("Sharon equals brute force when a trailing NOT negates the Kleene type") {
    // SEQ(A, B+, !B): each B first invalidates the trends ended so far,
    // then ends new ones, so only trends ending at the last B remain.
    val q = TrendQuery("q", Pattern.seq("A", "B+", "!B"), window = QueryWindow(4, 2))
    for (seed <- 0 until 20) {
      val events = TestGen.stream(new Random(3000 + seed), 10, types = Vector("A", "B", "C"))
      Engines.assertSame(Engines.sharon(Seq(q), events), Engines.brute(Seq(q), events), s"seed=$seed")
    }
  }

  // A mid-pattern NOT whose type is also a positive type of the pattern:
  // the negating event blocks every prefix that ended before it and still
  // extends or starts its own (brute force excludes both endpoints).
  for (shape <- Seq(Seq("A", "B+", "!B", "C"), Seq("A", "!A", "B+"))) {
    test(s"Sharon equals brute force when a mid-pattern NOT negates a positive type: SEQ(${shape.mkString(", ")})") {
      val q = TrendQuery("q", Pattern.seq(shape: _*), window = QueryWindow(4, 2))
      for (seed <- 0 until 200) {
        val events = TestGen.stream(new Random(seed), 10, types = Vector("A", "B", "C"))
        Engines.assertSame(Engines.sharon(Seq(q), events), Engines.brute(Seq(q), events), s"seed=$seed")
      }
    }
  }

  test("Sharon cost grows with flatten length (the paper's Sharon bottleneck)") {
    val q = TrendQuery("q", Pattern.seq("A", "B+"), window = QueryWindow(4, 2))
    val sharon = new SharonEngine(Engines.plan(Seq(q)), fixedLen = 0, maxLen = 512)
    def ops(n: Int): Long = {
      val m = new Metrics
      sharon.processPane(ev(0, "A") +: (1 to n).map(i => ev(i.toLong, "B")), m)
      m.evalOps
    }
    val (small, large) = (ops(10), ops(40))
    assert(large > 8 * small) // superlinear (≈ quadratic in burst length)
  }
}
