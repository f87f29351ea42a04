package repro.greta

import org.scalatest.funsuite.AnyFunSuite

import scala.util.Random

import repro.events.Event
import repro.query._
import repro.testkit.{Engines, TestGen}

/** The non-shared online strategy (§3.2, Equations 1–3) against the
  * brute-force trend enumerator, on hand-built and random streams.
  */
class GretaEngineSpec extends AnyFunSuite {

  private def ev(id: Long, typ: String, v: Double = 0.0): Event =
    Event(id, id * 10, typ, "g", Map("v" -> v))

  private def count(q: TrendQuery, events: Seq[Event]): Double =
    Engines.greta(Seq(q), events)(q.id).c

  private val seqAB = TrendQuery("q", Pattern.seq("A", "B+"), window = QueryWindow(4, 2))

  test("single A then B: one trend") {
    assert(count(seqAB, Seq(ev(0, "A"), ev(1, "B"))) == 1.0)
  }

  test("A B B: three trends (a,b1), (a,b2), (a,b1,b2) — skip-till-any-match") {
    assert(count(seqAB, Seq(ev(0, "A"), ev(1, "B"), ev(2, "B"))) == 3.0)
  }

  test("A B B B: 2^3 - 1 trends") {
    assert(count(seqAB, Seq(ev(0, "A"), ev(1, "B"), ev(2, "B"), ev(3, "B"))) == 7.0)
  }

  test("two As double every trend") {
    assert(count(seqAB, Seq(ev(0, "A"), ev(1, "A"), ev(2, "B"), ev(3, "B"))) == 6.0)
  }

  test("B before any A contributes no trend but Bs after do") {
    assert(count(seqAB, Seq(ev(0, "B"), ev(1, "A"), ev(2, "B"))) == 1.0)
  }

  test("bare Kleene B+ counts all non-empty subsequences") {
    val q = TrendQuery("q", Pattern.seq("B+"), window = QueryWindow(4, 2))
    assert(count(q, (0 until 5).map(i => ev(i.toLong, "B"))) == 31.0)
  }

  test("three-stage SEQ(A, B+, C)") {
    // a b b c: trends (a,b1,c), (a,b2,c), (a,b1,b2,c)
    val q = TrendQuery("q", Pattern.seq("A", "B+", "C"), window = QueryWindow(4, 2))
    assert(count(q, Seq(ev(0, "A"), ev(1, "B"), ev(2, "B"), ev(3, "C"))) == 3.0)
  }

  test("single-event predicate filters B events") {
    val q = seqAB.copy(preds = Seq(NumPred("B", "v", ">", 10.0)))
    val events = Seq(ev(0, "A"), ev(1, "B", 5), ev(2, "B", 20), ev(3, "B", 15))
    // only b2, b3 match: trends (a,b2), (a,b3), (a,b2,b3)
    assert(count(q, events) == 3.0)
  }

  test("interleaved types: graphlet closure does not change counts") {
    val events = Seq(ev(0, "A"), ev(1, "B"), ev(2, "A"), ev(3, "B"), ev(4, "B"))
    // trends: a0 with non-empty subsets of {b1,b3,b4} ordered: 7; a2 with {b3,b4}: 3
    assert(count(seqAB, events) == 10.0)
  }

  test("COUNT(E) counts events across all trends") {
    val q = seqAB.copy(agg = Agg.CountE("B"))
    val events = Seq(ev(0, "A"), ev(1, "B"), ev(2, "B"))
    // trends: (a,b1): 1 B; (a,b2): 1; (a,b1,b2): 2 -> 4
    assert(Engines.greta(Seq(q), events)(q.id).n == 4.0)
  }

  test("SUM over trend members") {
    val q = seqAB.copy(agg = Agg.Sum("B", "v"))
    val events = Seq(ev(0, "A"), ev(1, "B", 3), ev(2, "B", 10))
    // 3 + 10 + 13
    assert(Engines.greta(Seq(q), events)(q.id).s == 26.0)
  }

  test("AVG = SUM / COUNT(E)") {
    val q = seqAB.copy(agg = Agg.Avg("B", "v"))
    val out = Engines.greta(Seq(q), Seq(ev(0, "A"), ev(1, "B", 3), ev(2, "B", 10)))(q.id)
    assert(out.s / out.n == 26.0 / 4.0)
  }

  test("MIN/MAX over events that occur in some trend") {
    val mn = seqAB.copy(agg = Agg.Min("B", "v"))
    val mx = seqAB.copy(agg = Agg.Max("B", "v"))
    // b0 (v=1) precedes the A: in no trend. b2 (v=5), b3 (v=9) are.
    val events = Seq(ev(0, "B", 1), ev(1, "A", 0), ev(2, "B", 5), ev(3, "B", 9))
    assert(Engines.greta(Seq(mn), events)(mn.id).mn == 5.0)
    assert(Engines.greta(Seq(mx), events)(mx.id).mx == 9.0)
  }

  test("MIN of the non-Kleene stage via predecessor propagation") {
    val q = TrendQuery("q", Pattern.seq("A", "B+", "C"), Agg.Min("B", "v"), window = QueryWindow(4, 2))
    // b3 (v=2) arrives after the last C: in no complete trend.
    val events = Seq(ev(0, "A"), ev(1, "B", 7), ev(2, "C"), ev(3, "B", 2))
    assert(Engines.greta(Seq(q), events)(q.id).mn == 7.0)
  }

  test("edge predicate restricts Kleene adjacency") {
    val q = seqAB.copy(edgePred = Some(EdgePred("v", "<")))
    // b1(v=5), b2(v=3), b3(v=8): chains must increase:
    // (a,b1), (a,b2), (a,b3), (a,b1,b3), (a,b2,b3)
    val events = Seq(ev(0, "A"), ev(1, "B", 5), ev(2, "B", 3), ev(3, "B", 8))
    assert(count(q, events) == 5.0)
  }

  test("nested Kleene (SEQ(A, B+))+ matches Example 10 semantics") {
    val q = TrendQuery("q", PKleene(PSeq(List(PEvent("A"), PKleene(PEvent("B"))))),
      window = QueryWindow(4, 2))
    // a b a b: trends (a0,b1), (a0,b3), (a0,b1,b3), (a2,b3), (a0,b1,a2,b3)
    val events = Seq(ev(0, "A"), ev(1, "B"), ev(2, "A"), ev(3, "B"))
    assert(count(q, events) == 5.0)
  }

  // Randomized cross-checks against the brute-force enumerator: one
  // registered test per seed keeps failures reproducible.
  for (seed <- 0 until 30) {
    test(s"random stream equivalence vs brute force (seed $seed)") {
      val rnd = new Random(seed)
      val events = TestGen.stream(rnd, 12 + rnd.nextInt(10))
      val qs = TestGen.randomWorkload(rnd, 1 + rnd.nextInt(3))
      Engines.assertSame(Engines.greta(qs, events), Engines.brute(qs, events), s"seed=$seed")
    }
  }

  for (seed <- 100 until 110) {
    test(s"random aggregate equivalence vs brute force (seed $seed)") {
      val rnd = new Random(seed)
      val events = TestGen.stream(rnd, 14)
      val aggs: Seq[Agg] = Seq(Agg.CountStar, Agg.CountE("B"), Agg.Sum("B", "v"),
        Agg.Avg("B", "v"), Agg.Min("B", "v"), Agg.Max("B", "v"))
      val qs = aggs.zipWithIndex.map { case (a, i) =>
        TrendQuery(s"q$i", Pattern.seq("A", "B+"), a,
          preds = if (rnd.nextBoolean()) Seq(NumPred("B", "v", ">", 30)) else Nil,
          window = QueryWindow(4, 2))
      }
      Engines.assertSame(Engines.greta(qs, events), Engines.brute(qs, events), s"seed=$seed")
    }
  }
}
