package repro.hamlet

import org.scalatest.funsuite.AnyFunSuite

import scala.util.Random

import repro.events.Event
import repro.metrics.Metrics
import repro.query._
import repro.testkit.{Engines, TestGen}

/** Shared online trend aggregation (Algorithm 1) must agree with the
  * non-shared strategy and the brute-force enumerator under every policy,
  * and the sharing machinery must behave as §3.3/§4 describe.
  */
class HamletEngineSpec extends AnyFunSuite {

  private def ev(id: Long, typ: String, v: Double = 0.0): Event =
    Event(id, id * 10, typ, "g", Map("v" -> v))

  private val policies: Seq[(String, SharingPolicy)] = Seq(
    "never" -> NeverShare, "always" -> AlwaysShare,
    "dynamic8" -> Dynamic(Eq8Model), "dynamic7" -> Dynamic(Eq7Model))

  // --- Equivalence under every policy, random workloads --------------
  for (seed <- 0 until 40) {
    test(s"all policies agree with brute force on random input (seed $seed)") {
      val rnd = new Random(seed)
      val events = TestGen.stream(rnd, 14 + rnd.nextInt(12))
      val qs = TestGen.randomWorkload(rnd, 2 + rnd.nextInt(4))
      val expected = Engines.brute(qs, events)
      policies.foreach { case (name, p) =>
        Engines.assertSame(Engines.hamlet(qs, events, p), expected, s"seed=$seed policy=$name")
      }
    }
  }

  for (seed <- 200 until 215) {
    test(s"shared aggregates (SUM/AVG/COUNT-E family) agree across policies (seed $seed)") {
      val rnd = new Random(seed)
      val events = TestGen.stream(rnd, 16)
      val qs = Vector(
        TrendQuery("q0", Pattern.seq("A", "B+"), Agg.Sum("B", "v"), window = QueryWindow(4, 2)),
        TrendQuery("q1", Pattern.seq("C", "B+"), Agg.Avg("B", "v"),
          preds = Seq(NumPred("B", "v", "<", 70)), window = QueryWindow(8, 2)),
        TrendQuery("q2", Pattern.seq("B+"), Agg.CountE("B"), window = QueryWindow(4, 4)),
      )
      val expected = Engines.brute(qs, events)
      policies.foreach { case (name, p) =>
        Engines.assertSame(Engines.hamlet(qs, events, p), expected, s"seed=$seed policy=$name")
      }
    }
  }

  test("a sharable set may carry any number of channels (nine here)") {
    // Eight SUMs over distinct attributes of the shared type: one count
    // channel plus eight sum channels. Odd queries filter P, so AlwaysShare
    // also takes event-level snapshots.
    val qs = (0 until 8).map { i =>
      TrendQuery(s"q$i", Pattern.seq("O", "P+"), Agg.Sum("P", s"a$i"),
        preds = if (i % 2 == 1) Seq(NumPred("P", "a0", "<", 60)) else Nil, window = QueryWindow(4, 2))
    }
    assert(Engines.compile(qs).sets.map(_.queries.size) == Vector(8))
    val rnd = new Random(8)
    val events = (0 until 24).map { i =>
      val typ = if (i % 6 == 0 || rnd.nextInt(5) == 0) "O" else "P"
      Event(i.toLong, i * 10L, typ, "g", (0 until 8).map(a => s"a$a" -> rnd.nextInt(100).toDouble).toMap)
    }
    val expected = Engines.brute(qs, events)
    Engines.assertSame(Engines.greta(qs, events), expected, "greta")
    policies.foreach { case (name, p) =>
      val m = new Metrics
      Engines.assertSame(Engines.hamlet(qs, events, p, m), expected, s"policy=$name")
      if (p == AlwaysShare) assert(m.sharedBursts > 0 && m.snapshotsCreated > m.sharedBursts)
    }
  }

  // --- Snapshot machinery --------------------------------------------
  test("uniform burst shared by all queries creates exactly one snapshot per graphlet") {
    val qs = Seq(
      TrendQuery("q1", Pattern.seq("A", "B+"), window = QueryWindow(4, 2)),
      TrendQuery("q2", Pattern.seq("C", "B+"), window = QueryWindow(4, 2)))
    val events = Seq(ev(0, "A"), ev(1, "C"), ev(2, "B"), ev(3, "B"), ev(4, "B"))
    val m = new Metrics
    Engines.hamlet(qs, events, AlwaysShare, m)
    assert(m.snapshotsCreated == 1)
    assert(m.sharedGraphlets == 1)
    assert(m.sharedBursts == 1 && m.totalBursts == 1)
  }

  test("per-query predicate divergence creates event-level snapshots (Definition 9)") {
    val qs = Seq(
      TrendQuery("q1", Pattern.seq("A", "B+"), preds = Seq(NumPred("B", "v", ">", 50)),
        window = QueryWindow(4, 2)),
      TrendQuery("q2", Pattern.seq("C", "B+"), window = QueryWindow(4, 2)))
    val events = Seq(ev(0, "A"), ev(1, "C"), ev(2, "B", 80), ev(3, "B", 10), ev(4, "B", 90))
    val m = new Metrics
    val aggs = Engines.hamlet(qs, events, AlwaysShare, m)
    // b3 (v=10) diverges: graphlet snapshot + one event snapshot.
    assert(m.snapshotsCreated == 2)
    // q1 sees b2, b4; q2 sees all three.
    assert(aggs("q1").c == 3.0)
    assert(aggs("q2").c == 7.0)
  }

  test("events matched by no sharing query are skipped inside a shared burst") {
    val qs = Seq(
      TrendQuery("q1", Pattern.seq("A", "B+"), preds = Seq(NumPred("B", "v", ">", 50)),
        window = QueryWindow(4, 2)),
      TrendQuery("q2", Pattern.seq("C", "B+"), preds = Seq(NumPred("B", "v", ">", 50)),
        window = QueryWindow(4, 2)))
    val events = Seq(ev(0, "A"), ev(1, "C"), ev(2, "B", 80), ev(3, "B", 10), ev(4, "B", 90))
    val m = new Metrics
    val aggs = Engines.hamlet(qs, events, AlwaysShare, m)
    assert(m.snapshotsCreated == 1) // b3 uniform-unmatched: no snapshot needed
    assert(aggs("q1").c == 3.0 && aggs("q2").c == 3.0)
  }

  test("dynamic policy with Eq8 shares clean bursts and records the decision") {
    val qs = (0 until 6).map(i =>
      TrendQuery(s"q$i", Pattern.seq(if (i % 2 == 0) "A" else "C", "B+"),
        window = QueryWindow(4, 2)))
    val events = Seq(ev(0, "A"), ev(1, "C")) ++ (2 until 20).map(i => ev(i.toLong, "B"))
    val m = new Metrics
    Engines.hamlet(qs, events, Dynamic(Eq8Model), m)
    assert(m.decisions == 1)
    assert(m.sharedBursts == 1)
    assert(m.plansExamined >= 1)
    assert(m.decisionNanos > 0)
  }

  test("NeverShare policy records non-shared bursts") {
    val qs = Seq(
      TrendQuery("q1", Pattern.seq("A", "B+"), window = QueryWindow(4, 2)),
      TrendQuery("q2", Pattern.seq("C", "B+"), window = QueryWindow(4, 2)))
    val events = Seq(ev(0, "A"), ev(1, "C"), ev(2, "B"), ev(3, "B"))
    val m = new Metrics
    Engines.hamlet(qs, events, NeverShare, m)
    assert(m.totalBursts == 1 && m.sharedBursts == 0)
    assert(m.snapshotsCreated == 0)
  }

  test("split then merge across bursts (§4.2): consolidation snapshot carries state over") {
    // Burst 1 diverges heavily (static would pay snapshots); burst 2 is
    // clean. Under Dynamic the engine may split then merge; results must
    // match brute force regardless of the internal mode changes.
    val q1 = TrendQuery("q1", Pattern.seq("A", "B+"), preds = Seq(NumPred("B", "v", ">", 50)),
      window = QueryWindow(4, 2))
    val q2 = TrendQuery("q2", Pattern.seq("A", "B+"), window = QueryWindow(4, 2))
    val rnd = new Random(9)
    val burst1 = (1 to 10).map(i => ev(i.toLong, "B", if (i % 2 == 0) 80 else 10))
    val burst2 = (12 to 22).map(i => ev(i.toLong, "B", 80))
    val events = Seq(ev(0, "A")) ++ burst1 ++ Seq(ev(11, "A")) ++ burst2
    val expected = Engines.brute(Seq(q1, q2), events)
    policies.foreach { case (name, p) =>
      Engines.assertSame(Engines.hamlet(Seq(q1, q2), events, p), expected, name)
    }
  }

  test("static always-share creates more snapshots than dynamic on divergent bursts") {
    val qs = (0 until 8).map(i =>
      TrendQuery(s"q$i", Pattern.seq("A", "B+"),
        preds = Seq(NumPred("B", "v", ">", 20.0 + i * 8)), window = QueryWindow(4, 2)))
    val rnd = new Random(5)
    val events = ev(0, "A") +: (1 to 60).map(i => ev(i.toLong, "B", rnd.nextInt(100).toDouble))
    val mStatic = new Metrics
    val mDyn = new Metrics
    val a = Engines.hamlet(qs, events, AlwaysShare, mStatic)
    val b = Engines.hamlet(qs, events, Dynamic(Eq8Model), mDyn)
    Engines.assertSame(a, b, "static vs dynamic")
    assert(mStatic.snapshotsCreated >= mDyn.snapshotsCreated)
  }

  test("multiple sharable sets on different Kleene types run side by side") {
    val qs = Seq(
      TrendQuery("b1", Pattern.seq("A", "B+"), window = QueryWindow(4, 2)),
      TrendQuery("b2", Pattern.seq("C", "B+"), window = QueryWindow(4, 2)),
      TrendQuery("d1", Pattern.seq("A", "D+"), window = QueryWindow(4, 2)),
      TrendQuery("d2", Pattern.seq("C", "D+"), window = QueryWindow(4, 2)))
    val events = Seq(ev(0, "A"), ev(1, "C"), ev(2, "B"), ev(3, "B"),
      ev(4, "D"), ev(5, "D"), ev(6, "B"))
    val expected = Engines.brute(qs, events)
    policies.foreach { case (name, p) =>
      Engines.assertSame(Engines.hamlet(qs, events, p), expected, name)
    }
  }

  test("workload mixing a sharable set with singleton queries") {
    val qs = Seq(
      TrendQuery("q1", Pattern.seq("A", "B+"), window = QueryWindow(4, 2)),
      TrendQuery("q2", Pattern.seq("C", "B+"), window = QueryWindow(4, 2)),
      TrendQuery("solo", Pattern.seq("C", "D+"), window = QueryWindow(4, 2)),
      TrendQuery("mm", Pattern.seq("A", "B+"), Agg.Max("B", "v"), window = QueryWindow(4, 2)))
    val rnd = new Random(11)
    val events = TestGen.stream(rnd, 20)
    val expected = Engines.brute(qs, events)
    policies.foreach { case (name, p) =>
      Engines.assertSame(Engines.hamlet(qs, events, p), expected, name)
    }
  }

  test("edge-predicate divergence inside a shared graphlet stays correct") {
    val q1 = TrendQuery("q1", Pattern.seq("A", "B+"), window = QueryWindow(4, 2))
    val q2 = TrendQuery("q2", Pattern.seq("A", "B+"), window = QueryWindow(4, 2),
      edgePred = Some(EdgePred("v", "<=")))
    val events = Seq(ev(0, "A"), ev(1, "B", 5), ev(2, "B", 3), ev(3, "B", 8), ev(4, "B", 1))
    val expected = Engines.brute(Seq(q1, q2), events)
    policies.foreach { case (name, p) =>
      Engines.assertSame(Engines.hamlet(Seq(q1, q2), events, p), expected, name)
    }
  }

  test("negation barriers follow stream order, not event ids") {
    // Ids fall as time rises: N (between the first A and the first B)
    // blocks that A in stream order even though its id is smaller. In
    // `self` the second A blocks the first but still starts trends.
    val qs = Seq(
      TrendQuery("neg", Pattern.seq("A", "!N", "B+"), window = QueryWindow(4, 2)),
      TrendQuery("c", Pattern.seq("C", "B+"), window = QueryWindow(4, 2)),
      TrendQuery("self", Pattern.seq("A", "!A", "B+"), window = QueryWindow(4, 2)))
    val events = Seq("A", "C", "N", "B", "A", "B", "B").zipWithIndex.map { case (t, i) =>
      Event(id = 20L - 2 * i, ts = 10L * i, t, "g")
    }
    val expected = Engines.brute(qs, events)
    assert(expected("neg").c == 3.0 && expected("c").c == 7.0 && expected("self").c == 7.0)
    Engines.assertSame(Engines.mcep(qs, events), expected, "mcep")
    Engines.assertSame(Engines.greta(qs, events), expected, "greta")
    policies.foreach { case (name, p) =>
      Engines.assertSame(Engines.hamlet(qs, events, p), expected, name)
    }
  }

  test("a barrier blocks a shared SUM over negative values (the latest capture, not the largest)") {
    // The shared B+ graphlet leaves q1's B sums at c = 3, s = -16 when C
    // blocks them, so nothing crosses to D: c = 0 and s = 0.
    val qs = Seq(
      TrendQuery("q1", Pattern.seq("A", "B+", "!C", "D"), Agg.Sum("B", "v"), window = QueryWindow(4, 2)),
      TrendQuery("q2", Pattern.seq("A", "B+"), Agg.Sum("B", "v"), window = QueryWindow(4, 2)))
    val events = Seq(ev(0, "A", 1), ev(1, "B", -5), ev(2, "B", -3), ev(3, "C"), ev(4, "D"))
    val expected = Engines.brute(qs, events)
    assert(expected("q1").c == 0.0 && expected("q1").s == 0.0 && expected("q2").s == -16.0)
    for ((name, p) <- policies; profile <- Seq(Faithful, RunningSums))
      Engines.assertSame(Engines.hamlet(qs, events, p, profile = profile), expected, s"$name $profile")
  }

  test("peak live terms and bytes are tracked") {
    val qs = Seq(
      TrendQuery("q1", Pattern.seq("A", "B+"), preds = Seq(NumPred("B", "v", ">", 50)),
        window = QueryWindow(4, 2)),
      TrendQuery("q2", Pattern.seq("A", "B+"), window = QueryWindow(4, 2)))
    val rnd = new Random(3)
    val events = ev(0, "A") +: (1 to 30).map(i => ev(i.toLong, "B", rnd.nextInt(100).toDouble))
    val m = new Metrics
    Engines.hamlet(qs, events, AlwaysShare, m)
    assert(m.peakLiveTerms >= 1)
    assert(m.peakBytes > 0)
  }
}
