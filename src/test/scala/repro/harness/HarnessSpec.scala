package repro.harness

import org.scalatest.funsuite.AnyFunSuite

import repro.events.StreamGen
import repro.hamlet.{AlwaysShare, Dynamic, NeverShare}
import repro.metrics.Metrics
import repro.query.Workload

/** The bench harness replays streams with each approach's orchestration;
  * engines must agree on results, and the cost ordering the paper reports
  * must emerge at small scale already.
  */
class HarnessSpec extends AnyFunSuite {

  private lazy val events = StreamGen.ridesharing(minutes = 4, eventsPerMin = 800,
    nGroups = 800, meanKleene = 2.5, maxKleene = 7, seed = 3)
  private lazy val wl = Workload.compile(Workloads.ridesharingW1(8, windowMin = 4, slideMin = 1))

  test("partition splits by (group, pane) in time order") {
    val parts = BenchHarness.partition(events, wl.paneMs)
    assert(parts.map(_._2.size).sum == events.size)
    parts.foreach { case ((g, p), evs) =>
      assert(evs.forall(e => e.grp == g && e.pane(wl.paneMs) == p))
      assert(evs.sliding(2).forall { case Seq(a, b) => a.ts <= b.ts; case _ => true })
    }
    assert(parts.map(_._1._2).sliding(2).forall { case Seq(a, b) => a <= b; case _ => true })
  }

  test("all four approaches agree on trend counts (ridesharing workload 1)") {
    val h = BenchHarness.runHamlet(wl, Dynamic(), events)
    val g = BenchHarness.runGreta(wl, events)
    val m = BenchHarness.runMcep(wl, events)
    val s = BenchHarness.runSharon(wl, events, maxLen = 128)
    assert(!m.truncated && !s.truncated)
    for (r <- Seq(g, m, s))
      assert(r.total.agrees(h.total), s"${r.name}: ${r.total} vs ${h.total}")
    assert(h.total.c > 0)
  }

  test("each engine's counters on ridesharing workload 1 are pinned") {
    val runs = Seq(
      BenchHarness.runHamlet(wl, Dynamic(), events), BenchHarness.runGreta(wl, events),
      BenchHarness.runMcep(wl, events), BenchHarness.runSharon(wl, events))
    // name -> (events, evalOps, snapshots, shared bursts, total bursts, peak bytes)
    val pinned = Map(
      "HAMLET" -> (3174L, 27504L, 453L, 453L, 758L, 2416L),
      "GRETA"  -> (86568L, 193808L, 0L, 0L, 0L, 27136L),
      "MCEP"   -> (12696L, 175700L, 0L, 0L, 0L, 1024L),
      "SHARON" -> (86568L, 6494320L, 0L, 0L, 0L, 37632L))
    runs.foreach { r =>
      val m = r.metrics
      assert((m.events, m.evalOps, m.snapshotsCreated, m.sharedBursts, m.totalBursts, m.peakBytes) ==
        pinned(r.name), r.name)
      assert(r.peakBytes == m.peakBytes && !r.truncated && r.total.c == 68592.0, r.name)
    }
  }

  test("checkAgreement compares every channel, not only the trend count") {
    val r = BenchHarness.runHamlet(wl, NeverShare, events.take(2000))
    def rows(other: RunResult) = Seq(r, other).map(Experiments.Row("Ridesharing", 800, 8, _))
    Experiments.checkAgreement(rows(r.copy(name = "same")))
    val wrongSum = r.copy(name = "wrong-s", total = r.total.copy(s = r.total.s + 1.0))
    intercept[IllegalArgumentException](Experiments.checkAgreement(rows(wrongSum)))
    // A truncated run is not compared.
    val capped = new Metrics
    capped.truncations = 1
    Experiments.checkAgreement(rows(wrongSum.copy(metrics = capped)))
  }

  test("Hamlet does strictly less engine work than Greta (k× and window× sharing)") {
    val h = BenchHarness.runHamlet(wl, Dynamic(), events)
    val g = BenchHarness.runGreta(wl, events)
    assert(g.metrics.events > h.metrics.events * 5) // k * w/s re-processing
  }

  test("policies agree on the divergent stock workload 2") {
    val stock = StreamGen.stockLike(minutes = 4, eventsPerMin = 500, nCompanies = 20)
    val wl2 = Workload.compile(Workloads.stockW2(12))
    val dyn = BenchHarness.runHamlet(wl2, Dynamic(), stock, "dyn")
    val sta = BenchHarness.runHamlet(wl2, AlwaysShare, stock, "sta")
    val nev = BenchHarness.runHamlet(wl2, NeverShare, stock, "nev")
    assert(dyn.total.agrees(sta.total), s"${dyn.total} vs ${sta.total}")
    assert(dyn.total.agrees(nev.total), s"${dyn.total} vs ${nev.total}")
    assert(nev.total.s > 0 && nev.total.n > 0) // SUM and AVG queries are compared too
  }

  test("dynamic creates no more snapshots than static and shares most bursts") {
    val stock = StreamGen.stockLike(minutes = 6, eventsPerMin = 800, nCompanies = 20)
    val wl2 = Workload.compile(Workloads.stockW2(20))
    val dyn = BenchHarness.runHamlet(wl2, Dynamic(), stock, "dyn")
    val sta = BenchHarness.runHamlet(wl2, AlwaysShare, stock, "sta")
    assert(dyn.metrics.snapshotsCreated <= sta.metrics.snapshotsCreated)
    assert(sta.metrics.sharedBursts == sta.metrics.totalBursts)
    assert(dyn.metrics.sharedBursts > 0)
    assert(dyn.metrics.decisions == dyn.metrics.totalBursts)
  }

  test("throughput and latency fields are consistent with wall time") {
    val r = BenchHarness.runHamlet(wl, Dynamic(), events.take(2000))
    assert(r.wallMs > 0)
    assert(math.abs(r.throughputEps - 2000 / (r.wallMs / 1000.0)) < 1e-6 * r.throughputEps)
    assert(r.latencyMs > 0)
  }

  test("table printer formats rows without throwing") {
    BenchHarness.printTable("t", Seq("a", "bb"), Seq(Seq("1", "2"), Seq("333", "4")))
    assert(BenchHarness.fmtD(0.12345) == "0.1235" || BenchHarness.fmtD(0.12345) == "0.1234")
    assert(BenchHarness.fmtD(123456) == "123456")
  }

  test("workload builders produce the advertised sharing structure") {
    val w1 = Workload.compile(Workloads.ridesharingW1(10))
    assert(w1.sets.size == 1 && w1.sets.head.sharedType == "T")
    assert(w1.sets.head.queries.size == 10)
    val w2 = Workload.compile(Workloads.stockW2(21))
    assert(w2.sets.map(_.sharedType).toSet == Set("P"))
    assert(w2.sets.map(_.queries.size).sum == 21)
    val taxi = Workload.compile(Workloads.taxiW1(6))
    assert(taxi.sets.head.queries.size == 6)
    val sh = Workload.compile(Workloads.smartHomeW1(6))
    assert(sh.sets.head.sharedType == "M")
  }
}
