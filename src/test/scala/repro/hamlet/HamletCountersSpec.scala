package repro.hamlet

import org.scalatest.funsuite.AnyFunSuite

import scala.util.Random

import repro.core.PaneAgg
import repro.events.{Event, StreamGen}
import repro.harness.{BenchHarness, Workloads}
import repro.metrics.Metrics
import repro.query.{CompiledWorkload, TrendQuery, Workload}
import repro.testkit.{Engines, TestGen}

/** Pins the engines' deterministic counters.
  *
  * The counters are the paper's cost model (`evalOps` is every predecessor
  * visited and every snapshot term evaluated), so a change to an engine's
  * data layout must leave each of them exactly where it was. Each
  * (group, pane) unit gets its own `Metrics`, summed with `+=` as the Spark
  * runners and the end-to-end benchmark do (so `peakBytes` is a sum of
  * per-unit peaks).
  */
class HamletCountersSpec extends AnyFunSuite {

  /** A small Figure 12 stream: 4 minutes, 8 companies, 12 queries. */
  private lazy val stockWl = Workload.compile(Workloads.stockW2(12))
  private lazy val stockUnits =
    BenchHarness.partition(StreamGen.stockLike(4, 300, nCompanies = 8, seed = 7L), stockWl.paneMs)

  /** A small ridesharing stream under workload 1: no predicates, so every
    * decision takes the O(1) path and no shared burst needs an event-level
    * snapshot.
    */
  private lazy val rideWl = Workload.compile(Workloads.ridesharingW1(8))
  private lazy val rideUnits =
    BenchHarness.partition(StreamGen.ridesharing(2, 1500, nGroups = 40, seed = 42L), rideWl.paneMs)

  /** Random workloads of the test generator, which also cover edge
    * predicates, mid-pattern and trailing negation.
    */
  private def randomCases: Seq[(Seq[TrendQuery], Seq[Event])] =
    (0 until 20).map { seed =>
      val rnd = new Random(1000 + seed)
      val qs = TestGen.randomWorkload(rnd, 3 + rnd.nextInt(4))
      (qs, TestGen.stream(rnd, 40))
    }

  private def summed(units: Seq[Metrics => Unit]): Metrics = {
    val total = new Metrics
    units.foreach { run => val m = new Metrics; run(m); total += m }
    total
  }

  private def stock(policy: SharingPolicy): Metrics = {
    val exec = new HamletExecutor(stockWl, policy)
    summed(stockUnits.map { case (_, evs) => (m: Metrics) => exec.processPaneAggs(evs, m): Unit })
  }

  private def ride(policy: SharingPolicy): Metrics = {
    val exec = new HamletExecutor(rideWl, policy)
    summed(rideUnits.map { case (_, evs) => (m: Metrics) => exec.processPaneAggs(evs, m): Unit })
  }

  private def random(policy: SharingPolicy): Metrics =
    summed(randomCases.map { case (qs, evs) => (m: Metrics) => Engines.hamlet(qs, evs, policy, m): Unit })

  private def pin(what: String, m: Metrics, want: Map[String, Long]): Unit = {
    val got = Map(
      "events" -> m.events, "evalOps" -> m.evalOps, "snapshots" -> m.snapshotsCreated,
      "sharedBursts" -> m.sharedBursts, "totalBursts" -> m.totalBursts,
      "sharedGraphlets" -> m.sharedGraphlets, "graphlets" -> m.graphlets,
      "decisions" -> m.decisions, "plansExamined" -> m.plansExamined,
      "peakLiveTerms" -> m.peakLiveTerms, "peakBytes" -> m.peakBytes)
    assert(got.keySet == want.keySet)
    want.foreach { case (k, v) => assert(got(k) == v, s"$what $k") }
  }

  test("stock counters are pinned under Dynamic") {
    pin("stock Dynamic", stock(Dynamic()), Map(
      "events" -> 2476L, "evalOps" -> 668943L, "snapshots" -> 16L,
      "sharedBursts" -> 10L, "totalBursts" -> 54L, "sharedGraphlets" -> 10L, "graphlets" -> 427L,
      "decisions" -> 54L, "plansExamined" -> 222L, "peakLiveTerms" -> 1L, "peakBytes" -> 427672L))
  }

  test("stock counters are pinned under AlwaysShare") {
    pin("stock AlwaysShare", stock(AlwaysShare), Map(
      "events" -> 2476L, "evalOps" -> 600168L, "snapshots" -> 2388L,
      "sharedBursts" -> 54L, "totalBursts" -> 54L, "sharedGraphlets" -> 54L, "graphlets" -> 254L,
      "decisions" -> 54L, "plansExamined" -> 54L, "peakLiveTerms" -> 1L, "peakBytes" -> 97160L))
  }

  test("stock counters are pinned under NeverShare") {
    pin("stock NeverShare", stock(NeverShare), Map(
      "events" -> 2476L, "evalOps" -> 1088316L, "snapshots" -> 0L,
      "sharedBursts" -> 0L, "totalBursts" -> 54L, "sharedGraphlets" -> 0L, "graphlets" -> 524L,
      "decisions" -> 54L, "plansExamined" -> 54L, "peakLiveTerms" -> 0L, "peakBytes" -> 628896L))
  }

  test("ridesharing counters are pinned under Dynamic (no divergence)") {
    val m = ride(Dynamic())
    pin("ride Dynamic", m, Map(
      "events" -> 2997L, "evalOps" -> 56055L, "snapshots" -> 523L,
      "sharedBursts" -> 523L, "totalBursts" -> 535L, "sharedGraphlets" -> 523L, "graphlets" -> 2001L,
      "decisions" -> 535L, "plansExamined" -> 535L, "peakLiveTerms" -> 1L, "peakBytes" -> 251776L))
    assert(m.snapshotsCreated == m.sharedGraphlets, "only graphlet-level snapshots")
  }

  test("ridesharing counters are pinned under AlwaysShare (no divergence)") {
    val m = ride(AlwaysShare)
    pin("ride AlwaysShare", m, Map(
      "events" -> 2997L, "evalOps" -> 55305L, "snapshots" -> 535L,
      "sharedBursts" -> 535L, "totalBursts" -> 535L, "sharedGraphlets" -> 535L, "graphlets" -> 1849L,
      "decisions" -> 535L, "plansExamined" -> 535L, "peakLiveTerms" -> 1L, "peakBytes" -> 246528L))
    assert(m.snapshotsCreated == m.sharedGraphlets, "only graphlet-level snapshots")
  }

  test("ridesharing counters are pinned under NeverShare") {
    pin("ride NeverShare", ride(NeverShare), Map(
      "events" -> 2997L, "evalOps" -> 641388L, "snapshots" -> 0L,
      "sharedBursts" -> 0L, "totalBursts" -> 535L, "sharedGraphlets" -> 0L, "graphlets" -> 6672L,
      "decisions" -> 535L, "plansExamined" -> 535L, "peakLiveTerms" -> 0L, "peakBytes" -> 1234432L))
  }

  test("random-workload counters are pinned under Dynamic") {
    pin("random Dynamic", random(Dynamic()), Map(
      "events" -> 668L, "evalOps" -> 12915L, "snapshots" -> 107L,
      "sharedBursts" -> 41L, "totalBursts" -> 64L, "sharedGraphlets" -> 41L, "graphlets" -> 268L,
      "decisions" -> 64L, "plansExamined" -> 178L, "peakLiveTerms" -> 3L, "peakBytes" -> 78128L))
  }

  test("random-workload counters are pinned under AlwaysShare") {
    pin("random AlwaysShare", random(AlwaysShare), Map(
      "events" -> 668L, "evalOps" -> 11772L, "snapshots" -> 224L,
      "sharedBursts" -> 64L, "totalBursts" -> 64L, "sharedGraphlets" -> 64L, "graphlets" -> 198L,
      "decisions" -> 64L, "plansExamined" -> 64L, "peakLiveTerms" -> 3L, "peakBytes" -> 64536L))
  }

  test("random-workload counters are pinned under NeverShare") {
    pin("random NeverShare", random(NeverShare), Map(
      "events" -> 668L, "evalOps" -> 16681L, "snapshots" -> 0L,
      "sharedBursts" -> 0L, "totalBursts" -> 64L, "sharedGraphlets" -> 0L, "graphlets" -> 428L,
      "decisions" -> 64L, "plansExamined" -> 64L, "peakLiveTerms" -> 0L, "peakBytes" -> 94208L))
  }

  /** Every (group, pane) unit of `units` under `profile`: the per-query
    * results and the summed counters.
    */
  private def profiled(wl: CompiledWorkload, units: Seq[(?, Vector[Event])], policy: SharingPolicy,
                       profile: CostProfile): (Seq[Map[String, PaneAgg]], Metrics) = {
    val exec = new HamletExecutor(wl, policy, profile)
    val total = new Metrics
    val aggs = units.map { case (_, evs) => val m = new Metrics; val a = exec.processPaneAggs(evs, m); total += m; a }
    (aggs, total)
  }

  private def close(u: Double, v: Double): Boolean =
    if (u.isInfinite || v.isInfinite) u == v
    else math.abs(u - v) <= 1e-9 * math.max(1.0, math.max(math.abs(u), math.abs(v)))

  for ((name, wl, units) <- Seq(("stock", () => stockWl, () => stockUnits), ("ridesharing", () => rideWl, () => rideUnits));
       (pName, policy) <- Seq("Dynamic" -> Dynamic(), "AlwaysShare" -> AlwaysShare, "NeverShare" -> NeverShare)) {
    test(s"$name under $pName: running sums make the same decisions and results as the faithful walk") {
      val (fa, f) = profiled(wl(), units(), policy, Faithful)
      val (ra, r) = profiled(wl(), units(), policy, RunningSums)
      def decisions(m: Metrics) = Seq(m.snapshotsCreated, m.graphlets, m.sharedGraphlets, m.sharedBursts,
        m.totalBursts, m.decisions, m.plansExamined)
      assert(decisions(r) == decisions(f))
      fa.zip(ra).foreach { case (fu, ru) =>
        assert(fu.keySet == ru.keySet)
        fu.foreach { case (q, a) =>
          val b = ru(q)
          assert(close(a.c, b.c) && close(a.n, b.n) && close(a.s, b.s) && close(a.mn, b.mn) && close(a.mx, b.mx),
            s"$q: $a vs $b")
        }
      }
    }
  }

  test("Greta baseline counters are pinned (its walk visits what NeverShare visits)") {
    val greta = GretaEngine(stockWl)
    val s = summed(stockUnits.map { case (_, evs) => (m: Metrics) => greta.processPaneAggs(evs, m): Unit })
    assert((s.events, s.evalOps, s.graphlets, s.peakBytes) == ((14580L, 1088316L, 524L, 87576L)))
    val r = summed(randomCases.map { case (qs, evs) => (m: Metrics) => Engines.greta(qs, evs, m): Unit })
    assert((r.events, r.evalOps, r.graphlets, r.peakBytes) == ((2174L, 16681L, 428L, 26176L)))
  }
}
