package repro.bench

import org.scalatest.funsuite.AnyFunSuite

import repro.bench.CostProfileBench.Pair
import repro.events.Event
import repro.hamlet.{AlwaysShare, CostProfile, Dynamic, Faithful, NeverShare, RunningSums, SharingPolicy}
import repro.harness.{BenchHarness, Experiments, RunResult}
import repro.metrics.Metrics
import repro.query.CompiledWorkload

/** The two cost profiles side by side at the default settings of Figures
  * 9, 11 and 12: the faithful walk the figure tables run, and the running
  * sums the Spark runners run. Both must give the same result totals and
  * make the same decisions; the table shows what the running sums save in
  * wall time and in `evalOps`. Wall time is printed, not gated.
  */
class CostProfileBench extends AnyFunSuite {

  private def pairs(fig: String, dataset: String, epm: Int, k: Int,
                    input: (Seq[Event], CompiledWorkload),
                    policies: Seq[(String, SharingPolicy)]): Seq[Pair] = {
    val (events, wl) = input
    def run(name: String, policy: SharingPolicy, profile: CostProfile) =
      BenchHarness.runHamlet(wl, policy, events, name, profile)
    policies.map { case (name, policy) =>
      Pair(fig, dataset, epm, k, run(name, policy, Faithful), run(name, policy, RunningSums))
    }
  }

  private lazy val rows: Seq[Pair] =
    pairs("9", "Ridesharing", 10_000, 15, Experiments.fig9Input(10_000, 15), Seq("HAMLET" -> Dynamic())) ++
      pairs("11", "NYC-Taxi", 200, 50, Experiments.fig11Input("NYC-Taxi", 200, 50), Seq("HAMLET" -> Dynamic())) ++
      pairs("11", "Smart-Home", 5_000, 50, Experiments.fig11Input("Smart-Home", 5_000, 50),
        Seq("HAMLET" -> Dynamic())) ++
      pairs("12", "Stock", 2_000, 60, Experiments.fig12Input(2_000, 60),
        Seq("HAMLET-dynamic" -> Dynamic(), "HAMLET-static" -> AlwaysShare, "No-sharing" -> NeverShare))

  private def decisions(m: Metrics): Seq[Long] =
    Seq(m.events, m.snapshotsCreated, m.graphlets, m.sharedGraphlets, m.sharedBursts, m.totalBursts,
      m.decisions, m.plansExamined)

  test("print the cost profile table") {
    BenchHarness.printTable("Cost profiles — faithful walk vs running sums (default settings)",
      Seq("figure", "dataset", "ev/min", "queries", "engine", "faithful ms", "running-sums ms", "speedup",
          "faithful evalOps", "running-sums evalOps"),
      rows.map { r =>
        Seq(r.fig, r.dataset, r.epm.toString, r.k.toString, r.faithful.name,
          BenchHarness.fmtD(r.faithful.wallMs), BenchHarness.fmtD(r.sums.wallMs),
          BenchHarness.fmtD(r.faithful.wallMs / r.sums.wallMs),
          r.faithful.metrics.evalOps.toString, r.sums.metrics.evalOps.toString)
      })
    assert(rows.nonEmpty)
  }

  test("both profiles give the same result totals") {
    rows.foreach { r =>
      assert(r.sums.total.agrees(r.faithful.total), s"${r.dataset} ${r.faithful.name}")
    }
  }

  test("both profiles make the same decisions, snapshots and graphlets") {
    rows.foreach { r =>
      assert(decisions(r.sums.metrics) == decisions(r.faithful.metrics), s"${r.dataset} ${r.faithful.name}")
    }
  }
}

object CostProfileBench {
  /** One engine at one setting, run under each profile. */
  final case class Pair(fig: String, dataset: String, epm: Int, k: Int, faithful: RunResult, sums: RunResult)
}
