package repro.harness

import repro.events.{Event, StreamGen}
import repro.hamlet.{AlwaysShare, Dynamic, NeverShare}
import repro.query.Workload

/** The evaluation-section experiments (§6.2), shared by the bench suites
  * and the spark-submit jobs. Each function replays a generated stream
  * through the relevant engines and returns one row per (setting, engine);
  * EXPERIMENTS.md records the paper's numbers next to these.
  */
object Experiments {

  final case class Row(dataset: String, evPerMin: Int, k: Int, res: RunResult)

  /** Untruncated runs of the same setting agree on every result channel. */
  def checkAgreement(rows: Seq[Row]): Unit =
    rows.groupBy(r => (r.dataset, r.evPerMin, r.k)).foreach { case (key, rs) =>
      val exact = rs.filterNot(_.res.truncated)
      require(exact.forall(_.res.total.agrees(exact.head.res.total)),
        s"engines disagree at $key: ${exact.map(r => r.res.name -> r.res.total)}")
    }

  /** Figures 9/10: Hamlet vs MCEP vs Greta vs Sharon on Ridesharing
    * ("low setting" so the baselines terminate), varying events/min and
    * the number of queries.
    */
  def fig9(
      minutes: Int = 4,
      epms: Seq[Int] = Seq(10_000, 20_000),
      ks: Seq[Int] = Seq(5, 15, 25),
      defaultK: Int = 15,
      defaultEpm: Int = 10_000,
  ): Seq[Row] = {
    val settings =
      (epms.map(e => (e, defaultK)) ++ ks.map(k => (defaultEpm, k))).distinct
    settings.flatMap { case (epm, k) =>
      // Many small groups and bounded trip lengths keep the two-step
      // baseline's exponential enumeration finite — the paper's "low
      // setting" chosen "to ensure MCEP/Greta/Sharon terminate" (§6.2).
      val events = StreamGen.ridesharing(minutes, epm,
        nGroups = math.max(400, epm / 2), meanKleene = 2.5, maxKleene = 7)
      // Figure 1's queries use large window/slide ratios (30 min / 1 min);
      // 12/1 keeps the overlapping-window re-processing factor realistic
      // for the baselines while staying inside the bench time budget.
      val wl = Workload.compile(Workloads.ridesharingW1(k, windowMin = 12, slideMin = 1))
      val rows = Seq(
        BenchHarness.runHamlet(wl, Dynamic(), events),
        BenchHarness.runGreta(wl, events),
        BenchHarness.runMcep(wl, events),
        BenchHarness.runSharon(wl, events),
      ).map(r => Row("Ridesharing", epm, k, r))
      checkAgreement(rows)
      rows
    }
  }

  /** Figure 11: Hamlet vs Greta on the NYC-Taxi-like and Smart-Home-like
    * streams with strongly overlapping windows (the high setting the
    * two-step/flattened baselines cannot sustain).
    */
  def fig11(
      taxiEpms: Seq[Int] = Seq(100, 200, 400),
      shEpms: Seq[Int] = Seq(2_000, 5_000, 10_000),
      ks: Seq[Int] = Seq(10, 30, 50),
      defaultK: Int = 50,
  ): Seq[Row] = {
    val taxi = taxiEpms.map(e => ("NYC-Taxi", e, defaultK)) ++
      ks.map(k => ("NYC-Taxi", taxiEpms(1), k))
    val sh = shEpms.map(e => ("Smart-Home", e, defaultK)) ++
      ks.map(k => ("Smart-Home", shEpms(1), k))
    (taxi ++ sh).distinct.flatMap { case (ds, epm, k) =>
      val (events, wl) =
        if (ds == "NYC-Taxi")
          (StreamGen.taxiLike(minutes = 6, epm, nDistricts = 10),
           Workload.compile(Workloads.taxiW1(k, windowMin = 10, slideMin = 1)))
        else
          (StreamGen.smartHomeLike(minutes = 3, epm, nPlugs = math.max(50, epm / 25)),
           Workload.compile(Workloads.smartHomeW1(k, windowMin = 10, slideMin = 1)))
      val rows = Seq(
        BenchHarness.runHamlet(wl, Dynamic(), events),
        BenchHarness.runGreta(wl, events),
      ).map(r => Row(ds, epm, k, r))
      checkAgreement(rows)
      rows
    }
  }

  /** Figures 12/13: dynamic vs static sharing decisions on the Stock
    * stream (workload 2: diverse windows/aggregates/predicates; the volume
    * regime flips make static always-share pay snapshot maintenance when
    * it should split).
    */
  def fig12(
      minutes: Int = 8,
      epms: Seq[Int] = Seq(2_000, 3_000, 4_000),
      ks: Seq[Int] = Seq(20, 60, 100),
      defaultK: Int = 60,
      defaultEpm: Int = 2_000,
  ): Seq[Row] = {
    val settings =
      (epms.map(e => (e, defaultK)) ++ ks.map(k => (defaultEpm, k))).distinct
    settings.flatMap { case (epm, k) =>
      // Companies sized so per-(company, pane) tick counts stay far from
      // Double overflow (trend counts double per Kleene event); bursts
      // average ~120 events within a pane as reported for the stock data
      // set in §6.2.
      val events = StreamGen.stockLike(minutes, epm, nCompanies = math.max(25, epm / 40))
      val wl = Workload.compile(Workloads.stockW2(k))
      val rows = Seq(
        BenchHarness.runHamlet(wl, Dynamic(), events, name = "HAMLET-dynamic"),
        BenchHarness.runHamlet(wl, AlwaysShare, events, name = "HAMLET-static"),
        BenchHarness.runHamlet(wl, NeverShare, events, name = "No-sharing"),
      ).map(r => Row("Stock", epm, k, r))
      checkAgreement(rows)
      rows
    }
  }

  def printComparison(title: String, rows: Seq[Row]): Unit = {
    BenchHarness.printTable(title,
      Seq("dataset", "ev/min", "queries", "engine", "latency ms", "throughput ev/s",
          "peak bytes", "snapshots", "shared bursts", "decision ms", "trunc"),
      rows.map { r =>
        val m = r.res.metrics
        Seq(r.dataset, r.evPerMin.toString, r.k.toString, r.res.name,
          BenchHarness.fmtD(r.res.latencyMs), BenchHarness.fmtD(r.res.throughputEps),
          r.res.peakBytes.toString, m.snapshotsCreated.toString,
          s"${m.sharedBursts}/${m.totalBursts}",
          BenchHarness.fmtD(m.decisionNanos / 1e6),
          if (r.res.truncated) "yes" else "no")
      })
  }
}
