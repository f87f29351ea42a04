package bench

import java.util.concurrent.Executors

import scala.collection.mutable

import repro.core.{PaneAgg, PaneResult}
import repro.events.Event
import repro.hamlet.{HamletExecutor, NeverShare}
import repro.harness.BenchHarness
import repro.metrics.Metrics
import repro.query.{Agg, CompiledWorkload}

/** One window row as `BatchRunner.windowed` emits it. */
final case class WinRow(queryId: String, grp: String, wi: Long, endPane: Long, value: Option[Double])

/** Independent expected results: every (group, pane) unit replayed on the
  * driver under `NeverShare` (units spread over `threads` threads), and the
  * sliding-window roll-up done in plain Scala (no Spark). Built once per
  * run, outside every timed pass.
  */
final class Reference(wl: CompiledWorkload, events: Seq[Event], threads: Int) {
  private val geom = wl.queries.map(q => q.id -> q).toMap

  /** (query, group, pane) → aggregate channels. */
  val panes: Map[(String, String, Long), PaneAgg] = {
    val exec = new HamletExecutor(wl, NeverShare)
    val pool = Executors.newFixedThreadPool(threads)
    try {
      BenchHarness.partition(events, wl.paneMs)
        .map { case ((g, p), evs) =>
          pool.submit(() => exec.processPaneAggs(evs, new Metrics).map { case (q, a) => (q, g, p) -> a })
        }
        .flatMap(_.get())
        .toMap
    } finally pool.shutdown()
  }

  /** (query, group, window instance) → (window end pane, value). */
  val windows: Map[(String, String, Long), (Long, Option[Double])] = {
    val acc = mutable.HashMap.empty[(String, String, Long), PaneAgg]
    for (((q, g, p), a) <- panes) {
      val cq = geom(q)
      val lo = math.max(0L, math.ceil((p - cq.windowPanes + 1).toDouble / cq.slidePanes).toLong)
      val hi = math.floor(p.toDouble / cq.slidePanes).toLong
      var wi = lo
      while (wi <= hi) {
        val k = (q, g, wi)
        acc(k) = acc.get(k).fold(a)(_ + a)
        wi += 1
      }
    }
    acc.map { case (k @ (q, _, wi), a) =>
      val cq = geom(q)
      val v = cq.q.agg match {
        case Agg.CountStar => Some(a.c)
        case Agg.CountE(_) => Some(a.n)
        case Agg.Sum(_, _) => Some(a.s)
        case Agg.Avg(_, _) => if (a.n != 0.0) Some(a.s / a.n) else None
        case Agg.Min(_, _) => if (a.mn != Double.PositiveInfinity) Some(a.mn) else None
        case Agg.Max(_, _) => if (a.mx != Double.NegativeInfinity) Some(a.mx) else None
      }
      k -> (wi * cq.slidePanes + cq.windowPanes, v)
    }.toMap
  }
}

/** Row-by-row comparison counters. A row fails when it is missing,
  * duplicated, unexpected, not finite, or differs in any channel by more
  * than the test suites' tolerance (1e-6 relative). Values above 2^53 are
  * counted as inexact; they are not failures.
  */
final class Check {
  var rows = 0L
  var failed = 0L
  var inexact = 0L

  private val Exact = math.pow(2, 53)

  private def close(u: Double, v: Double): Boolean =
    u == v || math.abs(u - v) <= 1e-6 * math.max(1.0, math.max(math.abs(u), math.abs(v)))

  private def finite(x: Double) = !x.isNaN && !x.isInfinite

  private def paneOk(a: PaneAgg): Boolean =
    finite(a.c) && finite(a.n) && finite(a.s) &&
      !a.mn.isNaN && a.mn != Double.NegativeInfinity &&
      !a.mx.isNaN && a.mx != Double.PositiveInfinity

  private def sameAgg(a: PaneAgg, b: PaneAgg): Boolean =
    close(a.c, b.c) && close(a.n, b.n) && close(a.s, b.s) && close(a.mn, b.mn) && close(a.mx, b.mx)

  private def big(x: Double) = math.abs(x) > Exact

  /** Generic one-for-one comparison of keyed rows. */
  private def compare[K, V](got: Iterable[(K, V)], want: Map[K, V])(ok: (V, V) => Boolean, isBig: V => Boolean): Unit = {
    val seen = mutable.HashMap.empty[K, Int]
    for ((k, v) <- got) {
      rows += 1
      val n = seen.getOrElse(k, 0) + 1
      seen(k) = n
      want.get(k) match {
        case Some(w) if n == 1 =>
          if (!ok(v, w)) failed += 1
          if (isBig(v)) inexact += 1
        case _ => failed += 1 // duplicate or unexpected
      }
    }
    val missing = want.keysIterator.count(k => !seen.contains(k))
    rows += missing
    failed += missing
  }

  def panes(got: Iterable[PaneResult], want: Map[(String, String, Long), PaneAgg]): Unit =
    compare(got.map(r => (r.queryId, r.grp, r.pane) -> PaneAgg(r.c, r.n, r.s, r.mn, r.mx)), want)(
      (g, w) => paneOk(g) && sameAgg(g, w),
      a => big(a.c) || big(a.n) || big(a.s))

  def windows(got: Iterable[WinRow], want: Map[(String, String, Long), (Long, Option[Double])]): Unit =
    compare(got.map(r => (r.queryId, r.grp, r.wi) -> (r.endPane, r.value)), want)(
      { case ((ge, gv), (we, wv)) =>
        ge == we && ((gv, wv) match {
          case (Some(a), Some(b)) => finite(a) && close(a, b)
          case (None, None)       => true
          case _                  => false
        })
      },
      _._2.exists(big))
}
