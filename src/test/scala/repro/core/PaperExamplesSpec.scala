package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.events.Event
import repro.hamlet._
import repro.metrics.Metrics
import repro.query._

/** Pins the paper's worked examples to the digit: Example 4 (counts of
  * b3), Table 3 (x·2^i propagation), Table 4 (snapshot values x, y),
  * Table 5 (event-level snapshot z), and the snapshot counts of §3.3.
  */
class PaperExamplesSpec extends AnyFunSuite {

  private val q1 = TrendQuery("q1", Pattern.seq("A", "B+"), window = QueryWindow(4, 2))
  private val q2 = TrendQuery("q2", Pattern.seq("C", "B+"), window = QueryWindow(4, 2))

  private def ev(id: Long, typ: String): Event = Event(id, id * 10, typ, "g")

  /** Figure 4(b) stream: A1={a1,a2}, C2={c1}, B3={b3..b6},
    * A4={a7,a8}, C5={c9,c10,c11}, B6={b12,...}. The B events carry `v`:
    * 1, 3, 2, 4 for b3..b6 and 5, 6, ... from b12 on, so a rising `v`
    * fails exactly one B-to-B edge, (b4, b5).
    */
  private def figure4(b6Size: Int): Vector[Event] = {
    val pre = Vector("A", "A", "C", "B", "B", "B", "B", "A", "A", "C", "C", "C")
    def v(i: Int): Double = if (i < 12) Vector(1.0, 3.0, 2.0, 4.0)(i - 3) else (i - 7).toDouble
    (pre ++ Vector.fill(b6Size)("B")).zipWithIndex.map {
      case ("B", i) => ev(i.toLong, "B").copy(num = Map("v" -> v(i)))
      case (t, i)   => ev(i.toLong, t)
    }
  }

  private def run(qs: Seq[TrendQuery], events: Seq[Event], policy: SharingPolicy)
      : (Map[String, PaneAgg], Metrics) = {
    val wl = Workload.compile(qs)
    val m = new Metrics
    val aggs = new HamletExecutor(wl, policy).processPaneAggs(events, m)
    (aggs, m)
  }

  test("Example 4: count(b3, q1) = 2 and count(b3, q2) = 1") {
    val events = Vector(ev(0, "A"), ev(1, "A"), ev(2, "C"), ev(3, "B"))
    for (policy <- Seq(NeverShare, AlwaysShare, Dynamic())) {
      val (aggs, _) = run(Seq(q1, q2), events, policy)
      assert(aggs("q1").c == 2.0, s"$policy")
      assert(aggs("q2").c == 1.0, s"$policy")
    }
  }

  test("Table 3: shared propagation doubles — counts x, 2x, 4x, 8x over B3") {
    // Final count after B3 = 15x with x = 2 for q1, x = 1 for q2.
    val events = figure4(0).take(7) // A A C B B B B
    val (aggs, _) = run(Seq(q1, q2), events, AlwaysShare)
    assert(aggs("q1").c == 30.0) // 15 * 2
    assert(aggs("q2").c == 15.0) // 15 * 1
  }

  test("Table 4: snapshot values x=(2,1), y=(34,19); final counts follow") {
    val events = figure4(b6Size = 2)
    val (aggs, m) = run(Seq(q1, q2), events, AlwaysShare)
    // B6 counts per query: y, 2y => 3y; y(q1)=34, y(q2)=19.
    assert(aggs("q1").c == 30.0 + 3 * 34.0)
    assert(aggs("q2").c == 15.0 + 3 * 19.0)
    // Exactly two graphlet-level snapshots (x for B3, y for B6), no
    // event-level ones: the queries have no predicates.
    assert(m.snapshotsCreated == 2)
    assert(m.sharedGraphlets == 2)
  }

  test("Table 5: edge predicate for q2 creates event-level snapshot z=(8,2)") {
    // q2 requires a rising v: edge (b4, b5) holds for q1 but not q2.
    val q2e = q2.copy(edgePred = Some(EdgePred("v", "<")))
    // Counts in B3 for q1: x,2x,z,4x+z = 2,4,8,16 (sum 30)
    //               for q2: 1,2,2,6 (sum 11)
    val (aggs, m) = run(Seq(q1, q2e), figure4(0).take(7), AlwaysShare)
    assert(aggs("q1").c == 30.0)
    assert(aggs("q2").c == 11.0)
    assert(m.snapshotsCreated == 2) // x and z

    // With A4, C5 and one B6 event: y = (34, 15) per Table 5.
    val (aggs2, m2) = run(Seq(q1, q2e), figure4(b6Size = 1), AlwaysShare)
    assert(aggs2("q1").c == 30.0 + 34.0)
    assert(aggs2("q2").c == 11.0 + 15.0)
    assert(m2.snapshotsCreated == 3) // x, z, y
  }

  test("shared and non-shared strategies agree on Figure 4 for all policies") {
    val events = figure4(b6Size = 3)
    val (never, _) = run(Seq(q1, q2), events, NeverShare)
    for (policy <- Seq(AlwaysShare, Dynamic(), Dynamic(Eq7Model))) {
      val (aggs, _) = run(Seq(q1, q2), events, policy)
      assert(aggs == never, s"$policy")
    }
  }

  test("non-shared execution creates no snapshots") {
    val (_, m) = run(Seq(q1, q2), figure4(2), NeverShare)
    assert(m.snapshotsCreated == 0)
    assert(m.sharedGraphlets == 0)
  }
}
