package repro.query

import org.scalatest.funsuite.AnyFunSuite

import repro.hamlet.{ChannelLayout, EnginePlan}
import repro.hamlet.ChannelSpec.{AttrSum, EventCount, TrendCount}

class WorkloadSpec extends AnyFunSuite {

  private def q(id: String, p: Pattern, agg: Agg = Agg.CountStar,
                w: QueryWindow = QueryWindow(4, 2)) =
    TrendQuery(id, p, agg, Nil, w)

  test("pane length is the gcd of all windows and slides (§3.1 example)") {
    assert(Workload.paneMinutes(Seq(
      q("a", Pattern.seq("B+"), w = QueryWindow(10, 5)),
      q("b", Pattern.seq("B+"), w = QueryWindow(15, 5)))) == 5)
  }

  test("pane gcd over a diverse workload") {
    assert(Workload.paneMinutes(Seq(
      q("a", Pattern.seq("B+"), w = QueryWindow(4, 2)),
      q("b", Pattern.seq("B+"), w = QueryWindow(12, 4)),
      q("c", Pattern.seq("B+"), w = QueryWindow(20, 4)))) == 2)
  }

  test("window/slide expressed in panes") {
    val wl = Workload.compile(Seq(
      q("a", Pattern.seq("B+"), w = QueryWindow(10, 5)),
      q("b", Pattern.seq("B+"), w = QueryWindow(15, 5))))
    assert(wl.paneMs == 5 * 60_000L)
    val (a, b) = (wl.queries.find(_.id == "a").get, wl.queries.find(_.id == "b").get)
    assert(a.windowPanes == 2 && a.slidePanes == 1)
    assert(b.windowPanes == 3)
  }

  test("Definition 4: Kleene sub-pattern shared by >1 query forms a set") {
    val wl = Workload.compile(Seq(
      q("q1", Pattern.seq("A", "B+")),
      q("q2", Pattern.seq("C", "B+")),
      q("q3", Pattern.seq("A", "D"))))
    assert(wl.sets.map(_.sharedType) == Vector("B"))
    assert(wl.sets.head.queries.map(_.id).toSet == Set("q1", "q2"))
    assert(wl.singletons.map(_.id) == Vector("q3"))
  }

  test("Definition 5: COUNT(*) does not share with SUM-family") {
    val wl = Workload.compile(Seq(
      q("q1", Pattern.seq("A", "B+"), Agg.CountStar),
      q("q2", Pattern.seq("C", "B+"), Agg.CountStar),
      q("q3", Pattern.seq("A", "B+"), Agg.Sum("B", "v")),
      q("q4", Pattern.seq("C", "B+"), Agg.Avg("B", "v")),
      q("q5", Pattern.seq("C", "B+"), Agg.CountE("B"))))
    assert(wl.sets.size == 2)
    val byClass = wl.sets.map(s => s.queries.map(_.id).toSet)
    assert(byClass.contains(Set("q1", "q2")))
    assert(byClass.contains(Set("q3", "q4", "q5"))) // AVG shares with SUM and COUNT(E)
  }

  test("MIN/MAX queries are never shared (documented narrowing of Def. 5)") {
    val wl = Workload.compile(Seq(
      q("q1", Pattern.seq("A", "B+"), Agg.Min("B", "v")),
      q("q2", Pattern.seq("C", "B+"), Agg.Min("B", "v"))))
    assert(wl.sets.isEmpty)
    assert(wl.singletons.size == 2)
  }

  test("queries without Kleene are singletons") {
    val wl = Workload.compile(Seq(
      q("q1", Pattern.seq("A", "B")),
      q("q2", Pattern.seq("A", "B+"))))
    assert(wl.singletons.map(_.id).toSet == Set("q1", "q2"))
  }

  test("channel union of a sum-family set") {
    val wl = Workload.compile(Seq(
      q("q3", Pattern.seq("A", "B+"), Agg.Sum("B", "v")),
      q("q4", Pattern.seq("C", "B+"), Agg.Avg("B", "w")),
      q("q5", Pattern.seq("C", "B+"), Agg.CountE("B"))))
    assert(new ChannelLayout(wl.sets.head.queries, wl.types).specs ==
      Vector(TrendCount, EventCount("B"), AttrSum("B", "v"), AttrSum("B", "w")))
  }

  test("duplicate query ids are rejected") {
    intercept[IllegalArgumentException](Workload.compile(Seq(
      q("q1", Pattern.seq("B+")), q("q1", Pattern.seq("B+")))))
  }

  test("an empty workload is rejected with a clear message") {
    val e = intercept[IllegalArgumentException](Workload.compile(Nil))
    assert(e.getMessage.contains("at least one query"))
  }

  test("type universe of a set includes negated types") {
    val wl = Workload.compile(Seq(
      q("q1", PSeq(List(PEvent("A"), PKleene(PEvent("B")), PNot("P")))),
      q("q2", Pattern.seq("C", "B+"))))
    val set = wl.sets.head
    assert(new EnginePlan(set.queries, Some(set.sharedType)).universeMask ==
      wl.types.mask(Set("A", "B", "C", "P")))
  }

  test("channel layouts cover every aggregate") {
    def layout(wl: CompiledWorkload) = new ChannelLayout(wl.queries, wl.types).specs
    def channels(agg: Agg) = layout(Workload.compile(Seq(q("a", Pattern.seq("A", "B+"), agg))))
    assert(channels(Agg.CountStar) == Vector(TrendCount))
    assert(channels(Agg.CountE("B")) == Vector(TrendCount, EventCount("B")))
    assert(channels(Agg.Sum("B", "v")) == Vector(TrendCount, AttrSum("B", "v")))
    assert(channels(Agg.Avg("B", "v")) == Vector(TrendCount, EventCount("B"), AttrSum("B", "v")))
    assert(channels(Agg.Min("B", "v")) == Vector(TrendCount))
    // Counts of two types are two channels.
    assert(layout(Workload.compile(Seq(
      q("a", Pattern.seq("A", "B+"), Agg.CountE("B")),
      q("b", Pattern.seq("A", "B+"), Agg.CountE("A"))))) ==
      Vector(TrendCount, EventCount("A"), EventCount("B")))
  }

  test("an unknown comparison op is rejected when the predicate is built") {
    Seq(() => NumPred("B", "v", "=>", 1.0), () => EdgePred("v", "=>")).foreach { build =>
      val e = intercept[IllegalArgumentException](build())
      assert(e.getMessage.contains("=>"))
    }
    NumPred.Ops.foreach { op => NumPred("B", "v", op, 1.0); EdgePred("v", op) }
  }

  test("MIN/MAX with mid-pattern negation is rejected when the workload compiles") {
    Seq(Agg.Min("B", "v"), Agg.Max("B", "v")).foreach { agg =>
      val e = intercept[IllegalArgumentException](Workload.compile(Seq(
        q("ok", Pattern.seq("A", "B+")),
        q("mm", Pattern.seq("A", "!C", "B+"), agg))))
      assert(e.getMessage.contains("mm: MIN/MAX with mid-pattern negation"))
    }
    // Trailing negation and mid-pattern negation under other aggregates stay supported.
    Workload.compile(Seq(q("mm", Pattern.seq("A", "B+", "!C"), Agg.Max("B", "v"))))
    Workload.compile(Seq(q("s", Pattern.seq("A", "!C", "B+"), Agg.Sum("B", "v"))))
  }

  test("an edge predicate with a barrier from a type to itself is rejected with a clear message") {
    val rising = Some(EdgePred("v", "<"))
    val e = intercept[IllegalArgumentException](Workload.compile(Seq(
      q("ok", Pattern.seq("A", "B+")),
      q("self", Pattern.seq("B+", "!C", "B+")).copy(edgePred = rising))))
    assert(e.getMessage.contains("self: an edge predicate with a negation barrier from a type to itself"))
    // The same barrier without an edge predicate, and an edge predicate with
    // a barrier between two other types, stay supported.
    Workload.compile(Seq(q("self", Pattern.seq("B+", "!C", "B+"))))
    Workload.compile(Seq(q("e", Pattern.seq("A", "!C", "B+")).copy(edgePred = rising)))
  }

  test("type ids, type masks and predecessor masks are resolved at compile time") {
    val wl = Workload.compile(Seq(
      q("q1", Pattern.seq("A", "B+")),
      q("q2", Pattern.seq("C", "!D", "B+"))))
    val ids = wl.types
    assert(ids.names == Vector("A", "B", "C", "D"))
    assert(ids.of("Z") == -1)
    val q1 = wl.queries.find(_.id == "q1").get
    val q2 = wl.queries.find(_.id == "q2").get
    assert(q1.predMask(ids.of("B")) == ids.mask(Set("A", "B")))
    assert(q1.predMask(ids.of("A")) == 0L)
    assert(q2.universeMask == ids.mask(Set("B", "C", "D")))
    assert(q2.startMask == ids.mask(Set("C")) && q2.endMask == ids.mask(Set("B")))
    assert(q2.negTid.toSeq == Seq(ids.of("D")))
    assert(q2.negFrom.toSeq == Seq(ids.mask(Set("C"))) && q2.negTo.toSeq == Seq(ids.mask(Set("B"))))
  }
}
