package repro.hamlet

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite

import repro.events.Event
import repro.query._

/** Property: `MatchVector.fill` evaluates each distinct predicate once per
  * event through the plan's table, and every member's bit equals the
  * member's own conjunction evaluated directly, predicate by predicate.
  * The plans have members that share a predicate, two predicates on one
  * type, string predicates, predicates on types other than the event's,
  * members without predicates, members whose type universe lacks the
  * event's type, and more than 64 distinct predicates on one type.
  */
class MatchVectorPropertySpec extends AnyFunSuite {

  private val patterns = Vector(
    Pattern.seq("A", "B+"), Pattern.seq("C", "B+"), Pattern.seq("B+"),
    Pattern.seq("A", "B+", "!D"), Pattern.seq("C", "D+"))

  /** Thresholds from a small range, so members often share a predicate. */
  private def predGen(spread: Int): Gen[Pred] = Gen.frequency(
    4 -> Gen.zip(Gen.oneOf("<", "<=", ">", ">=", "=", "!="), Gen.choose(0, spread)).map {
      case (op, t) => NumPred("B", "v", op, t.toDouble)
    },
    2 -> Gen.choose(0, 9).map(t => NumPred("B", "w", ">", t.toDouble)),
    2 -> Gen.oneOf("x", "y").map(s => StrPred("B", "s", s)),
    2 -> Gen.choose(0, 99).map(t => NumPred("A", "v", "<", t.toDouble)),
    1 -> Gen.choose(0, 99).map(t => NumPred("D", "v", ">=", t.toDouble)),
  )

  private def queryGen(id: String, spread: Int): Gen[TrendQuery] =
    for {
      p <- Gen.oneOf(patterns)
      n <- Gen.frequency(1 -> 0, 3 -> 1, 2 -> 2, 1 -> 4)
      preds <- Gen.listOfN(n, predGen(spread))
    } yield TrendQuery(id, p, preds = preds, window = QueryWindow(4, 2))

  private val eventGen: Gen[Event] =
    for {
      typ <- Gen.oneOf("A", "B", "C", "D")
      v <- Gen.choose(0, 99)
      w <- Gen.option(Gen.choose(0, 9))
      s <- Gen.option(Gen.oneOf("x", "y", "z"))
    } yield Event(0, 0, typ, "g", Map("v" -> v.toDouble) ++ w.map("w" -> _.toDouble), s.map("s" -> _).toMap)

  /** Small plans with a few shared thresholds, and plans of up to 120
    * members drawing from 200 thresholds: often more than 64 distinct
    * predicates on B.
    */
  private val caseGen: Gen[(Vector[TrendQuery], Vector[Event])] =
    for {
      (k, spread) <- Gen.oneOf((5, 3), (120, 199))
      size <- Gen.choose(1, k)
      qs <- Gen.sequence[Vector[TrendQuery], TrendQuery]((0 until size).map(i => queryGen(s"q$i", spread)))
      events <- Gen.containerOfN[Vector, Event](30, eventGen)
    } yield (qs, events)

  /** Member bits of a filled vector against each member's own conjunction. */
  private def agrees(qs: Vector[TrendQuery], events: Vector[Event]): Boolean = {
    val plan = new EnginePlan(Workload.compile(qs).queries, None)
    val tids = events.map(e => plan.types.of(e.typ))
    val sel = events.indices.filter(tids(_) >= 0)
    val mv = new MatchVector(plan.k)
    mv.fill(plan, sel.size)(i => tids(sel(i)), i => events(sel(i)))
    sel.indices.forall { i =>
      val e = events(sel(i))
      plan.queries.indices.forall { q =>
        val cq = plan.queries(q)
        val direct = TypeIds.has(cq.universeMask, tids(sel(i))) && cq.q.preds.filter(_.typ == e.typ).forall(_.holds(e))
        mv(i, q) == direct
      }
    }
  }

  test("each member's bit equals its own predicates evaluated directly") {
    val prop = Prop.forAll(caseGen) { case (qs, events) => agrees(qs, events) }
    val res = Test.check(
      Test.Parameters.default.withMinSuccessfulTests(300).withInitialSeed(Seed(20210620L)), prop)
    assert(res.passed, Pretty.pretty(res, Pretty.Params(2)))
  }

  test("more than 64 distinct predicates on one type are all evaluated") {
    val qs = (0 until 70).toVector.map { i =>
      TrendQuery(s"q$i", Pattern.seq("A", "B+"), preds = Seq(NumPred("B", "v", ">", i.toDouble)),
        window = QueryWindow(4, 2))
    }
    val plan = new EnginePlan(Workload.compile(qs).queries, Some("B"))
    assert(plan.predsOn(plan.sharedTid).length == 70)
    val events = (0 until 100).toVector.map(v => Event(v.toLong, 0, "B", "g", Map("v" -> v.toDouble)))
    val mv = new MatchVector(plan.k)
    mv.fill(plan, events.size)(_ => plan.sharedTid, events)
    for (v <- events.indices; q <- qs.indices) assert(mv(v, q) == v > q, s"v = $v, q$q")
    assert(agrees(qs, events))
  }
}
