package repro.hamlet

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite

import scala.util.Random

import repro.core.PaneAgg
import repro.events.Event
import repro.query._
import repro.testkit.{Engines, TestGen}

/** Property: the sharing policy and the cost profile change the cost,
  * never the result. On random workloads (Kleene shapes, trailing and
  * mid-pattern negation, predicate thresholds, edge predicates, aggregates)
  * and random streams, `NeverShare`, `AlwaysShare` and `Dynamic()` under
  * both cost profiles and the Greta baseline (every query alone on its own
  * engine) agree on every `PaneAgg` channel, and on tiny inputs all of them,
  * the MCEP baseline, and the Sharon baseline on the queries it supports
  * agree with the brute-force enumerator. A variant draws negative `v`, so
  * SUM and AVG pass through values that fall.
  */
class PolicyAgreementPropertySpec extends AnyFunSuite {

  private val nested = PKleene(PSeq(List(PEvent("A"), PKleene(PEvent("B")))))

  private val shapes: Vector[(Pattern, Boolean)] = Vector( // (pattern, has mid-pattern negation)
    Pattern.seq("A", "B+") -> false,
    Pattern.seq("C", "B+") -> false,
    Pattern.seq("A", "B+", "C") -> false,
    Pattern.seq("B+") -> false,
    Pattern.seq("B+", "D") -> false,
    nested -> false,
    Pattern.seq("A", "B+", "!D") -> false,
    Pattern.seq("C", "B+", "!A") -> false,
    Pattern.seq("A", "!C", "B+") -> true,
    Pattern.seq("A", "B+", "!C", "D") -> true,
    // A query that negates its own Kleene type: never shared (DESIGN.md),
    // and a trailing NOT B resets before the B joins a trend.
    Pattern.seq("A", "!B", "B+") -> true,
    Pattern.seq("A", "B+", "!B") -> false,
  )

  private val aggs: Vector[Agg] = Vector(Agg.CountStar, Agg.CountE("B"), Agg.Sum("B", "v"),
    Agg.Avg("B", "v"), Agg.Min("B", "v"), Agg.Max("B", "v"))

  private val rising = EdgePred("v", "<=")

  private def queryGen(id: String): Gen[TrendQuery] =
    for {
      (pattern, midNeg) <- Gen.oneOf(shapes)
      agg <- Gen.oneOf(if (midNeg) aggs.take(4) else aggs) // MIN/MAX + mid negation is rejected
      // Mostly COUNT(*) so that sets form; the rest mixes the other classes.
      agg2 <- Gen.frequency(3 -> Agg.CountStar, 2 -> agg)
      bPred <- Gen.option(Gen.zip(Gen.oneOf(">", "<=", "!="), Gen.choose(0, 99)))
      aPred <- Gen.option(Gen.choose(0, 99))
      edge <- Gen.frequency(4 -> false, 1 -> true)
    } yield TrendQuery(id, pattern, agg2,
      preds = bPred.map { case (op, t) => NumPred("B", "v", op, t.toDouble) }.toSeq ++
        aPred.map(t => NumPred("A", "v", ">", t.toDouble)).toSeq,
      window = QueryWindow(4, 2),
      edgePred = if (edge) Some(rising) else None)

  private def caseGen(maxEvents: Int): Gen[(Vector[TrendQuery], Vector[Event])] =
    for {
      k <- Gen.choose(2, 5)
      qs <- Gen.sequence[Vector[TrendQuery], TrendQuery]((0 until k).map(i => queryGen(s"q$i")))
      n <- Gen.choose(1, maxEvents)
      seed <- Gen.long
      burstiness <- Gen.oneOf(0.3, 0.6, 0.9)
    } yield (qs, TestGen.stream(new Random(seed), n, burstiness = burstiness))

  /** `caseGen` with every `v` moved down by 50, to -50 until 50. */
  private def signedCaseGen(maxEvents: Int): Gen[(Vector[TrendQuery], Vector[Event])] =
    caseGen(maxEvents).map { case (qs, events) =>
      (qs, events.map(e => e.copy(num = e.num.map { case (a, x) => a -> (x - 50) })))
    }

  private val engines: Seq[(String, (Seq[TrendQuery], Seq[Event]) => Map[String, PaneAgg])] = Seq(
    "never" -> (Engines.hamlet(_, _, NeverShare)),
    "always" -> (Engines.hamlet(_, _, AlwaysShare)),
    "dynamic" -> (Engines.hamlet(_, _, Dynamic())),
    "never-sums" -> (Engines.hamlet(_, _, NeverShare, profile = RunningSums)),
    "always-sums" -> (Engines.hamlet(_, _, AlwaysShare, profile = RunningSums)),
    "dynamic-sums" -> (Engines.hamlet(_, _, Dynamic(), profile = RunningSums)),
    "greta" -> (Engines.greta(_, _)))

  private def check(prop: Prop, runs: Int): Unit = {
    val res = Test.check(
      Test.Parameters.default.withMinSuccessfulTests(runs).withInitialSeed(Seed(20210620L)), prop)
    assert(res.passed, Pretty.pretty(res, Pretty.Params(2)))
  }

  private def allAgree(gen: Gen[(Vector[TrendQuery], Vector[Event])]): Prop =
    Prop.forAll(gen) { case (qs, events) =>
      val never = engines.head._2(qs, events)
      engines.tail.foreach { case (name, run) =>
        Engines.assertSame(run(qs, events), never, s"$name vs never, $qs")
      }
      true
    }

  test("every policy gives the same channels (c, n, s, mn, mx)") {
    check(allAgree(caseGen(40)), runs = 300)
  }

  test("with negative v every policy gives the same channels") {
    check(allAgree(signedCaseGen(40)), runs = 300)
  }

  /** Sharon flattens one `E+` into prefix counts: no nested Kleene, no
    * edge predicate, no MIN/MAX.
    */
  private def sharonSupports(q: TrendQuery): Boolean = q.pattern != nested && q.edgePred.isEmpty &&
    (q.agg match { case Agg.Min(_, _) | Agg.Max(_, _) => false; case _ => true })

  private def equalsBrute(gen: Gen[(Vector[TrendQuery], Vector[Event])]): Prop =
    Prop.forAll(gen) { case (qs, events) =>
      val expected = Engines.brute(qs, events)
      (engines :+ ("mcep" -> (Engines.mcep(_, _)))).foreach { case (name, run) =>
        Engines.assertSame(run(qs, events), expected, s"$name vs brute force, $qs")
      }
      val flat = qs.filter(sharonSupports)
      if (flat.nonEmpty)
        Engines.assertSame(Engines.sharon(flat, events), expected.filter { case (id, _) => flat.exists(_.id == id) },
          s"sharon vs brute force, $flat")
      true
    }

  test("on tiny inputs every policy equals brute force") {
    check(equalsBrute(caseGen(12)), runs = 300)
  }

  test("on tiny inputs with negative v every policy equals brute force") {
    check(equalsBrute(signedCaseGen(12)), runs = 300)
  }
}
