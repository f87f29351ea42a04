package repro.testkit

import scala.util.Random

import repro.events.Event
import repro.query._

/** Seeded random inputs for property-style tests: small single-group
  * event sequences and workloads drawn from the supported query class.
  */
object TestGen {

  /** Random single-group stream over types A/B/C/D with numeric attr "v". */
  def stream(rnd: Random, n: Int, types: Vector[String] = Vector("A", "B", "C", "D"),
             burstiness: Double = 0.6): Vector[Event] = {
    var typ = types(rnd.nextInt(types.size))
    (0 until n).toVector.map { i =>
      if (rnd.nextDouble() > burstiness) typ = types(rnd.nextInt(types.size))
      Event(i.toLong, i.toLong * 100, typ, "g", Map("v" -> (rnd.nextInt(100).toDouble)))
    }
  }

  /** Pool of query shapes over the A/B/C/D alphabet, all sharing B+. */
  def randomQuery(rnd: Random, id: String): TrendQuery = {
    val pat = rnd.nextInt(6) match {
      case 0 => Pattern.seq("A", "B+")
      case 1 => Pattern.seq("C", "B+")
      case 2 => Pattern.seq("A", "B+", "C")
      case 3 => Pattern.seq("B+")
      case 4 => Pattern.seq("A", "B+", "!D")   // trailing negation
      case _ => Pattern.seq("A", "!C", "B+")   // mid negation barrier A -x- B
    }
    val preds =
      if (rnd.nextBoolean()) Seq(NumPred("B", "v", ">", rnd.nextInt(80).toDouble))
      else Nil
    val edge = if (rnd.nextInt(4) == 0) Some(EdgePred("v", "<=")) else None
    TrendQuery(id, pat, Agg.CountStar, preds, QueryWindow(4, 2), edgePred = edge)
  }

  def randomWorkload(rnd: Random, k: Int): Vector[TrendQuery] =
    (0 until k).toVector.map(i => randomQuery(rnd, s"q$i"))
}
