package repro.query

/** Barrier derived from a mid-pattern negation `SEQ(P1, NOT N, P2)`:
  * a match of `N` at time τ forbids edges from events of `fromTypes`
  * (last types of P1) before τ to events of `toTypes` (first types of P2)
  * after τ.
  */
final case class NegBarrier(negType: String, fromTypes: Set[String], toTypes: Set[String])

/** FSA-based query template (§3.1, Figure 3(a)).
  *
  * States are event types; a transition (E1, E2) means events of type E1
  * precede events of type E2 in a trend — E1 is a *predecessor type* of E2.
  *
  * @param queryId       owning query
  * @param types         positive event types of the pattern
  * @param startTypes    types that start trends (no ingoing edge need)
  * @param endTypes      types that end trends (double rectangles)
  * @param transitions   predecessor relation as (from, to) pairs
  * @param midNegs       barriers from mid-pattern negation
  * @param trailingNegs  types whose match invalidates all trends ended so
  *                      far (pattern-final `NOT N`)
  */
final case class Template(
    queryId: String,
    types: Set[String],
    startTypes: Set[String],
    endTypes: Set[String],
    transitions: Set[(String, String)],
    midNegs: Seq[NegBarrier],
    trailingNegs: Set[String],
) {
  private lazy val predTypesOf: Map[String, Set[String]] = transitions.groupMap(_._2)(_._1)

  /** Predecessor types pt(E, q) (Example 2). */
  def predTypes(t: String): Set[String] = predTypesOf.getOrElse(t, Set.empty)

  /** All types relevant to burst/graphlet boundaries: positive + negated. */
  def typeUniverse: Set[String] = types ++ midNegs.map(_.negType) ++ trailingNegs
}

object Template {

  private def firstTypes(p: Pattern): Set[String] = p match {
    case PEvent(t)   => Set(t)
    case PKleene(i)  => firstTypes(i)
    case PSeq(items) =>
      items.collectFirst { case i if !i.isInstanceOf[PNot] => firstTypes(i) }
        .getOrElse(Set.empty)
    case PNot(_)     => Set.empty
  }

  private def lastTypes(p: Pattern): Set[String] = p match {
    case PEvent(t)   => Set(t)
    case PKleene(i)  => lastTypes(i)
    case PSeq(items) =>
      items.reverse.collectFirst { case i if !i.isInstanceOf[PNot] => lastTypes(i) }
        .getOrElse(Set.empty)
    case PNot(_)     => Set.empty
  }

  private def transitionsOf(p: Pattern): Set[(String, String)] = p match {
    case PEvent(_)  => Set.empty
    case PKleene(i) =>
      // The loop of the Kleene plus: last types connect back to first types
      // (also yields nested-Kleene loops as in Figure 8 / Example 10).
      transitionsOf(i) ++ (for (l <- lastTypes(i); f <- firstTypes(i)) yield (l, f))
    case PSeq(items) =>
      val pos = items.filterNot(_.isInstanceOf[PNot])
      val inner = pos.flatMap(transitionsOf).toSet
      val joins = pos.sliding(2).collect {
        case List(a, b) => for (l <- lastTypes(a); f <- firstTypes(b)) yield (l, f)
      }.flatten.toSet
      inner ++ joins
    case PNot(_)    => Set.empty
  }

  /** Compile a query's pattern into its template (state-of-the-art
    * FSA translation [33], §3.1).
    */
  def compile(q: TrendQuery): Template = {
    val p = q.pattern
    val (midNegs, trailingNegs) = p match {
      case PSeq(items) =>
        val mids = items.zipWithIndex.collect {
          case (PNot(n), i) if items.drop(i + 1).exists(!_.isInstanceOf[PNot]) =>
            val before = PSeq(items.take(i))
            val after  = PSeq(items.drop(i + 1))
            NegBarrier(n, lastTypes(before), firstTypes(after))
        }
        val trail = items.zipWithIndex.collect {
          case (PNot(n), i) if items.drop(i + 1).forall(_.isInstanceOf[PNot]) => n
        }.toSet
        (mids, trail)
      case _ => (Nil, Set.empty[String])
    }
    require(firstTypes(p).nonEmpty, s"pattern of ${q.id} has no positive start")
    Template(
      queryId = q.id,
      types = p.types,
      startTypes = firstTypes(p),
      endTypes = lastTypes(p),
      transitions = transitionsOf(p),
      midNegs = midNegs,
      trailingNegs = trailingNegs,
    )
  }
}
