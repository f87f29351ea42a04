package repro.query

/** SASE-style Kleene pattern AST (Definition 1).
  *
  * The evaluated query class (assumptions of §3, relaxed in §5) is built
  * from event types, SEQ, Kleene plus, and NOT inside SEQ. §5's
  * disjunction and conjunction are not expressible (DESIGN.md, Known
  * deviations).
  */
sealed trait Pattern {
  /** All (positive) event types appearing in this pattern. */
  def types: Set[String] = this match {
    case PEvent(t)   => Set(t)
    case PKleene(p)  => p.types
    case PSeq(items) => items.flatMap(_.types).toSet
    case PNot(_)     => Set.empty
  }

  /** The event types under a Kleene plus applied to a single type (the
    * sharable-sub-pattern shape `E+` of Definition 4).
    */
  def kleeneTypes: Set[String] = this match {
    case PKleene(PEvent(t)) => Set(t)
    case PKleene(p)         => p.kleeneTypes
    case PSeq(items)        => items.flatMap(_.kleeneTypes).toSet
    case _                  => Set.empty
  }
}

/** A single event type. */
final case class PEvent(typ: String) extends Pattern

/** Kleene plus `P+`: one or more matches of the inner pattern. */
final case class PKleene(inner: Pattern) extends Pattern

/** Event sequence `SEQ(p1, ..., pn)`; items may include [[PNot]]. */
final case class PSeq(items: List[Pattern]) extends Pattern

/** Negated type, only valid as an item of a [[PSeq]]. */
final case class PNot(typ: String) extends Pattern

object Pattern {
  /** `SEQ(A, B+)` style helper: seq of atoms where a trailing '+' marks
    * Kleene, and a leading '!' marks negation — e.g. `seq("R", "T+", "!P")`.
    */
  def seq(items: String*): Pattern =
    PSeq(items.toList.map {
      case s if s.endsWith("+")   => PKleene(PEvent(s.dropRight(1)))
      case s if s.startsWith("!") => PNot(s.drop(1))
      case s                      => PEvent(s)
    })
}
