package repro.query

/** Dense ids of the event types a workload references (positive and
  * negated), in name order. Engines index their per-type state by these ids
  * and hold type sets as `Long` bit sets, so a workload may reference at
  * most 64 types.
  */
final case class TypeIds(names: Vector[String]) {
  require(names.size <= 64, s"${names.size} event types; bit-set masks hold at most 64")
  private val index: Map[String, Int] = names.zipWithIndex.toMap

  def size: Int = names.size
  /** Id of type `t`, or -1 when no query references it. */
  def of(t: String): Int = index.getOrElse(t, -1)
  def mask(ts: Iterable[String]): Long = ts.foldLeft(0L)((m, t) => m | (1L << index(t)))
}

object TypeIds {
  @inline def has(mask: Long, id: Int): Boolean = ((mask >>> id) & 1L) != 0L
}

/** A query compiled against a workload: its template plus pane geometry
  * (window/slide expressed in panes of the workload-wide gcd pane), and the
  * template resolved to the workload's type ids so that per-event work needs
  * no name lookups.
  */
final case class CompiledQuery(
    q: TrendQuery,
    tpl: Template,
    windowPanes: Int,
    slidePanes: Int,
    types: TypeIds,
) {
  def id: String = q.id

  val typesMask: Long    = types.mask(tpl.types)
  val startMask: Long    = types.mask(tpl.startTypes)
  val endMask: Long      = types.mask(tpl.endTypes)
  val trailingMask: Long = types.mask(tpl.trailingNegs)
  val universeMask: Long = types.mask(tpl.typeUniverse)
  /** pt(E, q) as a bit set, indexed by the id of E. */
  val predMask: Array[Long] = Array.tabulate(types.size)(t => types.mask(tpl.predTypes(types.names(t))))
  /** Mid-pattern negation barriers, one entry per `tpl.midNegs` element. */
  val negTid: Array[Int]    = tpl.midNegs.map(nb => types.of(nb.negType)).toArray
  val negFrom: Array[Long]  = tpl.midNegs.map(nb => types.mask(nb.fromTypes)).toArray
  val negTo: Array[Long]    = tpl.midNegs.map(nb => types.mask(nb.toTypes)).toArray
  /** For MIN/MAX: the id of the aggregated type (-1: not MIN/MAX) and the attribute. */
  val (minMaxTid, minMaxAttr) = q.agg match {
    case Agg.Min(t, a) => (types.of(t), a)
    case Agg.Max(t, a) => (types.of(t), a)
    case _             => (-1, null: String)
  }
}

/** A set of queries sharing one Kleene sub-pattern E+ (Definitions 4/5).
  *
  * @param sharedType the Kleene type E
  * @param queries    members Q_E (|Q_E| > 1)
  */
final case class SharableSet(sharedType: String, queries: Vector[CompiledQuery])

/** Compiled workload: sharable sets + queries processed alone. */
final case class CompiledWorkload(
    paneMs: Long,
    types: TypeIds,
    queries: Vector[CompiledQuery],
    sets: Vector[SharableSet],
) {
  /** The queries in no sharable set, in workload order. */
  val singletons: Vector[CompiledQuery] = {
    val inSets = sets.flatMap(_.queries.map(_.id)).toSet
    queries.filterNot(q => inSets(q.id))
  }
}

/** Workload analysis (§3.1): pane computation and sharable-set discovery. */
object Workload {

  private def gcd(a: Int, b: Int): Int = if (b == 0) a else gcd(b, a % b)

  /** Pane length = gcd of all window sizes and slides (in minutes). */
  def paneMinutes(qs: Seq[TrendQuery]): Int =
    qs.flatMap(q => Seq(q.window.windowMin, q.window.slideMin)).reduce(gcd)

  /** Compile a workload: templates, pane gcd, and sharable sets.
    *
    * Two queries are sharable (Def. 5) if they hold the same Kleene
    * sub-pattern E+, their aggregation share-classes match, their windows
    * overlap (always true for sliding windows over one stream), and their
    * grouping attributes are equal (always true: every query groups by the
    * stream key `Event.grp`). A query that negates its own Kleene type
    * E is never shared: a shared graphlet of E cannot apply that query's
    * own barrier or reset (documented narrowing of Def. 5, like MIN/MAX).
    */
  def compile(qs: Seq[TrendQuery]): CompiledWorkload = {
    require(qs.nonEmpty, "a workload needs at least one query")
    require(qs.map(_.id).distinct.size == qs.size, "duplicate query ids")
    val paneMin = paneMinutes(qs)
    val paneMs  = paneMin * 60_000L
    val templates = qs.map(q => q -> Template.compile(q))
    templates.foreach { case (q, tpl) =>
      q.agg match {
        case Agg.Min(_, _) | Agg.Max(_, _) =>
          require(tpl.midNegs.isEmpty, s"${q.id}: MIN/MAX with mid-pattern negation is unsupported (DESIGN.md)")
        case _ =>
      }
      require(q.edgePred.isEmpty || tpl.midNegs.forall(nb => nb.fromTypes.intersect(nb.toTypes).isEmpty),
        s"${q.id}: an edge predicate with a negation barrier from a type to itself is unsupported (DESIGN.md)")
    }
    val types = TypeIds(templates.flatMap(_._2.typeUniverse).distinct.sorted.toVector)
    val compiled = templates.toVector.map { case (q, tpl) =>
      CompiledQuery(q, tpl,
        windowPanes = q.window.windowMin / paneMin,
        slidePanes  = q.window.slideMin / paneMin,
        types = types)
    }
    val sharable = compiled
      .flatMap { cq =>
        for {
          e   <- cq.q.pattern.kleeneTypes.headOption // one Kleene per query (§3 assumption)
          if !cq.tpl.trailingNegs(e) && !cq.tpl.midNegs.exists(_.negType == e)
          cls <- Agg.shareClass(cq.q.agg)
        } yield (e, cls) -> cq
      }
      .groupMap(_._1)(_._2)
      .collect { case ((e, _), members) if members.size > 1 => SharableSet(e, members) }
      .toVector
      .sortBy(set => (set.sharedType, compiled.indexOf(set.queries.head))) // not hash order
    CompiledWorkload(paneMs, types, compiled, sharable)
  }
}
