package repro.events

/** A single stream event.
  *
  * @param id   unique per stream; breaks ties in stream order. Engines
  *             use only stream order, never the id; the SQL oracle orders
  *             paths by id, so it needs ids that rise in stream order
  * @param ts   event time in milliseconds (in-order arrival is assumed,
  *             as in the paper)
  * @param typ  event type, e.g. "T" for Travel
  * @param grp  value of the grouping attribute (streams are partitioned
  *             by it before any engine sees the events)
  * @param num  numeric attributes (speed, duration, price, ...)
  * @param str  string attributes (request type, ...)
  */
final case class Event(
    id: Long,
    ts: Long,
    typ: String,
    grp: String,
    num: Map[String, Double] = Map.empty,
    str: Map[String, String] = Map.empty,
) {
  /** Pane index for a given pane length (trends are pane-scoped). */
  def pane(paneMs: Long): Long = ts / paneMs
}

object Event {
  /** Stream order: event time, then id. */
  val streamOrder: Ordering[Event] = Ordering.by[Event, Long](_.ts).orElseBy(_.id)
}
