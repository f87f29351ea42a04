package repro.events

import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** Synthetic event streams standing in for the paper's four data sets
  * (§6.1); see DESIGN.md for the substitution table. All generators are
  * deterministic in (parameters, seed) and return events sorted by time
  * with unique monotone ids.
  *
  * Each stream is a sequence of sessions (a trip, a trading session, a
  * load cycle) in one group, each opened at a uniform start time and
  * carrying an exponential burst of Kleene events. Settings no caller
  * varies are fixed constants of the generator that uses them:
  * ridesharing's half Pool requests, half slow (speed < 10) travel events
  * and 5% noise events; the stock stream's mean burst of 60 ticks (at most
  * 150) and 2-minute volume regimes; a mean burst of 8 travel events for
  * the taxi stream and of 10 measurements for the smart-home stream.
  */
object StreamGen {

  /** Noise types beyond the queried ones, so streams carry ~20 types as in
    * the paper's ridesharing generator.
    */
  private val NoiseTypes = Vector("N01", "N02", "N03", "N04", "N05", "N06",
    "N07", "N08", "N09", "N10", "N11", "N12", "N13", "N14")

  /** Length of one stock volume regime. */
  private val RegimeMs = 2 * 60_000L

  /** The session loop every generator shares: `run` draws sessions from
    * one `Random` until `minutes × eventsPerMin` events are emitted, then
    * sorts them in stream order and renumbers the ids.
    */
  private final class Gen(minutes: Int, eventsPerMin: Int, seed: Long) {
    val rnd = new Random(seed)
    private val buf = new ArrayBuffer[Event]()
    private val total = minutes.toLong * eventsPerMin
    private val horizon = minutes * 60_000L

    /** Emit an event; timestamps past the horizon are clamped to its end. */
    def emit(ts: Long, typ: String, grp: String, num: Map[String, Double],
             str: Map[String, String] = Map.empty): Unit =
      buf += Event(buf.size.toLong, math.min(ts, horizon - 1), typ, grp, num, str)

    /** A session's start time, uniform over all but the last minute. */
    def start(): Long = (rnd.nextDouble() * (horizon - 60_000)).toLong

    /** An exponential burst length of mean `mean`, in `[1, max]`. */
    def burst(mean: Double, max: Int): Int =
      math.min(math.max(1, (-mean * math.log(1 - rnd.nextDouble())).round.toInt), max)

    def run(session: => Unit): Vector[Event] = {
      while (buf.size < total) session
      buf.sorted(Event.streamOrder).toVector.zipWithIndex.map { case (e, i) => e.copy(id = i.toLong) }
    }
  }

  /** Ridesharing stream (paper's own generator, 10K ev/min default).
    *
    * Trips per group (driver+rider pair): `R` request, a burst of `T`
    * travel events (Kleene), then `D` dropoff, `C` cancel, `P` pickup or
    * nothing. Attributes: district, speed, duration, price; request type
    * Pool/Solo.
    *
    * @param minutes      stream length
    * @param eventsPerMin target rate (the paper's speed-up factor axis)
    * @param nGroups      concurrent driver+rider groups
    * @param meanKleene   mean number of T events per trip (burst length)
    * @param maxKleene    cap on the T events per trip
    */
  def ridesharing(
      minutes: Int,
      eventsPerMin: Int,
      nGroups: Int,
      meanKleene: Double = 6.0,
      maxKleene: Int = 18,
      seed: Long = 42L,
  ): Vector[Event] = {
    val g = new Gen(minutes, eventsPerMin, seed)
    import g.rnd
    g.run {
      val grp = s"g${rnd.nextInt(nGroups)}"
      val str = Map("district" -> s"d${rnd.nextInt(10)}",
        "rtype" -> (if (rnd.nextDouble() < 0.5) "Pool" else "Solo"))
      val t0 = g.start()
      g.emit(t0, "R", grp, Map("duration" -> 0.0), str)
      var ts = t0
      for (_ <- 0 until g.burst(meanKleene, maxKleene)) {
        ts += 500 + rnd.nextInt(2000)
        val speed = if (rnd.nextDouble() < 0.5) 2 + rnd.nextDouble() * 7 else 12 + rnd.nextDouble() * 40
        g.emit(ts, "T", grp,
          Map("speed" -> speed, "duration" -> (1 + rnd.nextDouble() * 5), "price" -> rnd.nextDouble() * 30), str)
      }
      val roll = rnd.nextDouble()
      val term = if (roll < 0.4) "D" else if (roll < 0.7) "C" else if (roll < 0.85) "P" else ""
      if (term.nonEmpty) g.emit(ts + 500 + rnd.nextInt(1000), term, grp, Map("duration" -> 0.0), str)
      if (rnd.nextDouble() < 0.05)
        g.emit(t0 + rnd.nextInt(5000), NoiseTypes(rnd.nextInt(NoiseTypes.size)), grp, Map.empty)
    }
  }

  /** Stock stream (EODData substitute, 4.5K ev/min default): per company
    * (group) sessions `O` open, `P+` price ticks, `S` settle; attributes
    * price, volume.
    *
    * The volume distribution alternates between a *calm regime* (all ticks
    * pass typical `volume > θ` predicates → no snapshot divergence, sharing
    * is beneficial) and a *scattered regime* (ticks straddle the
    * thresholds → heavy divergence → sharing harmful), flipping every two
    * minutes — the burstiness axis that separates the dynamic from the
    * static optimizer (Figures 12–13).
    */
  def stockLike(minutes: Int, eventsPerMin: Int, nCompanies: Int, seed: Long = 7L): Vector[Event] = {
    val g = new Gen(minutes, eventsPerMin, seed)
    import g.rnd
    g.run {
      val grp = s"c${rnd.nextInt(nCompanies)}"
      val t0 = g.start()
      g.emit(t0, "O", grp, Map("price" -> (50 + rnd.nextDouble() * 100)))
      var ts = t0
      for (_ <- 0 until g.burst(60.0, 150)) {
        ts += 50 + rnd.nextInt(200)
        // The regime is a property of the tick time, so long sessions
        // experience the flip mid-stream (what the dynamic optimizer reacts to).
        val vol =
          if ((ts / RegimeMs) % 2 == 1) rnd.nextDouble() * 100 // scattered: straddles thresholds
          else 60 + rnd.nextDouble() * 10                       // calm: above all thresholds
        g.emit(ts, "P", grp, Map("price" -> (50 + rnd.nextDouble() * 100), "volume" -> vol))
      }
      g.emit(ts + 100, "S", grp, Map("price" -> (50 + rnd.nextDouble() * 100)))
    }
  }

  /** NYC-taxi-like stream (200 ev/min default): few large district groups
    * → large per-window graphs, Greta's worst case (Figure 11 NYC).
    * Types: `R` request, `T+` travel, `D` dropoff.
    */
  def taxiLike(minutes: Int, eventsPerMin: Int, nDistricts: Int = 10, seed: Long = 11L): Vector[Event] = {
    val g = new Gen(minutes, eventsPerMin, seed)
    import g.rnd
    g.run {
      val grp = s"dist${rnd.nextInt(nDistricts)}"
      val t0 = g.start()
      g.emit(t0, "R", grp, Map("passengers" -> (1 + rnd.nextInt(4)).toDouble))
      var ts = t0
      for (_ <- 0 until g.burst(8.0, 60)) {
        ts += 1000 + rnd.nextInt(3000)
        g.emit(ts, "T", grp, Map("speed" -> (5 + rnd.nextDouble() * 50), "duration" -> (1 + rnd.nextDouble() * 4)))
      }
      g.emit(ts + 1000, "D", grp, Map("price" -> (5 + rnd.nextDouble() * 60)))
    }
  }

  /** Smart-home-like stream (DEBS'14 substitute, 20K ev/min default):
    * house+plug groups; `L` load start, `M+` measurements, `H` load end;
    * attribute voltage.
    */
  def smartHomeLike(minutes: Int, eventsPerMin: Int, nPlugs: Int = 100, seed: Long = 13L): Vector[Event] = {
    val g = new Gen(minutes, eventsPerMin, seed)
    import g.rnd
    g.run {
      val grp = s"plug${rnd.nextInt(nPlugs)}"
      val t0 = g.start()
      g.emit(t0, "L", grp, Map("voltage" -> (220 + rnd.nextDouble() * 20)))
      var ts = t0
      for (_ <- 0 until g.burst(10.0, 80)) {
        ts += 200 + rnd.nextInt(800)
        g.emit(ts, "M", grp, Map("voltage" -> (210 + rnd.nextDouble() * 30)))
      }
      g.emit(ts + 500, "H", grp, Map("voltage" -> (220 + rnd.nextDouble() * 20)))
    }
  }
}
