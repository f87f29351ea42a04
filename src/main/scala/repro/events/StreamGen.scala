package repro.events

import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** Synthetic event streams standing in for the paper's four data sets
  * (§6.1); see DESIGN.md for the substitution table. All generators are
  * deterministic in (parameters, seed) and return events sorted by time
  * with unique monotone ids.
  */
object StreamGen {

  /** Noise types beyond the queried ones, so streams carry ~20 types as in
    * the paper's ridesharing generator.
    */
  private val NoiseTypes = Vector("N01", "N02", "N03", "N04", "N05", "N06",
    "N07", "N08", "N09", "N10", "N11", "N12", "N13", "N14")

  private def finalize(buf: ArrayBuffer[Event]): Vector[Event] = {
    val sorted = buf.sorted(Event.streamOrder).toVector
    sorted.zipWithIndex.map { case (e, i) => e.copy(id = i.toLong) }
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
    * @param poolFrac     fraction of Pool requests (drives q2-style predicates)
    * @param slowFrac     fraction of slow travel events (speed < 10)
    */
  def ridesharing(
      minutes: Int,
      eventsPerMin: Int,
      nGroups: Int,
      meanKleene: Double = 6.0,
      maxKleene: Int = 18,
      poolFrac: Double = 0.5,
      slowFrac: Double = 0.5,
      noiseFrac: Double = 0.05,
      seed: Long = 42L,
  ): Vector[Event] = {
    val rnd = new Random(seed)
    val buf = new ArrayBuffer[Event]()
    val total = minutes.toLong * eventsPerMin
    val horizon = minutes * 60_000L
    var id = 0L
    def emit(ts: Long, typ: String, grp: String,
             num: Map[String, Double], str: Map[String, String]): Unit = {
      buf += Event(id, math.min(ts, horizon - 1), typ, grp, num, str); id += 1
    }
    while (id < total) {
      // One trip: R, T+, then terminal D / C / (none: not picked up).
      val grp = s"g${rnd.nextInt(nGroups)}"
      val district = s"d${rnd.nextInt(10)}"
      val rtype = if (rnd.nextDouble() < poolFrac) "Pool" else "Solo"
      val t0 = (rnd.nextDouble() * (horizon - 60_000)).toLong
      emit(t0, "R", grp, Map("duration" -> 0.0), Map("district" -> district, "rtype" -> rtype))
      val len = math.max(1, (-meanKleene * math.log(1 - rnd.nextDouble())).round.toInt)
      var ts = t0
      for (_ <- 0 until math.min(len, maxKleene)) {
        ts += 500 + rnd.nextInt(2000)
        val speed = if (rnd.nextDouble() < slowFrac) 2 + rnd.nextDouble() * 7 else 12 + rnd.nextDouble() * 40
        emit(ts, "T", grp,
          Map("speed" -> speed, "duration" -> (1 + rnd.nextDouble() * 5), "price" -> rnd.nextDouble() * 30),
          Map("district" -> district, "rtype" -> rtype))
      }
      val roll = rnd.nextDouble()
      val term = if (roll < 0.4) Some("D") else if (roll < 0.7) Some("C") else if (roll < 0.85) Some("P") else None
      term.foreach { ty =>
        emit(ts + 500 + rnd.nextInt(1000), ty, grp, Map("duration" -> 0.0),
          Map("district" -> district, "rtype" -> rtype))
      }
      if (rnd.nextDouble() < noiseFrac)
        emit(t0 + rnd.nextInt(5000), NoiseTypes(rnd.nextInt(NoiseTypes.size)), grp, Map.empty, Map.empty)
    }
    finalize(buf)
  }

  /** Stock stream (EODData substitute, 4.5K ev/min default): per company
    * (group) sessions `O` open, `P+` price ticks, `S` settle; attributes
    * price, volume.
    *
    * The volume distribution alternates between a *calm regime* (all ticks
    * pass typical `volume > θ` predicates → no snapshot divergence, sharing
    * is beneficial) and a *scattered regime* (ticks straddle the
    * thresholds → heavy divergence → sharing harmful). `regimeMinutes`
    * controls how often it flips — this is the burstiness axis that
    * separates the dynamic from the static optimizer (Figures 12–13).
    */
  def stockLike(
      minutes: Int,
      eventsPerMin: Int,
      nCompanies: Int,
      meanBurst: Double = 60.0,
      maxBurst: Int = 150,
      regimeMinutes: Int = 2,
      seed: Long = 7L,
  ): Vector[Event] = {
    val rnd = new Random(seed)
    val buf = new ArrayBuffer[Event]()
    val total = minutes.toLong * eventsPerMin
    val horizon = minutes * 60_000L
    var id = 0L
    def emit(ts: Long, typ: String, grp: String, num: Map[String, Double]): Unit = {
      buf += Event(id, math.min(ts, horizon - 1), typ, grp, num, Map.empty); id += 1
    }
    while (id < total) {
      val grp = s"c${rnd.nextInt(nCompanies)}"
      val t0 = (rnd.nextDouble() * (horizon - 60_000)).toLong
      emit(t0, "O", grp, Map("price" -> (50 + rnd.nextDouble() * 100)))
      val len = math.max(1, (-meanBurst * math.log(1 - rnd.nextDouble())).round.toInt)
      var ts = t0
      for (_ <- 0 until math.min(len, maxBurst)) {
        ts += 50 + rnd.nextInt(200)
        // The regime is a property of the tick time, so long sessions
        // experience the flip mid-stream (what the dynamic optimizer reacts to).
        val scattered = (ts / (regimeMinutes * 60_000L)) % 2 == 1
        val vol =
          if (scattered) rnd.nextDouble() * 100          // straddles thresholds
          else 60 + rnd.nextDouble() * 10                // above all thresholds
        emit(ts, "P", grp, Map("price" -> (50 + rnd.nextDouble() * 100), "volume" -> vol))
      }
      emit(ts + 100, "S", grp, Map("price" -> (50 + rnd.nextDouble() * 100)))
    }
    finalize(buf)
  }

  /** NYC-taxi-like stream (200 ev/min default): few large district groups
    * → large per-window graphs, Greta's worst case (Figure 11 NYC).
    * Types: `R` request, `T+` travel, `D` dropoff.
    */
  def taxiLike(
      minutes: Int,
      eventsPerMin: Int,
      nDistricts: Int = 10,
      meanKleene: Double = 8.0,
      seed: Long = 11L,
  ): Vector[Event] = {
    val rnd = new Random(seed)
    val buf = new ArrayBuffer[Event]()
    val total = minutes.toLong * eventsPerMin
    val horizon = minutes * 60_000L
    var id = 0L
    def emit(ts: Long, typ: String, grp: String, num: Map[String, Double]): Unit = {
      buf += Event(id, math.min(ts, horizon - 1), typ, grp, num, Map.empty); id += 1
    }
    while (id < total) {
      val grp = s"dist${rnd.nextInt(nDistricts)}"
      val t0 = (rnd.nextDouble() * (horizon - 60_000)).toLong
      emit(t0, "R", grp, Map("passengers" -> (1 + rnd.nextInt(4)).toDouble))
      val len = math.max(1, (-meanKleene * math.log(1 - rnd.nextDouble())).round.toInt)
      var ts = t0
      for (_ <- 0 until math.min(len, 60)) {
        ts += 1000 + rnd.nextInt(3000)
        emit(ts, "T", grp, Map("speed" -> (5 + rnd.nextDouble() * 50), "duration" -> (1 + rnd.nextDouble() * 4)))
      }
      emit(ts + 1000, "D", grp, Map("price" -> (5 + rnd.nextDouble() * 60)))
    }
    finalize(buf)
  }

  /** Smart-home-like stream (DEBS'14 substitute, 20K ev/min default):
    * house+plug groups; `L` load start, `M+` measurements, `H` load end;
    * attribute voltage.
    */
  def smartHomeLike(
      minutes: Int,
      eventsPerMin: Int,
      nPlugs: Int = 100,
      meanKleene: Double = 10.0,
      seed: Long = 13L,
  ): Vector[Event] = {
    val rnd = new Random(seed)
    val buf = new ArrayBuffer[Event]()
    val total = minutes.toLong * eventsPerMin
    val horizon = minutes * 60_000L
    var id = 0L
    def emit(ts: Long, typ: String, grp: String, num: Map[String, Double]): Unit = {
      buf += Event(id, math.min(ts, horizon - 1), typ, grp, num, Map.empty); id += 1
    }
    while (id < total) {
      val grp = s"plug${rnd.nextInt(nPlugs)}"
      val t0 = (rnd.nextDouble() * (horizon - 60_000)).toLong
      emit(t0, "L", grp, Map("voltage" -> (220 + rnd.nextDouble() * 20)))
      val len = math.max(1, (-meanKleene * math.log(1 - rnd.nextDouble())).round.toInt)
      var ts = t0
      for (_ <- 0 until math.min(len, 80)) {
        ts += 200 + rnd.nextInt(800)
        emit(ts, "M", grp, Map("voltage" -> (210 + rnd.nextDouble() * 30)))
      }
      emit(ts + 500, "H", grp, Map("voltage" -> (220 + rnd.nextDouble() * 20)))
    }
    finalize(buf)
  }
}
