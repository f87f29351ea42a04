package repro.events

import java.nio.charset.StandardCharsets
import java.security.MessageDigest

import org.scalatest.funsuite.AnyFunSuite

class StreamGenSpec extends AnyFunSuite {

  /** SHA-256 of the events' `toString`s, one per line, in stream order. */
  private def digest(evs: Seq[Event]): String = {
    val md = MessageDigest.getInstance("SHA-256")
    evs.foreach(e => md.update(s"$e\n".getBytes(StandardCharsets.UTF_8)))
    md.digest().map(b => f"$b%02x").mkString
  }

  /** Every counter anchor (the figure tables, `HamletCountersSpec`,
    * `HarnessSpec`, the end-to-end benchmark's `hamlet.*` anchors) rests on
    * these streams, so each generator is pinned byte for byte at the
    * settings that use it: `Experiments` (Figures 9–13), the end-to-end
    * benchmark (full and tiny), and the counter and harness specs.
    */
  private val pinned: Seq[(String, String, () => Vector[Event])] = Seq(
    ("ridesharing fig9 10k", "003ddfb408b8cc93c9dc6eaf050560503d5341688038fff347d58221a34dee89",
      () => StreamGen.ridesharing(4, 10_000, nGroups = 5_000, meanKleene = 2.5, maxKleene = 7)),
    ("ridesharing fig9 20k", "c5466a4805cbbfe0c38748c8005ff818ac3b741f33cf890c9ba40b8b777de8a1",
      () => StreamGen.ridesharing(4, 20_000, nGroups = 10_000, meanKleene = 2.5, maxKleene = 7)),
    ("ridesharing bench", "b53283062aed6779975e3ff1e8c325d518117b4f15e635ceb7269e00ed9e9834",
      () => StreamGen.ridesharing(4, 20_000, nGroups = 2_000, seed = 42L)),
    ("ridesharing bench tiny", "6ececd2441c44fde5097f452abfb5c5cf02348e7ccd6b6e70d7fb5d27d8d955b",
      () => StreamGen.ridesharing(3, 1_000, nGroups = 100, seed = 42L)),
    ("ridesharing counters", "bbdc9f64e3950cf127950470b50fccc3d924968cf54c816bf111745fc37412af",
      () => StreamGen.ridesharing(2, 1_500, nGroups = 40, seed = 42L)),
    ("ridesharing harness", "330446bfb93754be33cf510292fc3aa164bff67080916ec2ee6669e45c5a3280",
      () => StreamGen.ridesharing(4, 800, nGroups = 800, meanKleene = 2.5, maxKleene = 7, seed = 3)),
    ("stockLike fig12 2k", "d8d53e18c58c7f883a22a611eb46e67d7fbaef3d224face865ed875b50bf67de",
      () => StreamGen.stockLike(8, 2_000, nCompanies = 50)),
    ("stockLike fig12 3k", "b8aff233a071b4e22bf6a44ef4e8b099b8591493eb2086006201776e482aa501",
      () => StreamGen.stockLike(8, 3_000, nCompanies = 75)),
    ("stockLike fig12 4k", "e137a02462f23f4da44f38882013f9873844479f932e576731657d17c0b63e91",
      () => StreamGen.stockLike(8, 4_000, nCompanies = 100)),
    ("stockLike bench", "9da6a7a8d5ed086427ddf75cc074a3cfb8b98199a0bd9d4bba5843b4fc0fbed0",
      () => StreamGen.stockLike(32, 2_000, nCompanies = 50, seed = 7L)),
    ("stockLike counters", "74e544ff2f5a037ad8f5e1478347adef96455726b8a5f95fec62a7df0db32ce8",
      () => StreamGen.stockLike(4, 300, nCompanies = 8, seed = 7L)),
    ("stockLike harness", "f0fcc9b64b3962669e20d60648fa3c4ddf7b621ddefe71fa5e1f43f711ef7048",
      () => StreamGen.stockLike(6, 800, nCompanies = 20)),
    ("taxiLike fig11 100", "8aa5950aa9c43fd4dfe684e98bba634b8f7c422e368c8255b9e21cfc81dc1962",
      () => StreamGen.taxiLike(6, 100, nDistricts = 10)),
    ("taxiLike fig11 200", "c6bd0f62846d85614c9b240e87e4c3569214ffca390512300ebc1ebe005a76b9",
      () => StreamGen.taxiLike(6, 200, nDistricts = 10)),
    ("taxiLike fig11 400", "86c6181720cd1f0d2fce0cb408c2ff1e526a3f95c910956822af8cba0496fec2",
      () => StreamGen.taxiLike(6, 400, nDistricts = 10)),
    ("taxiLike seed 3", "48e66524c7c2fefbb45fbc8b140c6f5479f75c76f8e291fdeba086c84f0a3954",
      () => StreamGen.taxiLike(2, 400, nDistricts = 5, seed = 3L)),
    ("smartHomeLike fig11 2k", "5405e8b8ac54048bbeac79b3f03d9f641447b2d6d07727acc4d6e676249d716a",
      () => StreamGen.smartHomeLike(3, 2_000, nPlugs = 80)),
    ("smartHomeLike fig11 5k", "dce0f5ade62ee3fb71dea38cac1d83c44e27e6f71daa682d3516f64f72ed04cf",
      () => StreamGen.smartHomeLike(3, 5_000, nPlugs = 200)),
    ("smartHomeLike fig11 10k", "f33563364144647988be0cba39cadcaf35cd2e84c6b06ccdbfe0b580715ae9be",
      () => StreamGen.smartHomeLike(3, 10_000, nPlugs = 400)),
    ("smartHomeLike seed 3", "93af0c5fad3182fe0d9432248ebd724cbe1fcc048aa9f8cdeafd2ca55c81e679",
      () => StreamGen.smartHomeLike(1, 2_000, nPlugs = 30, seed = 3L)),
  )

  pinned.foreach { case (name, sha, gen) =>
    test(s"pinned stream: $name") {
      val evs = gen()
      assert(digest(evs) == sha, s"(${evs.size} events)")
    }
  }

  test("ridesharing: deterministic in (params, seed)") {
    val a = StreamGen.ridesharing(2, 1000, 50, seed = 5)
    val b = StreamGen.ridesharing(2, 1000, 50, seed = 5)
    assert(a == b)
  }

  test("ridesharing: different seeds differ") {
    assert(StreamGen.ridesharing(1, 500, 20, seed = 1) != StreamGen.ridesharing(1, 500, 20, seed = 2))
  }

  test("ridesharing: sorted by time with dense monotone ids") {
    val evs = StreamGen.ridesharing(2, 1000, 50)
    assert(evs.map(_.id) == evs.indices.map(_.toLong))
    assert(evs.sliding(2).forall { case Seq(a, b) => a.ts <= b.ts; case _ => true })
  }

  test("ridesharing: hits the target event budget and horizon") {
    val evs = StreamGen.ridesharing(3, 2000, 50)
    assert(evs.size >= 6000 && evs.size < 6000 * 1.3)
    assert(evs.forall(e => e.ts >= 0 && e.ts < 3 * 60_000L))
  }

  test("ridesharing: trip structure R then T-burst per group") {
    val evs = StreamGen.ridesharing(2, 1000, 30, seed = 8)
    val types = evs.map(_.typ).toSet
    assert(Set("R", "T").subsetOf(types))
    assert(evs.count(_.typ == "T") > evs.count(_.typ == "R")) // Kleene bursts dominate
  }

  test("ridesharing: speed attribute spans slow and fast regimes") {
    val speeds = StreamGen.ridesharing(2, 2000, 50).filter(_.typ == "T").map(_.num("speed"))
    assert(speeds.exists(_ < 10) && speeds.exists(_ > 10))
  }

  test("stockLike: calm and scattered volume regimes alternate") {
    val evs = StreamGen.stockLike(8, 2000, 20)
    val p = evs.filter(_.typ == "P")
    val calm = p.filter(e => (e.ts / 120_000L) % 2 == 0).map(_.num("volume"))
    val scat = p.filter(e => (e.ts / 120_000L) % 2 == 1).map(_.num("volume"))
    assert(calm.nonEmpty && scat.nonEmpty)
    assert(calm.forall(_ > 55.0))      // calm regime passes all thresholds
    assert(scat.exists(_ < 50.0))      // scattered regime straddles them
  }

  test("stockLike: session structure O P+ S per company") {
    val evs = StreamGen.stockLike(2, 1000, 10)
    assert(evs.map(_.typ).toSet == Set("O", "P", "S"))
    assert(evs.forall(_.grp.startsWith("c")))
  }

  test("taxiLike: few district groups") {
    val evs = StreamGen.taxiLike(2, 400, nDistricts = 5)
    assert(evs.map(_.grp).distinct.size <= 5)
    assert(evs.map(_.typ).toSet == Set("R", "T", "D"))
  }

  test("smartHomeLike: plug groups and voltage attribute") {
    val evs = StreamGen.smartHomeLike(1, 2000, nPlugs = 30)
    assert(evs.map(_.typ).toSet == Set("L", "M", "H"))
    assert(evs.filter(_.typ == "M").forall(_.num.contains("voltage")))
  }

  test("pane assignment is consistent with timestamps") {
    val evs = StreamGen.ridesharing(4, 500, 20)
    assert(evs.forall(e => e.pane(60_000L) == e.ts / 60_000L))
  }
}
