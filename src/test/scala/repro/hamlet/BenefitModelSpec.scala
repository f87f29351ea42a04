package repro.hamlet

import org.scalatest.funsuite.AnyFunSuite

import scala.util.Random

class BenefitModelSpec extends AnyFunSuite {

  test("Equation 9: decision to merge B3 — benefit 56 - 44 = 12 > 0") {
    val s = BurstStats(b = 4, n = 7, g = 4, k = 2, p = 2, t = 2, sC = 1, sP = 1)
    assert(Eq7Model.shared(s) == 44.0)
    assert(Eq7Model.nonShared(s) == 56.0)
    assert(Eq7Model.benefit(s) == 12.0)
  }

  test("Equation 10: decision to split B3 — benefit 88 - 120 = -32 < 0") {
    val s = BurstStats(b = 4, n = 11, g = 8, k = 2, p = 2, t = 2, sC = 1, sP = 2)
    assert(Eq7Model.shared(s) == 120.0)
    assert(Eq7Model.nonShared(s) == 88.0)
    assert(Eq7Model.benefit(s) == -32.0)
  }

  test("Equation 11: decision to merge B6 — benefit 120 - 76 = 44 > 0") {
    val s = BurstStats(b = 4, n = 15, g = 4, k = 2, p = 2, t = 2, sC = 1, sP = 1)
    assert(Eq7Model.shared(s) == 76.0)
    assert(Eq7Model.nonShared(s) == 120.0)
    assert(Eq7Model.benefit(s) == 44.0)
  }

  test("Equation 8 components: log2 term and snapshot factors") {
    val s = BurstStats(b = 8, n = 100, g = 8, k = 4, p = 1, t = 3, sC = 2, sP = 3)
    assert(Eq8Model.shared(s) == 2.0 * 4 * 8 * 1 + 8 * (3.0 + 100.0 * 3))
    assert(Eq8Model.nonShared(s) == 4.0 * 8 * (3.0 + 100.0))
  }

  private def randomStats(rnd: Random): BurstStats = {
    val b = 1L + rnd.nextInt(500)
    BurstStats(
      b = b, n = b + rnd.nextInt(5000), g = b,
      k = 2 + rnd.nextInt(98),
      p = (1 + rnd.nextInt(3)).toDouble, t = (1 + rnd.nextInt(5)).toDouble,
      sC = 1, sP = 1 + rnd.nextInt(20))
  }

  test("property: more sharing queries k raises the benefit (both models)") {
    val rnd = new Random(1)
    (1 to 200).foreach { _ =>
      val s = randomStats(rnd)
      for (m <- Seq[CostModel](Eq7Model, Eq8Model))
        assert(m.benefit(s.copy(k = s.k + 1)) >= m.benefit(s))
    }
  }

  test("property: more propagated snapshots s_p lowers the benefit") {
    val rnd = new Random(2)
    (1 to 200).foreach { _ =>
      val s = randomStats(rnd)
      for (m <- Seq[CostModel](Eq7Model, Eq8Model))
        assert(m.benefit(s.copy(sP = s.sP + 1)) <= m.benefit(s))
    }
  }

  test("property: more created snapshots s_c lowers the benefit") {
    val rnd = new Random(3)
    (1 to 200).foreach { _ =>
      val s = randomStats(rnd)
      for (m <- Seq[CostModel](Eq7Model, Eq8Model))
        assert(m.benefit(s.copy(sC = s.sC + 1)) <= m.benefit(s))
    }
  }

  test("property: one snapshot, no divergence: sharing k>=2 queries wins under Eq 8") {
    val rnd = new Random(4)
    (1 to 200).foreach { _ =>
      val s = randomStats(rnd).copy(sC = 1, sP = 1)
      if (s.b >= 4) assert(Eq8Model.benefit(s) > 0)
    }
  }

  test("Theorem 4.1: removing a no-snapshot query from the shared set never helps") {
    // The difference of Eq. 12 vs Eq. 13 is s_c·g·p vs b·(log2 g + n),
    // with s_c <= b and g <= n; p <= 3 in all our templates.
    val rnd = new Random(5)
    (1 to 500).foreach { _ =>
      val s = randomStats(rnd)
      val log2g = math.log(s.g.toDouble) / math.log(2.0)
      assert(s.sC * s.g * s.p <= s.b * (log2g + s.n) + 1e-9)
    }
  }
}
