package repro.core

import org.scalatest.funsuite.AnyFunSuite

class PaneAggSpec extends AnyFunSuite {

  private val Inf = Double.PositiveInfinity
  private def mm(mn: Double, mx: Double) = PaneAgg(1.0, 0.0, 0.0, mn, mx)

  test("agrees: an infinite channel agrees only with the same infinity") {
    assert(mm(Inf, -Inf).agrees(mm(Inf, -Inf)))
    assert(mm(3.0, 5.0).agrees(mm(3.0 + 1e-9, 5.0)))
    assert(!mm(3.0, -Inf).agrees(mm(Inf, -Inf)))
    assert(!mm(Inf, -Inf).agrees(mm(3.0, -Inf)))
    assert(!mm(Inf, 5.0).agrees(mm(Inf, -Inf)))
    assert(!mm(Inf, -Inf).agrees(mm(Inf, 5.0)))
    assert(!mm(Inf, -Inf).agrees(mm(-Inf, Inf)))
    assert(!PaneAgg(5.0, 0.0, 0.0, Inf, -Inf).agrees(PaneAgg(Inf, 0.0, 0.0, Inf, -Inf)))
  }
}
