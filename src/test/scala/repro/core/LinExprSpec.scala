package repro.core

import org.scalatest.funsuite.AnyFunSuite

class LinExprSpec extends AnyFunSuite {

  /** Slot values of two snapshots with two channels each (slot = s·2 + ch). */
  private val vals = Map(14 -> 2.0, 15 -> 5.0, 18 -> 3.0, 19 -> 1.0)
  /** Substitutes the slot values of `vals` into `e`. */
  private def eval(e: LinExpr): Double =
    (0 until e.size).foldLeft(e.const) { (acc, i) =>
      acc + e.coefAt(i) * vals.getOrElse(e.keyAt(i), 0.0)
    }

  test("zero evaluates to 0") { assert(eval(LinExpr.zero) == 0.0) }

  test("constant expression") { assert(eval(LinExpr.const(4.5)) == 4.5) }

  test("single snapshot term") {
    assert(eval(LinExpr.ofSlot(14)) == 2.0)
    assert(eval(LinExpr.ofSlot(15)) == 5.0)
  }

  test("addition merges coefficients") {
    val e = LinExpr.ofSlot(14) + LinExpr.ofSlot(14) + LinExpr.ofSlot(18)
    assert(e.keyAt(0) == 14 && e.coefAt(0) == 2.0)
    assert(eval(e) == 2 * 2.0 + 3.0)
    assert(e.size == 2)
  }

  test("scalar multiplication scales const and terms") {
    val e = (LinExpr.ofSlot(14) + 1.0) * 3.0
    assert(eval(e) == 3 * (2.0 + 1.0))
  }

  test("multiplication by zero collapses to the empty expression") {
    val e = (LinExpr.ofSlot(14) + 5.0) * 0.0
    assert(e.size == 0 && e.const == 0.0)
  }

  test("adding a scalar only touches the constant") {
    val e = LinExpr.ofSlot(19) + 2.5
    assert(e.const == 2.5 && e.size == 1)
    assert(eval(e) == 3.5)
  }

  test("mixed-channel expression (count(b6) = 4x + z shape)") {
    val e = LinExpr.ofSlot(14) * 4.0 + LinExpr.ofSlot(18)
    assert(eval(e) == 4 * 2.0 + 3.0)
  }

  test("addition is commutative and associative on evaluation") {
    val a = LinExpr.ofSlot(14) * 2.0
    val b = LinExpr.ofSlot(19) + 1.0
    val c = LinExpr.const(3.0)
    assert(eval((a + b) + c) == eval(a + (b + c)))
    assert(eval(a + b) == eval(b + a))
  }
}
