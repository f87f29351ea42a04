package repro.core

import org.scalatest.funsuite.AnyFunSuite

class LinExprSpec extends AnyFunSuite {

  private val vals = Map(
    (7L, 0) -> 2.0, (7L, 1) -> 5.0,
    (9L, 0) -> 3.0, (9L, 1) -> 1.0,
  )
  /** Substitutes the snapshot values of `vals` into `e`. */
  private def eval(e: LinExpr): Double =
    (0 until e.size).foldLeft(e.const) { (acc, i) =>
      val k = e.keyAt(i)
      acc + e.coefAt(i) * vals.getOrElse((LinExpr.snapOf(k), LinExpr.chanOf(k)), 0.0)
    }

  test("zero evaluates to 0") { assert(eval(LinExpr.zero) == 0.0) }

  test("constant expression") { assert(eval(LinExpr.const(4.5)) == 4.5) }

  test("single snapshot term") {
    assert(eval(LinExpr.ofSnap(7, 0)) == 2.0)
    assert(eval(LinExpr.ofSnap(7, 1)) == 5.0)
  }

  test("addition merges coefficients") {
    val e = LinExpr.ofSnap(7, 0) + LinExpr.ofSnap(7, 0) + LinExpr.ofSnap(9, 0)
    assert(e.keyAt(0) == LinExpr.key(7, 0) && e.coefAt(0) == 2.0)
    assert(eval(e) == 2 * 2.0 + 3.0)
    assert(e.size == 2)
  }

  test("scalar multiplication scales const and terms") {
    val e = (LinExpr.ofSnap(7, 0) + 1.0) * 3.0
    assert(eval(e) == 3 * (2.0 + 1.0))
  }

  test("multiplication by zero collapses to the empty expression") {
    val e = (LinExpr.ofSnap(7, 0) + 5.0) * 0.0
    assert(e.size == 0 && e.const == 0.0)
  }

  test("adding a scalar only touches the constant") {
    val e = LinExpr.ofSnap(9, 1) + 2.5
    assert(e.const == 2.5 && e.size == 1)
    assert(eval(e) == 3.5)
  }

  test("mixed-channel expression (count(b6) = 4x + z shape)") {
    val e = LinExpr.ofSnap(7, 0) * 4.0 + LinExpr.ofSnap(9, 0)
    assert(eval(e) == 4 * 2.0 + 3.0)
  }

  test("key packs and unpacks snapshot id and channel") {
    val k = LinExpr.key(123456789L, 5)
    assert(LinExpr.snapOf(k) == 123456789L)
    assert(LinExpr.chanOf(k) == 5)
  }

  test("key rejects out-of-range channels") {
    intercept[IllegalArgumentException](LinExpr.key(1, 8))
  }

  test("addition is commutative and associative on evaluation") {
    val a = LinExpr.ofSnap(7, 0) * 2.0
    val b = LinExpr.ofSnap(9, 1) + 1.0
    val c = LinExpr.const(3.0)
    assert(eval((a + b) + c) == eval(a + (b + c)))
    assert(eval(a + b) == eval(b + a))
  }
}
