package repro.core

/** A linear expression over snapshot values:
  * `const + Σ coef_i · value(snap_i, channel_i, q)`.
  *
  * Intermediate trend aggregates of events in *shared* graphlets are such
  * expressions (§3.3, data structure (2): "hash table of snapshot
  * coefficients per event" — e.g. `count(b6, Q) = 4x + z`). The expression
  * is query-independent; per-query values are obtained by substituting the
  * per-query snapshot values from the snapshot table.
  *
  * Terms are keyed by an `Int` slot of the engine's snapshot table, one
  * slot per (snapshot, channel) — a sum-channel expression references the
  * count-channel value of a snapshot (`s(e) = Σ s(e') + attr·c(e)`). The
  * engine owns the slot numbering; see `SetPaneEngine`.
  *
  * Stored as two parallel primitive arrays sorted by key. A key, once
  * added, stays a term even when its coefficient sums to zero, so `size`
  * counts the distinct keys ever added (only `* 0.0` drops them).
  */
final class LinExpr private (val const: Double, keys: Array[Int], coefs: Array[Double])
    extends Serializable {

  /** Number of snapshot terms — the `s_p` factor of the cost model. */
  def size: Int = keys.length
  /** Key and coefficient of the i-th term, in key order. */
  def keyAt(i: Int): Int      = keys(i)
  def coefAt(i: Int): Double  = coefs(i)

  def +(o: LinExpr): LinExpr = {
    val b = new LinExpr.Builder
    b += this
    b += o
    b.result()
  }

  def *(a: Double): LinExpr =
    if (a == 0.0) LinExpr.zero
    else new LinExpr(const * a, keys, coefs.map(_ * a))

  def +(c: Double): LinExpr = new LinExpr(const + c, keys, coefs)

  override def toString: String =
    keys.indices.map(i => s"${keys(i)} -> ${coefs(i)}").mkString(s"LinExpr($const, ", ", ", ")")
}

object LinExpr {
  private val NoKeys  = new Array[Int](0)
  private val NoCoefs = new Array[Double](0)

  val zero: LinExpr = new LinExpr(0.0, NoKeys, NoCoefs)

  /** Expression that is exactly one snapshot-table slot. */
  def ofSlot(slot: Int): LinExpr = new LinExpr(0.0, Array(slot), Array(1.0))

  def const(c: Double): LinExpr = new LinExpr(c, NoKeys, NoCoefs)

  /** Running sum of expressions: each `+=` merges the sorted terms into a
    * pair of reused buffers, so summing n expressions allocates only the
    * result.
    */
  final class Builder {
    private var const = 0.0
    private var n = 0
    private var ks = new Array[Int](16)
    private var cs = new Array[Double](16)
    private var ks2 = new Array[Int](16)
    private var cs2 = new Array[Double](16)

    def clear(): Unit = { const = 0.0; n = 0 }

    def +=(e: LinExpr): Unit = {
      const += e.const
      val m = e.size
      if (m == 0) return
      if (ks2.length < n + m) {
        ks2 = new Array[Int](2 * (n + m)); cs2 = new Array[Double](2 * (n + m))
      }
      var i = 0; var j = 0; var o = 0
      while (i < n || j < m) {
        if (j == m || (i < n && ks(i) < e.keyAt(j))) {
          ks2(o) = ks(i); cs2(o) = cs(i); i += 1
        } else if (i == n || e.keyAt(j) < ks(i)) {
          ks2(o) = e.keyAt(j); cs2(o) = e.coefAt(j); j += 1
        } else {
          ks2(o) = ks(i); cs2(o) = cs(i) + e.coefAt(j); i += 1; j += 1
        }
        o += 1
      }
      val tk = ks; ks = ks2; ks2 = tk
      val tc = cs; cs = cs2; cs2 = tc
      n = o
    }

    def result(): LinExpr =
      if (n == 0) LinExpr.const(const)
      else new LinExpr(const, java.util.Arrays.copyOf(ks, n), java.util.Arrays.copyOf(cs, n))
  }
}
