package repro.query

import org.scalatest.funsuite.AnyFunSuite

class PatternTemplateSpec extends AnyFunSuite {

  private def tpl(p: Pattern, preds: Seq[Pred] = Nil): Template =
    Template.compile(TrendQuery("q", p, preds = preds, window = QueryWindow(4, 2)))

  test("Example 2: SEQ(A, B+) predecessor/start/end types") {
    val t = tpl(Pattern.seq("A", "B+"))
    assert(t.predTypes("B") == Set("A", "B"))
    assert(t.predTypes("A") == Set.empty)
    assert(t.startTypes == Set("A"))
    assert(t.endTypes == Set("B"))
  }

  test("SEQ(A, B+) transitions") {
    assert(tpl(Pattern.seq("A", "B+")).transitions == Set("A" -> "B", "B" -> "B"))
  }

  test("bare Kleene B+ starts and ends at B") {
    val t = tpl(Pattern.seq("B+"))
    assert(t.startTypes == Set("B") && t.endTypes == Set("B"))
    assert(t.transitions == Set("B" -> "B"))
  }

  test("three-stage SEQ(R, T+, D)") {
    val t = tpl(Pattern.seq("R", "T+", "D"))
    assert(t.transitions == Set("R" -> "T", "T" -> "T", "T" -> "D"))
    assert(t.startTypes == Set("R") && t.endTypes == Set("D"))
    assert(t.predTypes("D") == Set("T"))
  }

  test("Example 10 / Figure 8: nested Kleene (SEQ(A, B+))+ adds the B->A loop") {
    val t = tpl(PKleene(PSeq(List(PEvent("A"), PKleene(PEvent("B"))))))
    assert(t.transitions == Set("A" -> "B", "B" -> "B", "B" -> "A"))
    assert(t.predTypes("A") == Set("B"))
    assert(t.predTypes("B") == Set("A", "B"))
  }

  test("trailing negation SEQ(R, T+, NOT P)") {
    val t = tpl(Pattern.seq("R", "T+", "!P"))
    assert(t.trailingNegs == Set("P"))
    assert(t.midNegs.isEmpty)
    assert(t.endTypes == Set("T"))
    assert(t.typeUniverse == Set("R", "T", "P"))
  }

  test("mid negation SEQ(A, NOT C, B+) becomes a barrier A -x- B") {
    val t = tpl(Pattern.seq("A", "!C", "B+"))
    assert(t.trailingNegs.isEmpty)
    assert(t.midNegs == Seq(NegBarrier("C", Set("A"), Set("B"))))
    assert(t.transitions == Set("A" -> "B", "B" -> "B"))
  }

  test("mid negation between Kleene and suffix SEQ(R, T+, NOT P, D)") {
    val t = tpl(Pattern.seq("R", "T+", "!P", "D"))
    assert(t.midNegs == Seq(NegBarrier("P", Set("T"), Set("D"))))
    assert(t.endTypes == Set("D"))
  }

  test("kleeneTypes finds the sharable sub-pattern type") {
    assert(Pattern.seq("R", "T+", "D").kleeneTypes == Set("T"))
    assert(Pattern.seq("A", "B").kleeneTypes == Set.empty)
  }

  test("types lists the positive types of the pattern, not the negated ones") {
    assert(Pattern.seq("R", "T+", "!P").types == Set("R", "T"))
  }

  test("pattern with no positive start is rejected") {
    intercept[IllegalArgumentException](tpl(PSeq(List(PNot("A")))))
  }
}
