package repro.metrics

import org.scalatest.funsuite.AnyFunSuite

class MetricsSpec extends AnyFunSuite {

  test("observeBytes keeps the peak") {
    val m = new Metrics
    m.observeBytes(10); m.observeBytes(5); m.observeBytes(20); m.observeBytes(1)
    assert(m.peakBytes == 20)
  }

  test("observeTerms keeps the peak") {
    val m = new Metrics
    m.observeTerms(3); m.observeTerms(1)
    assert(m.peakLiveTerms == 3)
  }

  test("+= sums counters and maxes peaks") {
    val a = new Metrics
    a.events = 5; a.snapshotsCreated = 2; a.peakBytes = 100; a.peakLiveTerms = 4; a.truncations = 1
    val b = new Metrics
    b.events = 7; b.snapshotsCreated = 1; b.peakBytes = 50; b.peakLiveTerms = 9; b.truncations = 2
    a += b
    assert(a.events == 12 && a.snapshotsCreated == 3 && a.truncations == 3)
    assert(a.peakBytes == 150) // concurrent state: peaks add across groups
    assert(a.peakLiveTerms == 9)
  }

  test("toString mentions the key counters") {
    val m = new Metrics
    m.events = 2; m.snapshotsCreated = 1
    assert(m.toString.contains("events=2"))
    assert(m.toString.contains("snapsCreated=1"))
  }
}
