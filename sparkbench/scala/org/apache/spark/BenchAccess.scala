package org.apache.spark

/** The listener bus is private to Spark; task metrics read right after an
  * action are only complete once the bus has delivered every event.
  */
object BenchAccess {
  def waitForListeners(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
