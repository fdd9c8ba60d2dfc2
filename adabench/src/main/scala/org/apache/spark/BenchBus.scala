package org.apache.spark

/** The benchmark reads its listener's records only after every posted
  * event has been delivered; the listener bus is internal to Spark, hence
  * this one-line bridge in Spark's package.
  */
object BenchBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
