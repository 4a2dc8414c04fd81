package org.apache.spark

/** Waits until every listener event posted so far has been delivered, so
  * that counts read from a `SparkListener` are complete for the work that
  * just finished. The bus is package-private in Spark.
  */
object PerfbenchBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
