package repro.core

import org.apache.spark.TaskContext
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.InternalRow
import scala.reflect.ClassTag

/** One pass over a frame's rows as a single Spark job with no shuffle.
  *
  * `partial` folds each partition's rows into one value on the executor;
  * the driver gathers those values with `runJob` and folds them with
  * `merge` in partition order, so the result does not depend on which task
  * finishes first. This is partial aggregation with the final step on the
  * driver: every caller collects its whole result anyway, so an exchange
  * would buy nothing. `runJob` has Spark's closure cleaner parse only the
  * fold's own closure, not the two of Spark's that `collect` adds. Rows
  * are Catalyst's internal rows and may be reused between calls of the
  * iterator, so `partial` must copy whatever it keeps.
  */
private[core] object PartitionFold {

  def apply[P: ClassTag, R](rows: DataFrame)(partial: Iterator[InternalRow] => P)
                           (zero: R)(merge: (R, P) => R): R = {
    val sc = rows.sparkSession.sparkContext
    val outer = sc.getLocalProperty("callSite.short")
    sc.setCallSite(callerSite)
    try {
      val rdd = rows.queryExecution.toRdd
      val parts = new Array[P](rdd.partitions.length)
      sc.runJob(rdd, (_: TaskContext, it: Iterator[InternalRow]) => partial(it),
        parts.indices, (i: Int, p: P) => parts(i) = p)
      parts.foldLeft(zero)(merge)
    } finally if (outer == null) sc.clearCallSite() else sc.setCallSite(outer)
  }

  /** Spark names a job after the first stack frame outside Spark and
    * Scala, which would be this object for every pass. Name the job after
    * the pass that called it instead, as `collect at Grid.scala:<line>`, so
    * listeners and the UI can tell the passes apart.
    */
  private def callerSite: String = {
    val self = getClass.getName
    Thread.currentThread.getStackTrace.iterator
      .dropWhile(_.getClassName != self).find(_.getClassName != self)
      .fold("collect")(f => s"collect at ${f.getFileName}:${f.getLineNumber}")
  }
}
