package adabench

import java.io.{File, PrintWriter}
import java.lang.management.ManagementFactory
import javax.management.{Notification, NotificationEmitter, NotificationListener}
import javax.management.openmbean.CompositeData
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import com.sun.management.GarbageCollectionNotificationInfo
import org.apache.spark.scheduler._
import org.apache.spark.sql.execution.SQLExecution
import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionStart

/** A traced interval. Times are epoch milliseconds (the clock Spark's
  * listener events use); `parent` is the id of the enclosing span, 0 for a
  * rep.
  */
final case class Span(id: Int, parent: Int, rep: Int, name: String, layer: String,
                      startMs: Long, endMs: Long)

object Trace {
  /** Writes a run's spans, one JSON object a line. */
  def write(file: File, spans: Seq[Span]): Unit = {
    file.getParentFile.mkdirs()
    val pw = new PrintWriter(file, "UTF-8")
    try spans.foreach(s => pw.println(Main.Json.writeValueAsString(s))) finally pw.close()
  }
}

/** What the listener saw of one Spark job. */
final case class JobRecord(jobId: Int, executionId: Long, site: String, layer: String,
                           startMs: Long, endMs: Long, stageIds: Seq[Int],
                           mainAllocAtStart: Long, mainAllocAtEnd: Long)

/** What the listener saw of one finished task. */
final case class TaskRecord(stageId: Int, launchMs: Long, deserializeMs: Long, runMs: Long,
                            gcMs: Long, resultBytes: Long, shuffleWriteBytes: Long)

/** Records every Spark job and task from outside the program. A job
  * belongs to the call whose driver-side interval contains its start (one
  * call is in flight at a time). Its layer comes from the call site of its
  * SQL execution, falling back to its first stage's name: adaptive query
  * execution submits each query stage as a job of its own from a pool
  * thread, whose stage names carry no call site of the program. The allocation counter of the calling thread is sampled at
  * each job boundary, which brackets the driver-side gaps between jobs.
  */
final class JobTracer(callerThreadId: Long) extends SparkListener {
  private val jobs = mutable.ArrayBuffer.empty[JobRecord]
  private val open = mutable.HashMap.empty[Int, JobRecord]
  private val tasks = mutable.ArrayBuffer.empty[TaskRecord]
  private val stageSubmitMs = mutable.HashMap.empty[Int, Long]
  private val executionSite = mutable.HashMap.empty[Long, String]

  private def callerAlloc(): Long = Alloc.thread(callerThreadId)

  override def onOtherEvent(e: SparkListenerEvent): Unit = e match {
    case x: SparkListenerSQLExecutionStart => synchronized { executionSite(x.executionId) = x.description }
    case _ =>
  }

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val exec = Option(e.properties).flatMap(p => Option(p.getProperty(SQLExecution.EXECUTION_ID_KEY)))
      .map(_.toLong).getOrElse(-1L)
    val site = executionSite.getOrElse(exec, e.stageInfos.minBy(_.stageId).name)
    open(e.jobId) = JobRecord(e.jobId, exec, site, Layers.of(site), e.time, -1L,
      e.stageIds, callerAlloc(), -1L)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    open.remove(e.jobId).foreach(j => jobs += j.copy(endMs = e.time, mainAllocAtEnd = callerAlloc()))
  }

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = synchronized {
    stageSubmitMs(e.stageInfo.stageId) = e.stageInfo.submissionTime.getOrElse(System.currentTimeMillis())
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val m = e.taskMetrics
    if (m != null)
      tasks += TaskRecord(e.stageId, e.taskInfo.launchTime, m.executorDeserializeTime,
        m.executorRunTime, m.jvmGCTime, m.resultSize, m.shuffleWriteMetrics.bytesWritten)
  }

  /** Finished jobs that started in [fromMs, toMs], in start order. */
  def jobsIn(fromMs: Long, toMs: Long): Seq[JobRecord] = synchronized {
    jobs.filter(j => j.startMs >= fromMs && j.startMs <= toMs).sortBy(j => (j.startMs, j.jobId)).toSeq
  }

  def tasksOf(js: Seq[JobRecord]): Seq[TaskRecord] = synchronized {
    val stages = js.flatMap(_.stageIds).toSet
    tasks.filter(t => stages(t.stageId)).toSeq
  }

  def stageSubmit(stageId: Int): Option[Long] = synchronized(stageSubmitMs.get(stageId))
}

/** Allocation counters of the JVM's threads. */
object Alloc {
  private val mx = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  def thread(id: Long): Long = mx.getThreadAllocatedBytes(id)

  /** Allocated bytes per live thread. */
  def snapshot(): Map[Long, Long] = {
    val ids = mx.getAllThreadIds
    val bytes = mx.getThreadAllocatedBytes(ids)
    ids.indices.collect { case i if bytes(i) >= 0 => ids(i) -> bytes(i) }.toMap
  }

  /** Bytes allocated between two snapshots by the threads alive at the end. */
  def delta(before: Map[Long, Long], after: Map[Long, Long]): Long =
    after.iterator.map { case (id, b) => b - before.getOrElse(id, 0L) }.sum
}

/** Collector time, and the heap left after each collection (from GC
  * notifications; diagnostic only, since it depends on when GCs happen).
  */
object GcWatch {
  private val beans = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq
  @volatile private var peakAfter = 0L

  def collectors: Seq[String] = beans.map(_.getName)

  def collectionMs(): Long = beans.map(_.getCollectionTime).filter(_ >= 0).sum

  def install(): Unit = beans.foreach {
    case em: NotificationEmitter =>
      em.addNotificationListener(new NotificationListener {
        def handleNotification(n: Notification, handback: Any): Unit =
          if (n.getType == GarbageCollectionNotificationInfo.GARBAGE_COLLECTION_NOTIFICATION) {
            val info = GarbageCollectionNotificationInfo.from(n.getUserData.asInstanceOf[CompositeData])
            val used = info.getGcInfo.getMemoryUsageAfterGc.asScala.values.map(_.getUsed).sum
            GcWatch.synchronized { if (used > peakAfter) peakAfter = used }
          }
      }, null, null)
    case _ =>
  }

  /** Peak post-GC heap since the last reset. */
  def resetPeak(): Unit = synchronized { peakAfter = 0L }
  def peakBytes: Long = synchronized(peakAfter)
}
