package repro

import org.apache.spark.JobExecutionStatus
import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM, or to half the physical memory clamped to 2–8 GB when
  * it is unset. Broadcast joins are disabled so shuffle/join papers actually
  * exercise the shuffle path at SF~=0.1; re-enable per-query if the
  * paper's contribution is the broadcast side.
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  override def afterAll(): Unit = { super.afterAll() }

  /** The stage names of each Spark job `body` runs, in job order. */
  protected def jobStages(body: => Unit): Seq[Seq[String]] = {
    val sc = spark.sparkContext
    val group = s"jobs-${System.nanoTime}"
    def inGroup(g: String)(run: => Unit): Unit = {
      sc.setJobGroup(g, g)
      try run finally sc.clearJobGroup()
    }
    inGroup(group)(body)
    // The status tracker is fed by an asynchronous listener. Events arrive
    // in order, so once a later marker job reads as finished, every job of
    // `group` has been recorded.
    val marker = group + "-marker"
    inGroup(marker)(sc.parallelize(Seq(1), 1).count())
    val tracker = sc.statusTracker
    def markerDone = tracker.getJobIdsForGroup(marker)
      .exists(id => tracker.getJobInfo(id).exists(_.status == JobExecutionStatus.SUCCEEDED))
    val deadline = System.nanoTime + 30L * 1000 * 1000 * 1000
    while (!markerDone && System.nanoTime < deadline) Thread.sleep(10)
    assert(markerDone, "the status tracker never saw the marker job")
    tracker.getJobIdsForGroup(group).sorted.toSeq
      .map(id => tracker.getJobInfo(id).get.stageIds.toSeq.map(s => tracker.getStageInfo(s).get.name))
  }
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
