package repro.harness

import org.apache.spark.sql.SparkSession
import repro.baselines._
import repro.core.AdaWaveConfig
import repro.data.ClusterData

/** Fig. 10 as a table: wall-clock runtime vs dataset size n on the
  * synthetic data at a fixed 75 % noise level. The paper compares
  * implementations in three different languages and argues asymptotic
  * trends only; ours are all Scala in one JVM, so the trend (AdaWave
  * ~linear and fastest at scale vs the superlinear baselines) is the
  * reproduction target.
  */
object RuntimeHarness {

  val Methods: Seq[String] = Seq("AdaWave", "SkinnyDip", "DBSCAN", "EM", "K-Means")

  final case class RuntimeRow(n: Int, millis: Map[String, Double])

  private val Seed = 7L  // one input stream for every size
  private val Calls = 3  // timed calls per method and size

  def evaluate(spark: SparkSession, totalN: Int): RuntimeRow = {
    val clusterSize = math.max(1, (totalN * 0.25 / ClusterData.NumClusters).toInt)
    val (x, _) = ClusterData.runningExample(clusterSize, 0.75, Seed)
    val k = ClusterData.NumClusters

    val tAda = medianMs(Harness.adaWave(spark, x, AdaWaveConfig.auto(2)))
    val tSkinny = medianMs(SkinnyDip.fit(x))
    val tDb = medianMs(DBSCAN.fit(x, eps = 0.03, minPts = 8))
    val tEm = medianMs(EMGMM.fit(x, k, maxIter = 30))
    val tKm = medianMs(KMeans.fit(x, k, restarts = 2))

    RuntimeRow(x.length, Map(
      "AdaWave" -> tAda, "SkinnyDip" -> tSkinny, "DBSCAN" -> tDb,
      "EM" -> tEm, "K-Means" -> tKm))
  }

  /** The median time of `Calls` calls of `body`. A `System.gc()` first
    * collects the previous method's garbage outside this method's window.
    */
  private def medianMs(body: => Any): Double = {
    System.gc()
    Array.fill(Calls)(Harness.timeMs(body)._2).sorted.apply(Calls / 2)
  }

  def run(spark: SparkSession, sizes: Seq[Int] = Seq(7000, 14000, 28000, 56000, 112000)): Seq[RuntimeRow] =
    sizes.map { n =>
      val r = evaluate(spark, n)
      Console.err.println(s"[Fig 10] n=${r.n} done: " +
        Methods.map(m => f"$m=${r.millis(m)}%.0fms").mkString(" "))
      r
    }

  def render(rows: Seq[RuntimeRow]): String = {
    val header = "n" +: Methods.map(_ + " (ms)")
    val body = rows.map(r => r.n.toString +: Methods.map(m => f"${r.millis(m)}%.0f"))
    "FIG. 10 (as table) — runtime vs n at 75% noise (paper: AdaWave 2nd fastest,\n" +
      "near-linear; k-means/DBSCAN superlinear; SkinnyDip sub-linear but low AMI)\n" +
      Harness.formatTable(header, body)
  }
}
