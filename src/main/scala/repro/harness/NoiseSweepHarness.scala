package repro.harness

import org.apache.spark.sql.SparkSession
import repro.baselines._
import repro.core.AdaWaveConfig
import repro.data.ClusterData
import repro.eval.AMI

/** Fig. 8 as a table: mean AMI vs noise percentage on the paper's synthetic
  * five-cluster dataset. Protocol per §V-B: AdaWave parameter-free
  * (scale = 128); DBSCAN minPts = 8 at the best ε from a grid; k-means and
  * EM get the correct k; AMI only counts points whose *true* label is a
  * cluster (noise points excluded from the metric, not from the input).
  */
object NoiseSweepHarness {

  val Methods: Seq[String] = Seq("AdaWave", "SkinnyDip", "DBSCAN", "EM", "K-Means")

  /** Approximate values read off the paper's Fig. 8 curves (for EXPERIMENTS.md
    * diffing; the paper prints no exact table for this figure).
    */
  val PaperApprox: Map[Int, Seq[Double]] = Map(
    20 -> Seq(0.80, 0.40, 0.55, 0.35, 0.30),
    30 -> Seq(0.80, 0.40, 0.35, 0.33, 0.28),
    40 -> Seq(0.78, 0.38, 0.30, 0.32, 0.27),
    50 -> Seq(0.78, 0.38, 0.28, 0.30, 0.26),
    60 -> Seq(0.77, 0.37, 0.25, 0.28, 0.25),
    70 -> Seq(0.76, 0.36, 0.22, 0.27, 0.25),
    80 -> Seq(0.76, 0.35, 0.20, 0.25, 0.24),
    90 -> Seq(0.60, 0.30, 0.15, 0.22, 0.22))

  final case class SweepRow(noisePct: Int, scores: Map[String, Double])

  private val NoiseLevels = Seq(20, 30, 40, 50, 60, 70, 80, 90) // Fig. 8's x-axis, in %
  private val Seed = 7L // one input stream for every noise level

  def evaluate(spark: SparkSession, noisePct: Int, clusterSize: Int): SweepRow = {
    val gamma = noisePct / 100.0
    val (x, truth) = ClusterData.runningExample(clusterSize, gamma, Seed)
    val k = ClusterData.NumClusters
    def score(pred: Array[Int]): Double = AMI.amiNonNoise(truth, pred, ClusterData.NoiseLabel)

    val ada = Harness.adaWave(spark, x, AdaWaveConfig.auto(2))
    val skinny = SkinnyDip.fit(x)
    val (db, _) = Harness.dbscanBest(x, truth, (1 to 10).map(_ * 0.01),
      score = (t, p) => AMI.amiNonNoise(t, p, ClusterData.NoiseLabel))
    // §V-B protocol: k-means/EM get the correct k but otherwise run as the
    // provided implementations' defaults — single runs with random init.
    // The paper reports the *mean* AMI per parameter combination, so the
    // stochastic baselines are averaged over three seeds.
    val emScore = (0 until 3).map(s =>
      score(EMGMM.fit(x, k, maxIter = 50, init = "random", seed = 42 + 7 * s).labels)).sum / 3
    val kmScore = (0 until 3).map(s =>
      score(KMeans.fit(x, k, restarts = 1, init = "random", seed = 42 + 7 * s).labels)).sum / 3

    SweepRow(noisePct, Map(
      "AdaWave" -> score(ada), "SkinnyDip" -> score(skinny), "DBSCAN" -> score(db),
      "EM" -> emScore, "K-Means" -> kmScore))
  }

  def run(spark: SparkSession, clusterSize: Int = 1400): Seq[SweepRow] =
    NoiseLevels.map { pct =>
      val r = evaluate(spark, pct, clusterSize)
      Console.err.println(s"[Fig 8] noise=$pct% done: " +
        Methods.map(m => f"$m=${r.scores(m)}%.3f").mkString(" "))
      r
    }

  def render(rows: Seq[SweepRow]): String = {
    val header = "Noise %" +: Methods ++: Methods.map(m => s"paper:$m")
    val body = rows.map { r =>
      r.noisePct.toString +:
        Methods.map(m => f"${r.scores(m)}%.3f") ++:
        Methods.indices.map { i =>
          PaperApprox.get(r.noisePct).map(v => f"${v(i)}%.2f").getOrElse("-")
        }
    }
    "FIG. 8 (as table) — AMI vs noise % on the synthetic dataset\n" +
      Harness.formatTable(header, body)
  }
}
