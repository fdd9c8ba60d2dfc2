package repro.harness

import org.apache.spark.sql.SparkSession
import repro.baselines._

import repro.data.UciLike
import repro.eval.AMI

/** Table I: AMI of eight methods on the nine (synthetic-analogue) UCI
  * datasets. Protocol per §V-C: every point has a true class; methods with
  * a noise concept get their noise points assigned to the nearest detected
  * cluster (the paper's "k-means iteration on the final AdaWave result").
  */
object RealWorldHarness {

  val Methods: Seq[String] =
    Seq("AdaWave", "SkinnyDip", "DBSCAN", "EM", "K-Means", "STSC", "DipMean", "RIC")

  /** Paper's Table I, same row order as [[Methods]], per dataset. */
  val PaperTable: Map[String, Seq[Double]] = Map(
    "Seeds"   -> Seq(0.475, 0.348, 0.000, 0.512, 0.607, 0.523, 0.000, 0.003),
    "Roadmap" -> Seq(0.735, 0.484, 0.313, 0.246, 0.619, 0.564, 0.459, 0.001),
    "Iris"    -> Seq(0.663, 0.306, 0.604, 0.750, 0.601, 0.734, 0.657, 0.424),
    "Glass"   -> Seq(0.467, 0.268, 0.170, 0.243, 0.136, 0.367, 0.135, 0.350),
    "DUMDH"   -> Seq(0.470, 0.348, 0.073, 0.343, 0.213, 0.000, 0.000, 0.131),
    "HTRU2"   -> Seq(0.217, 0.154, 0.000, 0.151, 0.116, 0.000, 0.000, 0.000),
    "Derm."   -> Seq(0.667, 0.638, 0.620, 0.336, 0.465, 0.608, 0.296, 0.053),
    "Motor"   -> Seq(1.000, 1.000, 1.000, 0.705, 0.835, 1.000, 1.000, 0.522),
    "Whol."   -> Seq(0.735, 0.866, 0.696, 0.578, 0.826, 0.568, 0.426, 0.308))

  final case class DatasetResult(name: String, n: Int, d: Int, scores: Map[String, Double])

  def evaluate(spark: SparkSession, ds: UciLike.Dataset): DatasetResult = {
    val x = UciLike.unitScale(ds.x)
    val truth = ds.y
    val k = ds.k
    def amiOf(pred: Array[Int]): Double = AMI.ami(truth, pred)

    val adaPred = Harness.adaWaveAuto(spark, x, assignNoise = true)
    val skinny = Harness.assignNoise(x, SkinnyDip.fit(x))
    // ε grid: the paper's stated protocol (minPts = 8, ε ∈ {0.01..0.2}) on
    // unit-scaled data. In high dimensions this grid finds little — visible
    // in the paper's own zero rows for Seeds/HTRU2.
    val (dbPred, _) = Harness.dbscanBest(
      x, truth, (1 to 20).map(_ * 0.01),
      score = (t, p) => AMI.ami(t, Harness.assignNoise(x, p)))
    // The paper runs the *default provided implementations* on the UCI data
    // (only k is set) — Weka-era defaults are a single run with random
    // initialization, not kmeans++ with restarts.
    val em = EMGMM.fit(x, k, init = "random").labels
    val km = KMeans.fit(x, k, restarts = 1, init = "random").labels
    val stsc = STSC.fit(x)
    val dipMean = DipMeans.fit(x)
    val ric = Harness.assignNoise(x, RIC.fit(x, kInit = math.min(16, 2 * k)))

    DatasetResult(ds.name, ds.n, ds.d, Map(
      "AdaWave"   -> amiOf(adaPred),
      "SkinnyDip" -> amiOf(skinny),
      "DBSCAN"    -> amiOf(Harness.assignNoise(x, dbPred)),
      "EM"        -> amiOf(em),
      "K-Means"   -> amiOf(km),
      "STSC"      -> amiOf(stsc),
      "DipMean"   -> amiOf(dipMean),
      "RIC"       -> amiOf(ric)))
  }

  def run(spark: SparkSession, roadmapN: Int = 20000): Seq[DatasetResult] =
    UciLike.all(roadmapN).map { ds =>
      val r = evaluate(spark, ds)
      Console.err.println(s"[Table I] ${ds.name} done: " +
        Methods.map(m => f"$m=${r.scores(m)}%.3f").mkString(" "))
      r
    }

  def render(results: Seq[DatasetResult]): String = {
    val header = "Method" +: results.map(r => s"${r.name} (${r.n},${r.d})")
    val rows = Methods.map { m =>
      m +: results.map(r => f"${r.scores(m)}%.3f")
    }
    val paperRows = Methods.zipWithIndex.map { case (m, i) =>
      s"paper:$m" +: results.map(r => PaperTable.get(r.name).map(v => f"${v(i)}%.3f").getOrElse("-"))
    }
    "TABLE I — AMI on real-world-analogue datasets (measured, then paper)\n" +
      Harness.formatTable(header, rows ++ paperRows)
  }
}
