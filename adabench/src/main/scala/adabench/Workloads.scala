package adabench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{AdaWave, AdaWaveConfig, AdaWaveResult}
import repro.data.{ClusterData, UciLike}
import repro.eval.AMI
import repro.harness.Harness

/** One call into the program: a point array goes in, a label array comes
  * out. `truth` is only used to score the output.
  */
final case class Call(x: Array[Array[Double]], truth: Array[Int], trueClasses: Int)

/** Which public entry point a workload calls. */
sealed trait Path
/** `Harness.adaWave` / `AdaWave.cluster` at a fixed configuration. */
final case class Fixed(cfg: AdaWaveConfig) extends Path
/** `Harness.adaWaveAuto` / `AdaWave.clusterAuto` (self-calibrated grid),
  * on d > 2 only: there it runs the Haar transform, which the output check
  * and the replay rely on.
  */
final case class Auto(assignNoise: Boolean) extends Path

/** A benchmark workload: how to draw one rep's calls from a seed, which
  * entry point they go through, and how a call's output is scored.
  *
  * @param protocol   the calls of the paper protocol's own rep, on the fixed
  *                   seeds the repository's table harnesses use. It is the
  *                   first warm-up rep, and `ami` and `k_excess` are scored
  *                   on it, so they repeat exactly and move only when the
  *                   program's output does.
  * @param warmupReps warm-up reps (the protocol rep, then reps drawn from
  *                   the seed), run and checked before timing starts
  */
final case class Workload(
    name: String,
    path: Path,
    warmupReps: Int,
    generate: Long => Seq[Call],
    protocol: () => Seq[Call],
    score: (Call, Array[Int]) => Double) {

  require(warmupReps >= 1, s"$name: the protocol rep is a warm-up rep")

  /** The timed operation: the public harness entry point. */
  def invoke(spark: SparkSession, x: Array[Array[Double]]): Array[Int] = path match {
    case Fixed(cfg) => Harness.adaWave(spark, x, cfg)
    case Auto(noise) => Harness.adaWaveAuto(spark, x, noise)
  }

  /** The pipeline entry point the harness wraps, for the replay check. */
  def direct(df: DataFrame, cols: Seq[String]): AdaWaveResult = path match {
    case Fixed(cfg) => AdaWave.cluster(df, cols, cfg)
    case Auto(noise) => AdaWave.clusterAuto(df, cols, noise)
  }
}

object Workloads {

  private def fig8Score(c: Call, pred: Array[Int]): Double =
    AMI.amiNonNoise(c.truth, pred, ClusterData.NoiseLabel)

  private def runningExample(clusterSize: Int, noise: Double, seed: Long): Call = {
    val (x, truth) = ClusterData.runningExample(clusterSize, noise, seed)
    Call(x, truth, ClusterData.NumClusters)
  }

  /** `UciLike.dermatology`'s parameters with every class `scale`× larger. */
  private def dermatology(scale: Int, seed: Long): Call = {
    val ds = UciLike.latentMix("Derm.", Array(112, 61, 72, 49, 52, 20).map(_ * scale), 33,
      latentD = 3, sep = 1.4, sigma = 0.25, seed = seed, shape = "arc", bgFrac = 0.25)
    Call(UciLike.unitScale(ds.x), ds.y, ds.k)
  }

  /** Table I Dermatology analogue with every class 164× larger:
    * n = 60 024, d = 33, unit-scaled, self-calibrated grid, noise assigned
    * to the nearest cluster (the paper's UCI protocol; protocol seed 16, the
    * default of `UciLike.dermatology`).
    */
  val derm33d60k: Workload = Workload("derm33d_60k", Auto(assignNoise = true),
    warmupReps = 1,
    generate = seed => Seq(dermatology(164, seed)),
    protocol = () => Seq(dermatology(164, 16L)),
    score = (c, pred) => AMI.ami(c.truth, pred))

  /** The AdaWave column of Fig. 8: eight calls per rep on the running
    * example (1 400 points per cluster) at 20, 30, …, 90 % noise (protocol
    * seed 7 for every level, as in `NoiseSweepHarness`).
    */
  val Fig8Noise: Seq[Double] = (2 to 9).map(_ / 10.0)

  val sweep2dFig8: Workload = Workload("sweep2d_fig8", Fixed(AdaWaveConfig.auto(2)),
    warmupReps = 4,
    generate = seed => Fig8Noise.indices.map(i => Seeds.call(seed, i)).zip(Fig8Noise)
      .map { case (s, g) => runningExample(1400, g, s) },
    protocol = () => Fig8Noise.map(g => runningExample(1400, g, 7L)),
    score = fig8Score)

  val all: Seq[Workload] = Seq(derm33d60k, sweep2dFig8)

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(
        s"unknown workload '$name'; known: ${all.map(_.name).mkString(", ")}"))
}
