package adabench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._
import repro.data.ClusterData

/** Driver-side stage measurements of one call, from a replay. */
final case class StageTimes(
    cells: Int,
    coarsenNs: Long,
    coarsenCalls: Int,
    transformNs: Long,
    cellsOut: Int,
    thresholdNs: Long,
    positiveCells: Int,
    keptCells: Int,
    threshold: Double,
    labelNs: Long,
    components: Int)

/** Replays a call's input through the pipeline's public stage functions
  * in the order `AdaWave.cluster` / `clusterAuto` call them, timing each
  * call. This splits the driver-side gap the traced rep shows (between the
  * last `Grid` job and the next job) by module. The replay must agree with
  * the pipeline itself: see [[Replay.verify]].
  */
object Replay {

  /** The frame and columns `Harness` builds for `x`. */
  def frame(spark: SparkSession, x: Array[Array[Double]]): (DataFrame, Seq[String]) = {
    val d = x.headOption.map(_.length).getOrElse(0)
    (ClusterData.toDFn(spark, x, Array.fill(x.length)(0)), (0 until d).map(i => s"f$i"))
  }

  def run(spark: SparkSession, x: Array[Array[Double]], path: Path): StageTimes = {
    val (df, cols) = frame(spark, x)
    val d = cols.size
    path match {
      case Fixed(cfg) => stages(Grid.quantize(df, cols, cfg.bins), 0, cfg, d, new Timer)
      case Auto(noise) =>
        // The calibration loop of `clusterAuto` for d > 2 (the only
        // dimensions an `Auto` workload has), with every coarsen timed.
        val fine = 64
        val q = Grid.quantize(df, cols, fine)
        val n = q.cells.values.sum
        val t = new Timer
        var cells = q.cells
        var shift = 0
        while ((fine >> shift) > 4 && t.coarsen(cells).size > n / 3) {
          cells = t.coarsen(cells)
          shift += 1
        }
        val cfg = AdaWaveConfig(bins = fine >> shift, levels = 1, family = Wavelet.Haar,
          diagonal = false, assignNoise = noise)
        stages(q, shift, cfg, d, t)
    }
  }

  /** `AdaWave.run`'s driver stages, each timed. */
  private def stages(q: Quantized, coarsenShift: Int, cfg: AdaWaveConfig, d: Int,
                     t: Timer): StageTimes = {
    var cells = q.cells
    for (_ <- 0 until coarsenShift) cells = t.coarsen(cells)
    val (transformed, transformNs) = timed(Wavelet.transform(cells, d, cfg.family, cfg.levels))
    val positive = transformed.filter { case (_, v) => v > 0 }
    val (thr, thresholdNs) = timed(Elbow.threshold(positive.values))
    val kept = positive.collect { case (c, v) if v >= thr => c }.toSet
    val (labels, labelNs) = timed(ConnectedComponents.label(kept, cfg.diagonal && d <= 8))
    StageTimes(q.cells.size, t.coarsenNs, t.coarsenCalls, transformNs, transformed.size,
      thresholdNs, positive.size, kept.size, thr, labelNs,
      if (labels.isEmpty) 0 else labels.values.max)
  }

  /** None when the replay reproduces the pipeline's own component count
    * and threshold on the same input; otherwise what differs.
    */
  def verify(spark: SparkSession, x: Array[Array[Double]], w: Workload,
             replayed: StageTimes): Option[String] = {
    val (df, cols) = frame(spark, x)
    val res = w.direct(df, cols)
    if (res.numClusters != replayed.components || res.threshold != replayed.threshold)
      Some(s"replay found ${replayed.components} components at threshold ${replayed.threshold}, " +
        s"the pipeline ${res.numClusters} at ${res.threshold}")
    else None
  }

  private def timed[A](body: => A): (A, Long) = {
    val t0 = System.nanoTime()
    val a = body
    (a, System.nanoTime() - t0)
  }

  private final class Timer {
    var coarsenNs = 0L
    var coarsenCalls = 0
    def coarsen(cells: Map[Vector[Int], Double]): Map[Vector[Int], Double] = {
      val (out, ns) = timed(AdaWave.coarsen(cells))
      coarsenNs += ns
      coarsenCalls += 1
      out
    }
  }
}
