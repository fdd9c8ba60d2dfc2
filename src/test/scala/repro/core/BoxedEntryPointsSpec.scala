package repro.core

import repro.{Oracle, SparkSpec}
import repro.data.ClusterData
import scala.util.Random

/** The boxed entry points kept for the benchmark's replay
  * (`Quantized.cells`, `Wavelet.transform` on a `Map`,
  * `ConnectedComponents.label` on a `Set`, `AdaWave.coarsen`) must give
  * what the flat pipeline gives on the same input, so that the replay and
  * the pipeline cannot drift apart.
  */
class BoxedEntryPointsSpec extends SparkSpec {

  /** The replay's stages from the boxed transform on: positive cells,
    * threshold, and the kept cells' component ids.
    */
  private def boxedStages(transformed: Map[Vector[Int], Double], diagonal: Boolean) = {
    val positive = transformed.filter { case (_, v) => v > 0 }
    val thr = Elbow.threshold(positive.values)
    val kept = positive.collect { case (c, v) if v >= thr => c }.toSet
    (thr, ConnectedComponents.label(kept, diagonal))
  }

  private def check(res: AdaWaveResult, transformed: CellGrid, boxed: Map[Vector[Int], Double],
                    diagonal: Boolean): Unit = {
    assert(boxed == Oracle.boxed(transformed))
    val (thr, labels) = boxedStages(boxed, diagonal)
    val flatLabels = ConnectedComponents.label(
      transformed.filter(_ > 0).filter(_ >= thr), diagonal)
    assert(labels == Oracle.boxed(flatLabels).map { case (c, id) => c -> id.toInt })
    assert(thr == res.threshold)
    assert(labels.values.max == res.numClusters)
    assert(Oracle.boxed(res.cellLabels) == Oracle.boxed(flatLabels))
  }

  test("cluster: boxed cells, transform and components equal the flat pipeline's") {
    val (x, _) = ClusterData.runningExample(clusterSize = 700, noiseFrac = 0.5, seed = 3)
    val df = ClusterData.toDFn(spark, x, Array.fill(x.length)(0))
    val (cols, cfg) = (Seq("f0", "f1"), AdaWaveConfig.auto(2))
    val q = Grid.quantize(df, cols, cfg.bins)
    assert(q.cells == Oracle.boxed(q.grid))
    val res = AdaWave.cluster(df, cols, cfg)
    assert(res.numClusters > 1)
    check(res, Wavelet.transform(q.grid, cfg.family, cfg.levels),
      Wavelet.transform(q.cells, 2, cfg.family, cfg.levels), cfg.diagonal)
  }

  test("clusterAuto: the boxed coarsen loop and transform equal the flat calibration") {
    val rnd = new Random(17)
    val centers = Array.fill(3)(Array.fill(6)(rnd.nextDouble()))
    val x = Array.tabulate(1500) { i =>
      if (i % 5 == 0) Array.fill(6)(rnd.nextDouble())
      else Array.tabulate(6)(j => centers(i % 3)(j) + rnd.nextGaussian() * 0.02)
    }
    val df = ClusterData.toDFn(spark, x, Array.fill(x.length)(0))
    val cols = (0 until 6).map(i => s"f$i")
    val q = Grid.quantize(df, cols, 64)
    assert(q.cells == Oracle.boxed(q.grid))
    assert(AdaWave.coarsen(q.cells) == Oracle.boxed(q.grid.merged(1, 1.0)))

    // The replay's loop: coarsen while the grid keeps more than 4 bins and
    // the next level has more than n/3 cells.
    var (cells, shift) = (q.cells, 0)
    while ((64 >> shift) > 4 && AdaWave.coarsen(cells).size > x.length / 3.0) {
      cells = AdaWave.coarsen(cells)
      shift += 1
    }
    val (transformed, flatShift) = AdaWave.calibrate(q.grid, 64)
    assert(shift == flatShift && shift > 0)
    val res = AdaWave.clusterAuto(df, cols)
    assert(res.numClusters > 1)
    check(res, transformed, Wavelet.transform(cells, 6, Wavelet.Haar, 1), diagonal = false)
  }
}
