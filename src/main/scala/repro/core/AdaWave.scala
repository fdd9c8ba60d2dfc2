package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import scala.annotation.tailrec

/** Configuration of the AdaWave pipeline.
  *
  * The paper presents AdaWave as parameter-free; [[AdaWaveConfig.auto]]
  * encodes its defaults for d ≤ 2 (`scale = 128`, §V-B). For d ≥ 3, where
  * 128 bins per dimension would put every point in its own cell,
  * [[AdaWave.clusterAuto]] calibrates the grid to the data instead.
  *
  * @param bins        bins per dimension (the paper's `scale`)
  * @param levels      wavelet decomposition levels (average subband only)
  * @param family      wavelet family (analysis low-pass filter)
  * @param diagonal    use the Moore neighbourhood for connected components
  * @param assignNoise after clustering, assign noise points to the nearest
  *                    cluster centroid — the paper does exactly this for the
  *                    real-world (UCI) evaluation where no noise label exists.
  *                    The harness runs the pipeline without it and assigns
  *                    noise on the driver (`Harness.assignNoise`). It remains
  *                    only for the DataFrame API and the benchmark's replay,
  *                    which compiles against it, and goes with
  *                    [[AdaWave.assignNoiseToNearest]] (ROADMAP item 1)
  */
final case class AdaWaveConfig(
    bins: Int = 128,
    levels: Int = 1,
    family: Wavelet.Family = Wavelet.CDF22,
    diagonal: Boolean = true,
    assignNoise: Boolean = false)

object AdaWaveConfig {

  /** The paper's parameter-free defaults for d ≤ 2: 128 bins (its `scale`
    * default), CDF(2,2) and the Moore neighbourhood.
    */
  def auto(d: Int): AdaWaveConfig = {
    require(d <= 2, s"AdaWaveConfig.auto covers d <= 2; for d = $d use AdaWave.clusterAuto, " +
      "which calibrates the grid to the data")
    AdaWaveConfig()
  }
}

/** Result of an AdaWave run.
  *
  * @param points      input rows + a `cluster` column (0 = noise)
  * @param numClusters number of connected components found
  * @param threshold   the adaptive density threshold that was applied
  * @param cellLabels  the kept transformed cells, valued by cluster id
  */
final case class AdaWaveResult(
    points: DataFrame,
    numClusters: Int,
    threshold: Double,
    cellLabels: CellGrid)

/** AdaWave (Algorithm 1): quantize → wavelet transform → adaptive threshold
  * → connected components → lookup table → point labels.
  *
  * Quantization, density aggregation and the final label join run on Spark;
  * the O(M) sparse-grid stages (M = non-empty cells ≪ N points) run on the
  * driver, mirroring the paper's single-machine formulation. The lookup
  * table (original cell → transformed cell → label) is broadcast implicitly
  * through a UDF closure.
  */
object AdaWave {

  val NoiseLabel = 0
  val ClusterCol = "cluster"

  def cluster(df: DataFrame, cols: Seq[String], cfg: AdaWaveConfig): AdaWaveResult = {
    val q = Grid.quantize(df, cols, cfg.bins)
    // Step 2: wavelet decomposition, average subband only.
    val transformed = Wavelet.transform(q.grid, cfg.family, cfg.levels)
    run(df, cols, q, transformed, cfg.levels, cfg.diagonal, cfg.assignNoise)
  }

  /** Fully parameter-free entry point. For d ≤ 2 this is the paper's
    * default (`scale = 128`, CDF(2,2)). For higher dimensions the grid
    * resolution is auto-calibrated to the data's (unknown) intrinsic
    * dimension: quantize once at a fine 64-bin grid, then pick the number
    * of dyadic levels to merge (Haar cells nest) so that the occupied-cell
    * count drops below n/3, i.e. cells hold enough points for densities to
    * be meaningful, and take the Haar average subband ([[calibrate]]).
    * Haar, not CDF(2,2): in higher d the hat filter's 5-tap support fans
    * each cell into ~2.5^d transformed cells and blurs every cluster into
    * one connected mass.
    */
  def clusterAuto(df: DataFrame, cols: Seq[String], assignNoise: Boolean = false): AdaWaveResult = {
    val d = cols.size
    if (d <= 2)
      return cluster(df, cols, AdaWaveConfig.auto(d).copy(assignNoise = assignNoise))
    val q = Grid.quantize(df, cols, 64)
    val (transformed, shift) = calibrate(q.grid, q.bins)
    run(df, cols, q, transformed, shift + 1, diagonal = false, assignNoise)
  }

  /** Calibrates `fine` (cells of a `bins`-bin grid) and returns its Haar
    * average subband with the calibration shift.
    *
    * Looking one level ahead, since the transform downsamples once more:
    * the shift advances while the grid keeps more than 4 bins and the count
    * of distinct cells `p >> (shift + 1)` is above n/3. Each level is merged
    * once from the one before, and the last merge, at `shift + 1`, is the
    * transform: the Haar average subband is that merge weighted 2^-d. The
    * counts are integers and the weight a power of two, so this equals
    * `shift` one-level merges followed by `Wavelet.transform(_, Haar, 1)`
    * exactly.
    */
  private[core] def calibrate(fine: CellGrid, bins: Int): (CellGrid, Int) = {
    val n = fine.values.sum
    @tailrec def advance(level: CellGrid, shift: Int): (CellGrid, Int) = {
      val next = level.merged(1, 1.0)
      if ((bins >> shift) > 4 && next.size > n / 3) advance(next, shift + 1) else (next, shift)
    }
    val (merged, shift) = advance(fine, 0)
    (merged.withValues(merged.values.map(math.scalb(_, -fine.d))), shift)
  }

  /** Merges boxed cells one dyadic level coarser: the Haar low-pass without
    * its 2^-d weight. A replay shim (ROADMAP item 1).
    */
  def coarsen(cells: Map[Vector[Int], Double]): Map[Vector[Int], Double] =
    CellGrid.fromMap(cells).merged(1, 1.0).toMap

  /** Steps 3–6 on the transformed cells; labels `df`. A row's fine-grid
    * cell shifted right by `labelShift` is its transformed cell.
    */
  private def run(df: DataFrame, cols: Seq[String], q: Quantized, transformed: CellGrid,
                  labelShift: Int, diagonal: Boolean, assignNoise: Boolean): AdaWaveResult = {
    val d = cols.size
    // Step 3: adaptive threshold filtering ("elbow theory"). Negative
    // coefficients (side lobes of the hat filter over noise) are unphysical
    // densities — drop them before the curve is fitted.
    val positive = transformed.filter(_ > 0)
    val thr = Elbow.threshold(positive.values)

    // Step 4: connected components in the transformed feature space.
    val labels = ConnectedComponents.label(positive.filter(_ >= thr), diagonal && d <= 8)
    val numClusters = labels.values.foldLeft(0.0)(math.max).toInt

    // Step 5/6: lookup table original cell → transformed cell → label. The
    // closure holds only what the lookup reads, not `q` and its M cells.
    val (mins, widths, bins) = (q.mins, q.widths, q.bins)
    val labelUdf = udf { (xs: Array[Double]) =>
      val cell = new Array[Int](xs.length)
      Grid.cellOf(xs, mins, widths, bins, cell)
      var i = 0
      while (i < cell.length) { cell(i) >>= labelShift; i += 1 }
      val j = labels.indexOf(cell, 0)
      if (j < 0) NoiseLabel else labels.value(j).toInt
    }
    var labeled = df.withColumn(ClusterCol, labelUdf(array(Grid.coordinates(cols): _*)))

    if (assignNoise && numClusters > 0) labeled = assignNoiseToNearest(labeled, cols, numClusters)

    AdaWaveResult(labeled, numClusters, thr, labels)
  }

  /** The paper's UCI protocol (§V-C): "we run the k-means iteration on the
    * final AdaWave result to assign any detected noise objects to a 'true'
    * cluster" — i.e. one Lloyd assignment step against the centroids of the
    * discovered clusters `1..k`.
    *
    * The harness assigns noise on the driver with `Harness.assignNoise`
    * instead, which needs no centroid job and no UDF in the label pass.
    * This Spark version, with `clusterMeans` and `centroidRows`, stays
    * only for the DataFrame API (`assignNoise = true`) and for the
    * benchmark's replay, which compiles against it; both go with ROADMAP
    * item 1.
    */
  def assignNoiseToNearest(labeled: DataFrame, cols: Seq[String], k: Int): DataFrame = {
    val centroids = clusterMeans(labeled, cols, k)
    if (centroids.isEmpty) return labeled

    val nearest = udf { (label: Int, xs: Seq[Double]) =>
      if (label != NoiseLabel) label
      else centroids.minBy { case (_, ctr) =>
        var s = 0.0
        var i = 0
        while (i < ctr.length) { val dd = xs(i) - ctr(i); s += dd * dd; i += 1 }
        s
      }._1
    }
    labeled.withColumn(ClusterCol,
      nearest(col(ClusterCol), array(cols.map(c => col(c).cast("double")): _*)))
  }

  /** The rows the centroids are summed over: label, then each coordinate. */
  private[core] def centroidRows(labeled: DataFrame, cols: Seq[String]): DataFrame =
    labeled.select(col(ClusterCol) +: cols.map(c => col(c).cast("double")): _*)

  /** Per-cluster coordinate means of clusters `1..k` that hold a point, in
    * label order. Each partition sums its rows into primitive arrays in one
    * pass with no shuffle ([[PartitionFold]]). A null coordinate is left out
    * of its column's mean, as `avg` does.
    */
  private def clusterMeans(labeled: DataFrame, cols: Seq[String], k: Int): Array[(Int, Array[Double])] = {
    val d = cols.size
    val (sums, counts) = PartitionFold(centroidRows(labeled, cols)) { rows =>
      val sums = new Array[Double]((k + 1) * d)
      val counts = new Array[Long]((k + 1) * d)
      rows.foreach { r =>
        val label = r.getInt(0)
        if (label != NoiseLabel) {
          var i = 0
          while (i < d) {
            if (!r.isNullAt(i + 1)) {
              sums(label * d + i) += r.getDouble(i + 1)
              counts(label * d + i) += 1
            }
            i += 1
          }
        }
      }
      (sums, counts)
    }((new Array[Double]((k + 1) * d), new Array[Long]((k + 1) * d))) { (acc, part) =>
      for (j <- acc._1.indices) { acc._1(j) += part._1(j); acc._2(j) += part._2(j) }
      acc
    }
    (1 to k).filter(c => counts(c * d) > 0).map { c =>
      c -> Array.tabulate(d)(i => sums(c * d + i) / counts(c * d + i))
    }.toArray
  }
}
