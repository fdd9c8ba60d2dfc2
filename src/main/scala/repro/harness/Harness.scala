package repro.harness

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.baselines._
import repro.core._
import repro.data.ClusterData

/** Shared plumbing for the table harnesses: run every clustering method of
  * the paper on a driver-side point array (plus the Spark pipeline for
  * AdaWave) and return predicted labels aligned with the input order.
  */
object Harness {

  /** AdaWave via the Spark pipeline; returns labels in input row order.
    * `cfg.assignNoise` is applied to the collected labels by [[assignNoise]].
    */
  def adaWave(spark: SparkSession, x: Array[Array[Double]], cfg: AdaWaveConfig): Array[Int] =
    labelsOf(spark, x, cfg.assignNoise)(AdaWave.cluster(_, _, cfg.copy(assignNoise = false)))

  /** Parameter-free AdaWave (auto-calibrated resolution, see clusterAuto). */
  def adaWaveAuto(spark: SparkSession, x: Array[Array[Double]], assignNoise: Boolean): Array[Int] =
    labelsOf(spark, x, assignNoise)(AdaWave.clusterAuto(_, _))

  /** `run`'s labels in input row order, with noise assigned on the driver
    * when `noise` is set. No points have no dimension to cluster on, so
    * they get no labels and run nothing.
    */
  private def labelsOf(spark: SparkSession, x: Array[Array[Double]], noise: Boolean)
                      (run: (DataFrame, Seq[String]) => AdaWaveResult): Array[Int] =
    if (x.isEmpty) Array.emptyIntArray
    else {
      val df = ClusterData.toDFn(spark, x, Array.fill(x.length)(0))
      val labels = collectLabels(run(df, x(0).indices.map(i => s"f$i")), x.length)
      if (noise) assignNoise(x, labels) else labels
    }

  private def collectLabels(res: AdaWaveResult, n: Int): Array[Int] = {
    val out = Array.ofDim[Int](n)
    res.points.select("id", AdaWave.ClusterCol).collect()
      .foreach(r => out(r.getLong(0).toInt) = r.getInt(1))
    out
  }

  /** Nearest-centroid assignment of noise (label 0) points — the paper's
    * UCI protocol, applied to every method that emits a noise label so the
    * comparison stays apples-to-apples.
    *
    * Clusters are taken in order of first appearance. Each centroid
    * coordinate accumulates `x(i)(j) / count` in ascending `i`, and a noise
    * point goes to its `KMeans.nearest` centroid: the first cluster at the
    * least squared distance, where a NaN distance loses to every number.
    */
  def assignNoise(x: Array[Array[Double]], labels: Array[Int]): Array[Int] = {
    val n = labels.length
    // The distinct cluster ids, ascending, in a prefix of `keys`. Ids may
    // be any Int, so each point finds its id there by binary search.
    val keys = labels.clone()
    java.util.Arrays.sort(keys)
    var k = 0
    var i = 0
    while (i < n) {
      if (keys(i) != 0 && (k == 0 || keys(i) != keys(k - 1))) { keys(k) = keys(i); k += 1 }
      i += 1
    }
    if (k == 0) return labels

    // Each point's slot (-1 for noise); slots number the ids by first appearance.
    val slotOfKey = Array.fill(k)(-1)
    val ids = new Array[Int](k)
    val counts = new Array[Int](k)
    val slot = new Array[Int](n)
    var next = 0
    i = 0
    while (i < n) {
      if (labels(i) == 0) slot(i) = -1
      else {
        val key = java.util.Arrays.binarySearch(keys, 0, k, labels(i))
        if (slotOfKey(key) < 0) { slotOfKey(key) = next; ids(next) = labels(i); next += 1 }
        slot(i) = slotOfKey(key)
        counts(slot(i)) += 1
      }
      i += 1
    }

    val d = x(0).length
    val centroids = Array.ofDim[Double](k, d)
    i = 0
    while (i < n) {
      val c = slot(i)
      if (c >= 0) {
        val xi = x(i)
        var j = 0
        while (j < d) { centroids(c)(j) += xi(j) / counts(c); j += 1 }
      }
      i += 1
    }

    val out = labels.clone()
    i = 0
    while (i < n) {
      if (slot(i) < 0) out(i) = ids(KMeans.nearest(x(i), centroids))
      i += 1
    }
    out
  }

  private val DbscanMinPts = 8 // the paper's protocol
  private val DbscanCap = 6000 // above this many points in d > 6, cluster a sample
  private val DbscanSeed = 42L

  /** DBSCAN at the best AMI over an ε grid (the paper's protocol:
    * minPts = 8, ε ∈ grid, report the best run). Large high-dimensional
    * inputs are clustered on a deterministic sample and extended by 1-NN.
    */
  def dbscanBest(x: Array[Array[Double]], truth: Array[Int], epsGrid: Seq[Double],
                 score: (Array[Int], Array[Int]) => Double): (Array[Int], Double) = {
    val d = x(0).length
    val (xs, restore): (Array[Array[Double]], Array[Int] => Array[Int]) =
      if (d > 6 && x.length > DbscanCap) {
        // Which sampled point is nearest does not depend on ε; only its label does.
        val (sample, nearest) = KMeans.subsample(x, DbscanCap, DbscanSeed)
        (sample, sub => nearest.map(sub(_)))
      } else (x, identity[Array[Int]] _)
    var best: (Array[Int], Double) = (Array.fill(x.length)(1), Double.NegativeInfinity)
    for (eps <- epsGrid) {
      val full = restore(DBSCAN.fit(xs, eps, DbscanMinPts))
      val s = score(truth, full)
      if (s > best._2) best = (full, s)
    }
    best
  }

  def timeMs[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = body
    (a, (System.nanoTime() - t0) / 1e6)
  }

  /** Render rows as a fixed-width table (also valid Markdown-ish). */
  def formatTable(header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(_(i).length).max)
    def fmt(r: Seq[String]) =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
    val sep = widths.map("-" * _).mkString("|-", "-|-", "-|")
    (fmt(header) +: sep +: rows.map(fmt)).mkString("\n")
  }
}
