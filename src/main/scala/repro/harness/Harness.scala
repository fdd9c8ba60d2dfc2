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

  /** AdaWave via the Spark pipeline; returns labels in input row order. */
  def adaWave(spark: SparkSession, x: Array[Array[Double]], cfg: AdaWaveConfig): Array[Int] =
    labelsOf(spark, x)(AdaWave.cluster(_, _, cfg))

  /** Parameter-free AdaWave (auto-calibrated resolution, see clusterAuto). */
  def adaWaveAuto(spark: SparkSession, x: Array[Array[Double]], assignNoise: Boolean): Array[Int] =
    labelsOf(spark, x)(AdaWave.clusterAuto(_, _, assignNoise))

  /** `run`'s labels in input row order. No points have no dimension to
    * cluster on, so they get no labels and run nothing.
    */
  private def labelsOf(spark: SparkSession, x: Array[Array[Double]])
                      (run: (DataFrame, Seq[String]) => AdaWaveResult): Array[Int] =
    if (x.isEmpty) Array.emptyIntArray
    else {
      val df = ClusterData.toDFn(spark, x, Array.fill(x.length)(0))
      collectLabels(run(df, x(0).indices.map(i => s"f$i")), x.length)
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
    */
  def assignNoise(x: Array[Array[Double]], labels: Array[Int]): Array[Int] = {
    val ids = labels.distinct.filter(_ != 0)
    if (ids.isEmpty) return labels
    val d = x(0).length
    val slot = ids.zipWithIndex.toMap
    val counts = new Array[Int](ids.length)
    for (l <- labels if l != 0) counts(slot(l)) += 1
    val centroids = Array.ofDim[Double](ids.length, d)
    for (i <- labels.indices if labels(i) != 0) {
      val c = slot(labels(i))
      for (j <- 0 until d) centroids(c)(j) += x(i)(j) / counts(c)
    }
    Array.tabulate(labels.length) { i =>
      if (labels(i) != 0) labels(i)
      else ids(centroids.indices.minBy(c => LinAlg.sqDist(x(i), centroids(c))))
    }
  }

  /** DBSCAN at the best AMI over an ε grid (the paper's protocol:
    * minPts = 8, ε ∈ grid, report the best run). Large high-dimensional
    * inputs are clustered on a deterministic sample and extended by 1-NN.
    */
  def dbscanBest(x: Array[Array[Double]], truth: Array[Int], epsGrid: Seq[Double],
                 minPts: Int = 8, score: (Array[Int], Array[Int]) => Double,
                 cap: Int = 6000, seed: Long = 42): (Array[Int], Double) = {
    val d = x(0).length
    val (xs, restore): (Array[Array[Double]], Array[Int] => Array[Int]) =
      if (d > 6 && x.length > cap) {
        val rnd = new scala.util.Random(seed)
        val idx = rnd.shuffle(x.indices.toVector).take(cap).toArray.sorted
        val sample = idx.map(x(_))
        (sample, sub => extend1NN(x, idx, sample, sub))
      } else (x, identity[Array[Int]] _)
    var best: (Array[Int], Double) = (Array.fill(x.length)(1), Double.NegativeInfinity)
    for (eps <- epsGrid) {
      val full = restore(DBSCAN.fit(xs, eps, minPts))
      val s = score(truth, full)
      if (s > best._2) best = (full, s)
    }
    best
  }

  def extend1NN(x: Array[Array[Double]], sampleIdx: Array[Int],
                sample: Array[Array[Double]], sampleLabels: Array[Int]): Array[Int] = {
    Array.tabulate(x.length) { i =>
      var bestJ = 0
      var bestD = Double.MaxValue
      for (j <- sample.indices) {
        val dd = LinAlg.sqDist(x(i), sample(j))
        if (dd < bestD) { bestD = dd; bestJ = j }
      }
      sampleLabels(bestJ)
    }
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
