package repro.data

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types._
import scala.util.Random

/** The paper's synthetic evaluation dataset (§V-B): five 2-D clusters of
  * equal size inside the unit square — an approximately rectangular blob
  * (uniform rectangle + Gaussian σ=0.005 jitter), two overlapping discs
  * (overlapping in both the x and y projections), and two concentric rings
  * ("parallel lines ... circular in concentric distribution") — plus a
  * γ-fraction of uniform noise over the unit square.
  *
  * Labels: 0 = noise, 1..5 = clusters. Deterministic in (clusterSize, γ,
  * seed), so Spark and driver-side consumers see identical data.
  */
object ClusterData {

  val NoiseLabel = 0
  val NumClusters = 5

  def runningExample(clusterSize: Int = 5600, noiseFrac: Double = 0.5,
                     seed: Long = 7): (Array[Array[Double]], Array[Int]) = {
    require(noiseFrac >= 0 && noiseFrac < 1)
    val rnd = new Random(seed)
    val pts = Array.newBuilder[Array[Double]]
    val lbl = Array.newBuilder[Int]

    def add(label: Int, p: Array[Double]): Unit = { pts += p; lbl += label }

    // Shapes are compact (≈9 % of the unit square) so that at high noise
    // the uniform clutter dominates any SSE/likelihood landscape — the
    // regime of the paper's Fig. 7.
    // 1: rectangular blob.
    for (_ <- 0 until clusterSize)
      add(1, Array(0.10 + rnd.nextDouble() * 0.16 + rnd.nextGaussian() * 0.005,
                   0.76 + rnd.nextDouble() * 0.08 + rnd.nextGaussian() * 0.005))
    // 2, 3: spatially disjoint discs whose x and y projections overlap
    // (the arrangement that defeats per-axis unimodal methods).
    for (_ <- 0 until clusterSize) add(2, disc(rnd, 0.62, 0.74, 0.068))
    for (_ <- 0 until clusterSize) add(3, disc(rnd, 0.74, 0.62, 0.068))
    // 4, 5: concentric rings.
    for (_ <- 0 until clusterSize) add(4, ring(rnd, 0.30, 0.30, 0.080, 0.008))
    for (_ <- 0 until clusterSize) add(5, ring(rnd, 0.30, 0.30, 0.145, 0.008))

    val nCluster = NumClusters * clusterSize
    val nNoise = math.round(nCluster * noiseFrac / (1.0 - noiseFrac)).toInt
    for (_ <- 0 until nNoise)
      add(NoiseLabel, Array(rnd.nextDouble(), rnd.nextDouble()))

    (pts.result(), lbl.result())
  }

  private def disc(rnd: Random, cx: Double, cy: Double, r: Double): Array[Double] = {
    val rr = r * math.sqrt(rnd.nextDouble())
    val th = rnd.nextDouble() * 2 * math.Pi
    Array(cx + rr * math.cos(th), cy + rr * math.sin(th))
  }

  private def ring(rnd: Random, cx: Double, cy: Double, r: Double, sigma: Double): Array[Double] = {
    val rr = r + rnd.nextGaussian() * sigma
    val th = rnd.nextDouble() * 2 * math.Pi
    Array(cx + rr * math.cos(th), cy + rr * math.sin(th))
  }

  /** Points as a DataFrame for the Spark-side pipeline: columns
    * f0..f{d-1}, label, and a stable row id (the input index) for
    * re-aligning collected results, in input order over 8 partitions.
    *
    * The rows travel to the executors once, as a broadcast of `(x, labels)`;
    * each partition is an id range of `sparkContext.range`, so no task
    * carries row data and later passes over the frame do not re-ship it.
    * The frame outlives this call, so Spark's ContextCleaner, not this
    * method, frees the broadcast.
    */
  def toDFn(spark: SparkSession, x: Array[Array[Double]], labels: Array[Int]): DataFrame = {
    val d = x.headOption.map(_.length).getOrElse(0)
    val schema = StructType(
      (0 until d).map(i => StructField(s"f$i", DoubleType)) :+
        StructField("label", IntegerType) :+ StructField("id", LongType))
    val points = spark.sparkContext.broadcast((x, labels))
    val rows = spark.sparkContext.range(0, x.length, 1, 8).map { i =>
      val (xs, ls) = points.value
      Row.fromSeq(xs(i.toInt).toSeq :+ ls(i.toInt) :+ i)
    }
    spark.createDataFrame(rows, schema)
  }
}
