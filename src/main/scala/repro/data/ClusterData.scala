package repro.data

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Row, SQLContext, SparkSession}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.SpecificInternalRow
import org.apache.spark.sql.sources.{BaseRelation, TableScan}
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
    * Every row of `x` must have the length of `x(0)`, and `labels` one
    * entry per row.
    *
    * The points are copied once into one flat array of n·d coordinates and
    * travel to the executors once, as a broadcast of `(flat, labels)`. Each
    * partition is an id range of `sparkContext.range`, so no task carries
    * row data and later passes over the frame do not re-ship it. The scan
    * yields Spark's internal rows directly, so no per-row `Row` or
    * converter is built. Building the frame runs no Spark job. The frame
    * outlives this call, so Spark's ContextCleaner, not this method, frees
    * the broadcast.
    */
  def toDFn(spark: SparkSession, x: Array[Array[Double]], labels: Array[Int]): DataFrame = {
    val n = x.length
    val d = x.headOption.map(_.length).getOrElse(0)
    require(labels.length == n, s"toDFn: ${labels.length} labels for $n points")
    require(n.toLong * d <= Int.MaxValue, s"toDFn: $n points of $d coordinates exceed one array")
    val flat = new Array[Double](n * d)
    var i = 0
    while (i < n) {
      val row = x(i)
      require(row.length == d, s"toDFn: row $i has ${row.length} coordinates, row 0 has $d")
      System.arraycopy(row, 0, flat, i * d, d)
      i += 1
    }
    val schema = StructType(
      (0 until d).map(i => StructField(s"f$i", DoubleType)) :+
        StructField("label", IntegerType) :+ StructField("id", LongType))
    val points = spark.sparkContext.broadcast((flat, labels))
    spark.baseRelationToDataFrame(new PointsRelation(spark.sqlContext, schema, points, n, d))
  }

  /** The scan behind [[toDFn]]: each id range of `sparkContext.range` is
    * read from the broadcast into one reused internal row per partition.
    * Reusing the row is safe because `RowDataSourceScanExec`, the plan node
    * Spark makes of a `TableScan`, projects each row to an `UnsafeRow` at
    * once (in generated code too: its `createUnsafeProjection` is set), before
    * it asks for the next one.
    */
  private class PointsRelation(val sqlContext: SQLContext, val schema: StructType,
                               points: Broadcast[(Array[Double], Array[Int])],
                               n: Int, d: Int) extends BaseRelation with TableScan {
    override def needConversion: Boolean = false

    override def buildScan(): RDD[Row] = {
      // Locals, so the closure does not capture this relation.
      val bc = points
      val dim = d
      val types = schema.map(_.dataType)
      val rows: RDD[InternalRow] = sqlContext.sparkContext.range(0, n, 1, 8).mapPartitions { ids =>
        val (flat, ls) = bc.value
        val row = new SpecificInternalRow(types)
        ids.map { id =>
          val i = id.toInt
          var j = 0
          while (j < dim) { row.setDouble(j, flat(i * dim + j)); j += 1 }
          row.setInt(dim, ls(i))
          row.setLong(dim + 1, id)
          row
        }
      }
      // With needConversion = false Spark reads the rows as internal rows.
      rows.asInstanceOf[RDD[Row]]
    }
  }
}
