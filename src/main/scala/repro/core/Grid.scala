package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.expressions.UserDefinedFunction
import org.apache.spark.sql.functions._

/** Result of quantizing a point set onto a sparse grid.
  *
  * @param points original rows plus a `__cell` array<int> column
  * @param cells  the paper's "grid labeling" structure: only non-empty
  *               cells, as `{cell coordinates → point count}`
  * @param mins   per-dimension minimum used for scaling
  * @param widths per-dimension bin width (never zero)
  * @param bins   bins per dimension
  */
final case class Quantized(
    points: DataFrame,
    cells: Map[Vector[Int], Double],
    mins: Array[Double],
    widths: Array[Double],
    bins: Int)

/** Step 1 of AdaWave (§IV-A): quantize the feature space.
  *
  * Each dimension is split into `bins` equal-width intervals over the
  * observed [min, max]; a point belongs to the right-open interval
  * `[l_ij, h_ij)` (the top value is clamped into the last bin). The
  * per-cell density is the number of contained points. Both the cell-id
  * computation and the density aggregation run on Spark; only the sparse
  * `{cell → density}` map (size M ≪ N) is collected to the driver. An
  * empty frame has no cells.
  */
object Grid {

  val CellCol = "__cell"

  def quantize(df: DataFrame, cols: Seq[String], bins: Int): Quantized = {
    require(bins >= 2, s"need at least 2 bins per dimension, got $bins")
    val aggs: Seq[Column] =
      cols.flatMap(c => Seq(min(col(c)).cast("double"), max(col(c)).cast("double")))
    val row = df.agg(aggs.head, aggs.tail: _*).head()
    val d = cols.size
    // A column with no value (an empty frame) gets min 0 and width 1.
    def bound(i: Int) = if (row.isNullAt(i)) 0.0 else row.getDouble(i)
    val mins = Array.tabulate(d)(i => bound(2 * i))
    val maxs = Array.tabulate(d)(i => bound(2 * i + 1))
    // Constant dimensions get width 1 so every point lands in bin 0.
    val widths = Array.tabulate(d) { i =>
      val w = (maxs(i) - mins(i)) / bins
      if (w > 0) w else 1.0
    }

    val points = df.withColumn(CellCol, cellOf(mins, widths, bins)(
      array(cols.map(c => coalesce(col(c).cast("double"), lit(Double.NaN))): _*)))

    val cells: Map[Vector[Int], Double] = points
      .groupBy(col(CellCol))
      .count()
      .collect()
      .map(r => r.getSeq[Int](0).toVector -> r.getLong(1).toDouble)
      .toMap
    Quantized(points, cells, mins, widths, bins)
  }

  /** The cell of one row, as one compiled function over its coordinates.
    *
    * Per dimension this is `least(bins - 1, greatest(0, floor((x - min) /
    * width)))` with Catalyst's semantics: NaN floors to 0, so a NaN or a
    * null coordinate (passed in as NaN) lands in bin 0. A floor outside the
    * `Int` range clamps instead of overflowing. Written as d Catalyst
    * expressions, whole-stage codegen inlines all of them into one Java
    * method, which at d = 33 is over HotSpot's 8 000-byte limit for JIT
    * compilation, so every row pass would run in the bytecode interpreter.
    */
  private def cellOf(mins: Array[Double], widths: Array[Double], bins: Int): UserDefinedFunction =
    udf { (xs: Array[Double]) =>
      val cell = new Array[Int](xs.length)
      var i = 0
      while (i < xs.length) {
        val f = math.floor((xs(i) - mins(i)) / widths(i)).toLong
        cell(i) = if (f <= 0L) 0 else if (f >= bins - 1) bins - 1 else f.toInt
        i += 1
      }
      cell
    }
}
