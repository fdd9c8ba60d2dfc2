package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

/** Result of quantizing a point set onto a sparse grid.
  *
  * @param grid   the occupied cells with their point counts
  * @param mins   per-dimension minimum used for scaling
  * @param widths per-dimension bin width (never zero)
  * @param bins   bins per dimension
  */
final class Quantized private[core] (
    private[core] val grid: CellGrid,
    val mins: Array[Double],
    val widths: Array[Double],
    val bins: Int) {

  /** [[grid]] boxed as `{cell → point count}`. A replay shim (ROADMAP item 1). */
  lazy val cells: Map[Vector[Int], Double] = grid.toMap
}

/** Step 1 of AdaWave (§IV-A): quantize the feature space.
  *
  * Each dimension is split into `bins` equal-width intervals over the
  * observed [min, max]; a point belongs to the right-open interval
  * `[l_ij, h_ij)` (the top value is clamped into the last bin). The
  * per-cell density is the number of contained points.
  *
  * Quantization is two Spark jobs over one projection of the rows, each a
  * single stage with no shuffle ([[PartitionFold]]):
  *  - bounds: each partition folds every column's min and max over its
  *    non-null values, with NaN above every number as Spark's `min` and
  *    `max` order it;
  *  - density: each partition places every row with the cell kernel
  *    [[cellOf]] and counts the cells in a flat primitive table
  *    ([[CellGrid]]).
  * The driver folds the partitions in order; only the sparse table of
  * occupied cells (size M ≪ N) reaches it. An empty frame has no
  * cells. The label pass places each row again with the same kernel.
  */
object Grid {

  def quantize(df: DataFrame, cols: Seq[String], bins: Int): Quantized = {
    require(bins >= 2, s"need at least 2 bins per dimension, got $bins")
    val d = cols.size
    val coords = coordinateRows(df, cols)
    val (mins, maxs) = bounds(coords, d)
    // Constant dimensions get width 1 so every point lands in bin 0.
    val widths = Array.tabulate(d) { i =>
      val w = (maxs(i) - mins(i)) / bins
      if (w > 0) w else 1.0
    }

    val cells = PartitionFold(coords) { rows =>
      val xs = new Array[Double](d)
      val cell = new Array[Int](d)
      val counts = new CellGrid(d)
      rows.foreach { r =>
        var i = 0
        while (i < d) { xs(i) = if (r.isNullAt(i)) Double.NaN else r.getDouble(i); i += 1 }
        cellOf(xs, mins, widths, bins, cell)
        counts.add(cell, 0, 1.0)
      }
      counts.rows
    }(new CellGrid(d))(_ addAll _)
    new Quantized(cells, mins, widths, bins)
  }

  /** Per-column (min, max) over the non-null values of `coords`. A column
    * with no value (an empty frame, or only nulls) gets min and max 0.
    */
  private def bounds(coords: DataFrame, d: Int): (Array[Double], Array[Double]) = {
    val b = PartitionFold(coords) { rows =>
      val b = new Bounds(d)
      rows.foreach { r =>
        var i = 0
        while (i < d) {
          if (!r.isNullAt(i)) b.widen(i, r.getDouble(i), r.getDouble(i))
          i += 1
        }
      }
      b
    }(new Bounds(d))(_ addAll _)
    (b.mins, b.maxs)
  }

  /** Running per-column min and max. NaN sorts above every number, as in
    * Spark's `min` and `max`.
    */
  private final class Bounds(d: Int) extends Serializable {
    val mins = new Array[Double](d)
    val maxs = new Array[Double](d)
    private val seen = new Array[Boolean](d)

    private def below(a: Double, b: Double) = !a.isNaN && (b.isNaN || a < b)

    def widen(i: Int, lo: Double, hi: Double): Unit =
      if (!seen(i)) { mins(i) = lo; maxs(i) = hi; seen(i) = true }
      else {
        if (below(lo, mins(i))) mins(i) = lo
        if (below(maxs(i), hi)) maxs(i) = hi
      }

    def addAll(o: Bounds): this.type = {
      for (i <- 0 until d if o.seen(i)) widen(i, o.mins(i), o.maxs(i))
      this
    }
  }

  /** The rows both passes fold: each clustering column as a double. */
  private[core] def coordinateRows(df: DataFrame, cols: Seq[String]): DataFrame =
    df.select(cols.map(c => col(c).cast("double")): _*)

  /** The cell kernel's input for a row pass: each clustering column as a
    * double, a null passed in as NaN.
    */
  private[core] def coordinates(cols: Seq[String]): Seq[Column] =
    cols.map(c => coalesce(col(c).cast("double"), lit(Double.NaN)))

  /** The cell kernel: writes the cell of coordinates `xs` into `cell`.
    *
    * Per dimension this is `least(bins - 1, greatest(0, floor((x - min) /
    * width)))` with Catalyst's semantics: NaN floors to 0, so a NaN or a
    * null coordinate (passed in as NaN) lands in bin 0. A floor outside the
    * `Int` range clamps instead of overflowing. The density pass and the
    * label pass both call it. Written as d Catalyst expressions,
    * whole-stage codegen inlines all of them into one Java method, which at
    * d = 33 is over HotSpot's 8 000-byte limit for JIT compilation, so every
    * row pass would run in the bytecode interpreter.
    */
  private[core] def cellOf(xs: Array[Double], mins: Array[Double], widths: Array[Double],
                           bins: Int, cell: Array[Int]): Unit = {
    var i = 0
    while (i < xs.length) {
      val f = math.floor((xs(i) - mins(i)) / widths(i)).toLong
      cell(i) = if (f <= 0L) 0 else if (f >= bins - 1) bins - 1 else f.toInt
      i += 1
    }
  }
}
