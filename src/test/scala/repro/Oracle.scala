package repro

import java.sql.DriverManager
import org.apache.spark.sql.{DataFrame, Row}
import repro.core.CellGrid
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Correctness oracles.
  *
  * DuckDB: ``assertEquivalent(sparkDf, sql, tables)`` runs ``sql`` on DuckDB
  * (via JDBC, in-process) over ``tables`` and asserts the sorted rows
  * match ``sparkDf``. This catches wrong results from a rewritten plan
  * or a custom operator — "it ran" is not "it is correct".
  *
  * Alias every output column identically on both sides (Spark names
  * ``count(*)`` as ``count(1)``, DuckDB as ``count_star()``). Project
  * to scalar columns — array/map/struct are not comparable here.
  *
  * Wavelets: `dwt1D`, a dense 1-D transform. Boxed cell grids: the sparse
  * wavelet passes as they ran on
  * `Map[Vector[Int], Double]` before every stage moved to the flat
  * [[CellGrid]], kept as references for it, plus conversions between the
  * two forms that use only the grid's public accessors.
  */
object Oracle {

  /** Dense 1-D average subband: `a(k) = Σ_j h(j) · x(2k + j - center)`
    * with zero-padding, the sparse scatter formula of
    * `Wavelet.transformDim` on a dense array.
    */
  def dwt1D(x: Array[Double], h: Array[Double], center: Int = 0): Array[Double] = {
    val outLen = (x.length - 1 + center) / 2 + 1
    val out = Array.ofDim[Double](outLen)
    for (k <- 0 until outLen; j <- h.indices) {
      val src = 2 * k + j - center
      if (src >= 0 && src < x.length) out(k) += h(j) * x(src)
    }
    out
  }

  type Cells = Map[Vector[Int], Double]

  /** `grid` as `{cell → value}`. */
  def boxed(grid: CellGrid): Cells =
    (0 until grid.size).map(j => Vector.tabulate(grid.d)(grid.coord(j, _)) -> grid.value(j)).toMap

  /** A `d`-dimensional grid holding `cells`. */
  def flat(d: Int, cells: Iterable[(Vector[Int], Double)]): CellGrid = {
    val g = new CellGrid(d)
    for ((c, v) <- cells) g.add(c.toArray, 0, v)
    g
  }

  /** One low-pass + downsample-by-2 pass along `dim`: cell `p` with tap
    * `j` contributes `h(j) * v` to output coordinate
    * `k = (p + center - j) / 2` (when that is a non-negative integer).
    * Cells within 1e-12 of 0 are dropped.
    */
  def transformDim(grid: Cells, dim: Int, h: Array[Double], center: Int): Cells = {
    val out = mutable.HashMap.empty[Vector[Int], Double]
    for ((cell, v) <- grid; j <- h.indices) {
      val num = cell(dim) + center - j
      if (num >= 0 && num % 2 == 0) {
        val dst = cell.updated(dim, num / 2)
        out.update(dst, out.getOrElse(dst, 0.0) + h(j) * v)
      }
    }
    out.filter { case (_, v) => math.abs(v) > 1e-12 }.toMap
  }

  /** Sends every cell `p` to `p >> shift` in each dimension, sums the
    * values that meet and scales each sum by `weight`. Only cells whose
    * scaled sum is exactly 0 are dropped.
    */
  def dyadicMerge(grid: Cells, shift: Int, weight: Double): Cells = {
    val sums = mutable.HashMap.empty[Vector[Int], Array[Double]]
    for ((cell, v) <- grid) sums.getOrElseUpdate(cell.map(_ >> shift), Array(0.0))(0) += v
    val out = Map.newBuilder[Vector[Int], Double]
    for ((cell, s) <- sums) {
      val v = s(0) * weight
      if (v != 0.0) out += cell -> v
    }
    out.result()
  }

  private def canon(rows: Seq[Row], cols: Seq[String]): Seq[Seq[String]] = {
    val order = cols.sorted
    val idx   = order.map(cols.indexOf)
    rows
      .map(r => idx.map { i =>
        r.get(i) match {
          case null                 => "∅"
          case d: Double            => f"$d%.6f"
          case f: Float             => f"${f.toDouble}%.6f"
          case bd: java.math.BigDecimal => f"${bd.doubleValue}%.6f"
          case x                    => x.toString
        }
      })
      .sortBy(_.mkString(""))
  }

  def assertEquivalent(sparkDf: DataFrame, sql: String, tables: (String, DataFrame)*): Unit = {
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = DriverManager.getConnection("jdbc:duckdb:")
    try {
      for ((name, df) <- tables) {
        val cols = df.columns
        conn.createStatement.execute(
          s"CREATE TABLE $name (${cols.map(c => s"$c VARCHAR").mkString(", ")})"
        )
        // Collect once; this is an oracle, not a bench — keep tables small.
        val ps = conn.prepareStatement(
          s"INSERT INTO $name VALUES (${cols.map(_ => "?").mkString(",")})"
        )
        df.collect().foreach { r =>
          cols.indices.foreach(i => ps.setString(i + 1, Option(r.get(i)).map(_.toString).orNull))
          ps.addBatch()
        }
        ps.executeBatch(); ps.close()
      }
      val rs   = conn.createStatement.executeQuery(sql)
      val meta = rs.getMetaData
      val dCols = (1 to meta.getColumnCount).map(meta.getColumnLabel)
      val dRows = Iterator
        .continually(rs)
        .takeWhile(_.next())
        .map(r => Row.fromSeq((1 to dCols.size).map(r.getObject)))
        .toSeq
      val sCols = sparkDf.columns.toSeq
      require(
        dCols.map(_.toLowerCase).toSet == sCols.map(_.toLowerCase).toSet,
        s"column mismatch: spark=${sCols.sorted} duckdb=${dCols.sorted} — alias every output column"
      )
      val got = canon(sparkDf.collect().toSeq, sCols)
      val exp = canon(dRows, dCols)
      require(got == exp,
        s"result mismatch (${got.size} vs ${exp.size} rows):\n" +
        s"  first spark-only: ${got.diff(exp).take(3)}\n" +
        s"  first duck-only:  ${exp.diff(got).take(3)}"
      )
    } finally conn.close()
  }
}
