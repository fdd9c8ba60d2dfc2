package repro.core

import org.apache.spark.sql.{Column, DataFrame, Row}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{DoubleType, StructField, StructType}
import org.scalacheck.{Gen, Prop, Test => SCTest}
import repro.{Oracle, SparkSpec}
import repro.data.ClusterData

class GridSpec extends SparkSpec {

  /** The quantized cells as `{cell → count}`. */
  private def cells(q: Quantized) = Oracle.boxed(q.grid)

  private def df2(pts: Seq[(Double, Double)]) = {
    import spark.implicits._
    pts.toDF("x", "y")
  }

  test("quantize assigns known points to the expected cells") {
    val q = Grid.quantize(df2(Seq((0.0, 0.0), (0.99, 0.99), (0.5, 0.25))), Seq("x", "y"), 4)
    // widths = 0.99/4 = 0.2475; 0.5/0.2475 = 2.02 → bin 2; 0.25/0.2475 → 1
    assert(cells(q)(Vector(0, 0)) == 1.0)
    assert(cells(q)(Vector(3, 3)) == 1.0)
    assert(cells(q)(Vector(2, 1)) == 1.0)
  }

  test("the maximum value is clamped into the last bin") {
    val q = Grid.quantize(df2(Seq((0.0, 0.0), (1.0, 1.0))), Seq("x", "y"), 8)
    assert(cells(q)(Vector(7, 7)) == 1.0)
  }

  test("constant dimensions collapse to bin 0 without dividing by zero") {
    val q = Grid.quantize(df2(Seq((5.0, 1.0), (5.0, 2.0), (5.0, 3.0))), Seq("x", "y"), 4)
    assert(cells(q).keys.forall(_.head == 0))
    assert(q.widths(0) == 1.0)
  }

  test("cell densities sum to the number of points") {
    val pts = (0 until 500).map(i => (math.sin(i * 0.37) + 1, math.cos(i * 0.53) + 1))
    val q = Grid.quantize(df2(pts), Seq("x", "y"), 16)
    assert(cells(q).values.sum == 500.0)
  }

  test("only non-empty cells are stored (sparse grid labeling)") {
    val q = Grid.quantize(df2(Seq((0.0, 0.0), (1.0, 1.0))), Seq("x", "y"), 128)
    assert(cells(q).size == 2) // not 128², the paper's memory argument
  }

  test("quantization is deterministic") {
    val pts = (0 until 200).map(i => (i * 0.017 % 1.0, i * 0.031 % 1.0))
    val a = cells(Grid.quantize(df2(pts), Seq("x", "y"), 32))
    val b = cells(Grid.quantize(df2(pts), Seq("x", "y"), 32))
    assert(a == b)
  }

  test("bins < 2 is rejected") {
    intercept[IllegalArgumentException] { Grid.quantize(df2(Seq((0.0, 0.0))), Seq("x", "y"), 1) }
  }

  test("grid densities match DuckDB (oracle)") {
    val pts = (0 until 300).map(i => (math.sin(i * 0.7) * 3 + 3, (i % 17) * 0.21))
    val raw = df2(pts)
    val q = Grid.quantize(raw, Seq("x", "y"), 8)
    val sparkDf = {
      import spark.implicits._
      cells(q).toSeq.map { case (c, n) => (c(0), c(1), n.toLong) }.toDF("gx", "gy", "cnt")
    }
    val sql =
      s"""SELECT
         |  LEAST(7, GREATEST(0, CAST(FLOOR((CAST(x AS DOUBLE) - ${q.mins(0)}) / ${q.widths(0)}) AS INT))) AS gx,
         |  LEAST(7, GREATEST(0, CAST(FLOOR((CAST(y AS DOUBLE) - ${q.mins(1)}) / ${q.widths(1)}) AS INT))) AS gy,
         |  COUNT(*) AS cnt
         |FROM pts GROUP BY 1, 2""".stripMargin
    Oracle.assertEquivalent(sparkDf, sql, "pts" -> raw)
  }

  test("3-D quantization produces 3-coordinate cells") {
    import spark.implicits._
    val df = (0 until 50).map(i => (i * 0.02, 1 - i * 0.02, (i % 5) * 0.2)).toDF("a", "b", "c")
    val q = Grid.quantize(df, Seq("a", "b", "c"), 4)
    assert(cells(q).keys.forall(_.size == 3))
    assert(cells(q).values.sum == 50.0)
  }

  /** A frame of nullable double columns `f0..f{d-1}` in `parts` partitions. */
  private def frame(rows: Seq[Array[java.lang.Double]], d: Int, parts: Int = 1): DataFrame =
    spark.createDataFrame(
      spark.sparkContext.parallelize(rows.map(r => Row.fromSeq(r.toSeq)), parts),
      StructType((0 until d).map(i => StructField(s"f$i", DoubleType))))

  /** The points' cell column: the cell kernel as a UDF over the kernel's
    * input coordinates, as the label pass places each row.
    */
  private def cellCol(q: Quantized, cols: Seq[String]): Column = {
    val (mins, widths, bins) = (q.mins, q.widths, q.bins)
    val kernel = udf { (xs: Array[Double]) =>
      val cell = new Array[Int](xs.length)
      Grid.cellOf(xs, mins, widths, bins, cell)
      cell
    }
    kernel(array(Grid.coordinates(cols): _*))
  }

  /** The per-dimension Catalyst expression `quantize` compiled into a row
    * kernel: the oracle the kernel must agree with on every row.
    */
  private def catalystCell(q: Quantized, cols: Seq[String]): Column =
    array(cols.zipWithIndex.map { case (c, i) =>
      least(lit(q.bins - 1),
        greatest(lit(0),
          floor((col(c).cast("double") - lit(q.mins(i))) / lit(q.widths(i))).cast("int")))
    }: _*)

  /** Random finite rows (d 1..33, 2..40 rows, 1..n+3 partitions, so some
    * partitions may be empty), then one of: nothing more, a constant
    * column, one null, NaN, +Inf or -Inf coordinate, or a column that mixes
    * NaN with ±Inf. Every frame holds each column's maximum, which clamps
    * into bin `bins - 1`.
    */
  private case class Frame(d: Int, bins: Int, parts: Int, kind: String,
                           rows: Seq[Array[java.lang.Double]]) {
    val cols: Seq[String] = (0 until d).map(i => s"f$i")
    def df: DataFrame = frame(rows, d, parts)
  }

  private val frames: Gen[Frame] = for {
    d <- Gen.choose(1, 33)
    n <- Gen.choose(2, 40)
    bins <- Gen.choose(2, 64)
    parts <- Gen.choose(1, n + 3)
    rows <- Gen.listOfN(n, Gen.listOfN(d, Gen.choose(-1000.0, 1000.0)))
    kind <- Gen.oneOf("finite", "constant", "null", "nan", "+inf", "-inf", "nan+inf")
    r <- Gen.choose(0, n - 1)
    c <- Gen.choose(0, d - 1)
    inf <- Gen.oneOf(Double.PositiveInfinity, Double.NegativeInfinity)
  } yield {
    val out = rows.map(_.map(v => java.lang.Double.valueOf(v)).toArray)
    kind match {
      case "constant" => out.foreach(_(c) = 3.5)
      case "null" => out(r)(c) = null
      case "nan" => out(r)(c) = Double.NaN
      case "+inf" => out(r)(c) = Double.PositiveInfinity
      case "-inf" => out(r)(c) = Double.NegativeInfinity
      case "nan+inf" => out(r)(c) = Double.NaN; out((r + 1) % n)(c) = inf
      case _ =>
    }
    Frame(d, bins, parts, kind, out)
  }

  private def holds(prop: Prop): Unit =
    assert(SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(60), prop).passed)

  test("the cell kernel places every row where the per-dimension Catalyst expression does") {
    // The Catalyst oracle throws CAST_OVERFLOW on an infinite floor, which a
    // column mixing NaN with ±Inf produces; the kernel clamps it instead.
    holds(Prop.forAllNoShrink(frames.filter(_.kind != "nan+inf")) { f =>
      val q = Grid.quantize(f.df, f.cols, f.bins)
      val got = f.df.select(cellCol(q, f.cols), catalystCell(q, f.cols)).collect()
      got.length == f.rows.length && got.forall(r => r.getSeq[Int](0) == r.getSeq[Int](1))
    })
  }

  private def same(a: Double, b: Double) = a == b || (a.isNaN && b.isNaN)

  test("quantize's bounds equal those of a min/max aggregation") {
    holds(Prop.forAllNoShrink(frames) { f =>
      val q = Grid.quantize(f.df, f.cols, f.bins)
      val aggs = f.cols.flatMap(c => Seq(min(col(c)).cast("double"), max(col(c)).cast("double")))
      val row = f.df.agg(aggs.head, aggs.tail: _*).head()
      def bound(i: Int) = if (row.isNullAt(i)) 0.0 else row.getDouble(i)
      (0 until f.d).forall { i =>
        val w = (bound(2 * i + 1) - bound(2 * i)) / f.bins
        same(q.mins(i), bound(2 * i)) && same(q.widths(i), if (w > 0) w else 1.0)
      }
    })
  }

  test("quantize's cells equal a groupBy count of the points' cell column") {
    holds(Prop.forAllNoShrink(frames) { f =>
      val q = Grid.quantize(f.df, f.cols, f.bins)
      val counted = f.df.groupBy(cellCol(q, f.cols)).count().collect()
        .map(r => r.getSeq[Int](0).toVector -> r.getLong(1).toDouble).toMap
      cells(q) == counted && cells(q).values.sum == f.rows.length
    })
  }

  test("quantize runs two single-stage Spark jobs, so nothing is shuffled") {
    val rnd = new scala.util.Random(7)
    for (d <- Seq(2, 33)) {
      val x = Array.fill(3000)(Array.fill(d)(rnd.nextGaussian()))
      val df = ClusterData.toDFn(spark, x, Array.fill(x.length)(0))
      val cols = (0 until d).map(i => s"f$i")
      val jobs = jobStages(Grid.quantize(df, cols, 64))
      assert(jobs.map(_.size) == Seq(1, 1), s"d = $d: $jobs")
      // Each job is named after its pass in Grid, not after PartitionFold.
      assert(jobs.flatten.forall(_.startsWith("collect at Grid.scala:")), s"d = $d: $jobs")
    }
  }

  test("quantize on an empty frame has no cells") {
    val q = Grid.quantize(frame(Seq.empty, 3), Seq("f0", "f1", "f2"), 8)
    assert(cells(q).isEmpty)
  }
}
