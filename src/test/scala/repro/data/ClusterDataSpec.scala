package repro.data

import repro.SparkSpec

class ClusterDataSpec extends SparkSpec {

  test("five clusters of the requested size plus the right noise count") {
    val (x, y) = ClusterData.runningExample(clusterSize = 1000, noiseFrac = 0.5)
    assert(y.count(_ == 1) == 1000)
    assert((1 to 5).forall(c => y.count(_ == c) == 1000))
    assert(y.count(_ == 0) == 5000) // 50% noise: nNoise = nCluster
    assert(x.length == 10000)
  }

  test("noise fraction formula: 80% noise means 4x the cluster points") {
    val (_, y) = ClusterData.runningExample(clusterSize = 100, noiseFrac = 0.8)
    assert(y.count(_ == 0) == 2000) // 500 * 0.8/0.2
  }

  test("zero noise is allowed") {
    val (_, y) = ClusterData.runningExample(clusterSize = 50, noiseFrac = 0.0)
    assert(!y.contains(0))
  }

  test("labels range over 0..5 only") {
    val (_, y) = ClusterData.runningExample(clusterSize = 200, noiseFrac = 0.6)
    assert(y.toSet == Set(0, 1, 2, 3, 4, 5))
  }

  test("points stay in (or very near) the unit square") {
    val (x, _) = ClusterData.runningExample(clusterSize = 500, noiseFrac = 0.5)
    assert(x.forall(p => p(0) > -0.1 && p(0) < 1.1 && p(1) > -0.1 && p(1) < 1.1))
  }

  test("the ring clusters are concentric (radial separation)") {
    val (x, y) = ClusterData.runningExample(clusterSize = 500, noiseFrac = 0.0)
    def radius(p: Array[Double]) = math.hypot(p(0) - 0.30, p(1) - 0.30)
    val inner = x.zip(y).filter(_._2 == 4).map(p => radius(p._1))
    val outer = x.zip(y).filter(_._2 == 5).map(p => radius(p._1))
    assert(inner.sum / inner.length < 0.11)
    assert(outer.sum / outer.length > 0.12)
  }

  test("the two discs overlap in both axis projections") {
    val (x, y) = ClusterData.runningExample(clusterSize = 500, noiseFrac = 0.0)
    val a = x.zip(y).filter(_._2 == 2).map(_._1)
    val b = x.zip(y).filter(_._2 == 3).map(_._1)
    assert(a.map(_(0)).max > b.map(_(0)).min) // x ranges overlap
    assert(b.map(_(1)).max > a.map(_(1)).min) // y ranges overlap
  }

  test("deterministic in the seed") {
    val (x1, y1) = ClusterData.runningExample(100, 0.3, seed = 9)
    val (x2, y2) = ClusterData.runningExample(100, 0.3, seed = 9)
    assert(y1.sameElements(y2))
    assert(x1.zip(x2).forall { case (p, q) => p.sameElements(q) })
  }

  test("toDFn builds f columns plus label and a stable id") {
    val rnd = new scala.util.Random(3)
    val x = Array.fill(5000)(Array.fill(3)(rnd.nextGaussian() * 1e3))
    val y = Array.fill(x.length)(rnd.nextInt(7))
    val df = ClusterData.toDFn(spark, x, y)
    assert(df.columns.toSeq == Seq("f0", "f1", "f2", "label", "id"))
    assert(df.rdd.getNumPartitions == 8)
    val rows = df.collect()
    assert(rows.length == x.length)
    rows.zipWithIndex.foreach { case (r, i) =>
      assert((0 until 3).forall(j => r.getDouble(j) == x(i)(j)), s"row $i")
      assert(r.getInt(3) == y(i) && r.getLong(4) == i.toLong, s"row $i")
    }
  }

  test("toDFn ships no row data inside any partition of its lineage") {
    import java.io.{ByteArrayOutputStream, ObjectOutputStream}
    import org.apache.spark.rdd.RDD
    val (x, y) = ClusterData.runningExample(1000, 0.5) // 10 000 rows
    def lineage(rdd: RDD[_]): Seq[RDD[_]] = rdd +: rdd.dependencies.flatMap(d => lineage(d.rdd))
    def bytes(o: AnyRef): Int = {
      val buf = new ByteArrayOutputStream()
      val out = new ObjectOutputStream(buf)
      out.writeObject(o)
      out.close()
      buf.size()
    }
    for (rdd <- lineage(ClusterData.toDFn(spark, x, y).queryExecution.toRdd);
         p <- rdd.partitions) {
      val size = bytes(p)
      assert(size < 1024, s"partition ${p.index} of $rdd serializes to $size bytes")
    }
  }

  test("toDFn rejects a row longer than the first, naming it") {
    val x = Array(Array(0.0, 1.0), Array(2.0, 3.0), Array(4.0, 5.0, 6.0), Array(7.0))
    val e = intercept[IllegalArgumentException](ClusterData.toDFn(spark, x, Array.fill(4)(0)))
    assert(e.getMessage.contains("row 2 has 3 coordinates, row 0 has 2"), e.getMessage)
  }

  test("toDFn rejects a row shorter than the first, naming it") {
    val x = Array(Array(0.0, 1.0, 2.0), Array(3.0), Array(4.0, 5.0))
    val e = intercept[IllegalArgumentException](ClusterData.toDFn(spark, x, Array.fill(3)(0)))
    assert(e.getMessage.contains("row 1 has 1 coordinates, row 0 has 3"), e.getMessage)
  }

  test("toDFn rejects a label array of another length") {
    val e = intercept[IllegalArgumentException](
      ClusterData.toDFn(spark, Array(Array(0.0), Array(1.0)), Array(0)))
    assert(e.getMessage.contains("1 labels for 2 points"), e.getMessage)
  }

  test("toDFn rejects more coordinates than one array holds") {
    val row = new Array[Double](40000)
    val e = intercept[IllegalArgumentException](
      ClusterData.toDFn(spark, Array.fill(60000)(row), new Array[Int](60000)))
    assert(e.getMessage.contains("60000 points of 40000 coordinates exceed one array"), e.getMessage)
  }

  test("toDFn returns special doubles bit for bit at d = 1 and d = 64, and a single row") {
    import java.lang.Double.doubleToRawLongBits
    val specials = Array(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity, -0.0,
      Double.MinPositiveValue, Double.MaxValue, 0.0, -Double.MaxValue)
    def roundTrip(x: Array[Array[Double]]): Unit = {
      val y = Array.tabulate(x.length)(i => i * 7 - 3)
      val rows = ClusterData.toDFn(spark, x, y).collect()
      assert(rows.length == x.length)
      val d = x(0).length
      rows.zipWithIndex.foreach { case (r, i) =>
        (0 until d).foreach { j =>
          assert(doubleToRawLongBits(r.getDouble(j)) == doubleToRawLongBits(x(i)(j)), s"row $i col $j")
        }
        assert(r.getInt(d) == y(i) && r.getLong(d + 1) == i.toLong, s"row $i")
      }
    }
    roundTrip(specials.map(v => Array(v)))
    roundTrip(Array.tabulate(3 * specials.length)(i =>
      Array.tabulate(64)(j => specials((i + j) % specials.length))))
    roundTrip(Array(Array.tabulate(64)(j => specials(j % specials.length))))
  }

  test("toDFn's executed plan scans internal rows, with no per-row converter") {
    import org.apache.spark.sql.execution.RowDataSourceScanExec
    val (x, y) = ClusterData.runningExample(100, 0.5)
    val leaves = ClusterData.toDFn(spark, x, y).queryExecution.executedPlan.collectLeaves()
    assert(leaves.size == 1, leaves)
    leaves.head match {
      case s: RowDataSourceScanExec => assert(!s.relation.needConversion)
      case other => fail(s"leaf is ${other.nodeName}, not a RowDataSourceScanExec")
    }
  }

  test("toDFn starts no Spark job, neither building nor planning the frame") {
    val (x, y) = ClusterData.runningExample(1000, 0.5)
    val jobs = jobStages(ClusterData.toDFn(spark, x, y).queryExecution.executedPlan)
    assert(jobs.isEmpty, jobs)
  }

  test("toDFn of no points is an empty frame with label and id") {
    val df = ClusterData.toDFn(spark, Array.empty, Array.empty)
    assert(df.columns.toSeq == Seq("label", "id"))
    assert(df.count() == 0)
  }
}
