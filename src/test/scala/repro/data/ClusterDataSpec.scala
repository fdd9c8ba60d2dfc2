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

  test("toDFn of no points is an empty frame with label and id") {
    val df = ClusterData.toDFn(spark, Array.empty, Array.empty)
    assert(df.columns.toSeq == Seq("label", "id"))
    assert(df.count() == 0)
  }
}
