package repro.core

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalacheck.rng.Seed
import repro.{Oracle, SparkSpec}
import repro.data.ClusterData
import repro.eval.AMI
import scala.annotation.tailrec
import scala.collection.mutable
import scala.util.Random

class ClusterAutoSpec extends SparkSpec {

  test("coarsen merges dyadic children and preserves total mass") {
    val cells = Map(Vector(4, 5) -> 2.0, Vector(5, 4) -> 3.0, Vector(5, 5) -> 1.0,
                    Vector(8, 0) -> 7.0)
    val c = AdaWave.coarsen(cells)
    assert(c == Map(Vector(2, 2) -> 6.0, Vector(4, 0) -> 7.0))
    assert(c.values.sum == cells.values.sum)
  }

  test("coarsen twice equals a two-level shift") {
    val rnd = new Random(1)
    val cells = (0 until 100).map(_ => Vector(rnd.nextInt(64), rnd.nextInt(64)) -> 1.0)
      .groupMapReduce(_._1)(_._2)(_ + _)
    assert(AdaWave.coarsen(AdaWave.coarsen(cells)) == Oracle.dyadicMerge(cells, 2, 1.0))
  }

  /** The calibration `clusterAuto` ran on boxed cells before it used the
    * flat table: coarsen while the grid keeps more than 4 bins and the
    * next level has more than n/3 cells, then take the Haar transform
    * (a one-level merge weighted 2^-d).
    */
  private def boxedCalibrate(grid: Map[Vector[Int], Double], d: Int): (Map[Vector[Int], Double], Int) = {
    val fine = 64
    val n = grid.values.sum
    @tailrec def calibrate(cells: Map[Vector[Int], Double], shift: Int): (Map[Vector[Int], Double], Int) =
      if ((fine >> shift) <= 4) (cells, shift)
      else {
        val next = Oracle.dyadicMerge(cells, 1, 1.0)
        if (next.size > n / 3) calibrate(next, shift + 1) else (cells, shift)
      }
    val (cells, shift) = calibrate(grid, 0)
    (Oracle.dyadicMerge(cells, 1, math.scalb(1.0, -d)), shift)
  }

  /** Count grids on 64 bins with d in 3..33: groups of up to 8 points, each
    * point up to 2^spread - 1 bins above its group's base in every
    * dimension. The spread sets how many levels the groups take to
    * collapse, so every calibration shift occurs; zero groups make the
    * empty grid.
    */
  private val skewedGrids: Gen[(Int, Map[Vector[Int], Double])] = for {
    d <- Gen.chooseNum(3, 33)
    spread <- Gen.chooseNum(0, 6)
    groups <- Gen.chooseNum(0, 12)
    group = for {
      base <- Gen.listOfN(d, Gen.chooseNum(0, 63))
      pts <- Gen.chooseNum(1, 8)
      offsets <- Gen.listOfN(pts, Gen.zip(Gen.listOfN(d, Gen.chooseNum(0, (1 << spread) - 1)), Gen.chooseNum(1, 3)))
    } yield offsets.map { case (off, n) => base.zip(off).map { case (b, o) => math.min(63, b + o) }.toVector -> n }
    cells <- Gen.listOfN(groups, group)
  } yield (d, cells.flatten.groupMapReduce(_._1)(_._2.toDouble)(_ + _))

  test("calibrate equals the boxed coarsen loop followed by the Haar transform") {
    val shifts = mutable.Set.empty[Int]
    val prop = Prop.forAll(skewedGrids) { case (d, grid) =>
      val (got, shift) = AdaWave.calibrate(Oracle.flat(d, grid), 64)
      shifts += shift
      (Oracle.boxed(got), shift) == boxedCalibrate(grid, d)
    }
    val params = SCTest.Parameters.default.withMinSuccessfulTests(300).withInitialSeed(Seed(8L))
    assert(SCTest.check(params, prop).passed)
    assert(shifts == Set(0, 1, 2, 3, 4), s"shifts seen: $shifts")
    val (empty, shift) = AdaWave.calibrate(new CellGrid(3), 64)
    assert(empty.size == 0 && shift == 0)
  }

  test("clusterAuto on 2-D equals the paper-default cluster() path") {
    val rnd = new Random(2)
    val x = Array.fill(800)(Array(0.2 + rnd.nextGaussian() * 0.02, 0.3 + rnd.nextGaussian() * 0.02)) ++
            Array.fill(800)(Array(0.8 + rnd.nextGaussian() * 0.02, 0.7 + rnd.nextGaussian() * 0.02))
    val df = ClusterData.toDFn(spark, x, Array.fill(x.length)(0))
    val a = AdaWave.clusterAuto(df, Seq("f0", "f1"), assignNoise = false)
    val b = AdaWave.cluster(df, Seq("f0", "f1"), AdaWaveConfig.auto(2))
    assert(a.threshold == b.threshold)
    assert(a.numClusters == b.numClusters)
  }

  test("clusterAuto recovers tight 5-D blobs at full auto-calibration") {
    val rnd = new Random(3)
    val centers = Array.fill(3)(Array.fill(5)(rnd.nextDouble()))
    val pts = Array.newBuilder[Array[Double]]
    val truth = Array.newBuilder[Int]
    for (c <- 0 until 3; _ <- 0 until 300) {
      pts += Array.tabulate(5)(j => centers(c)(j) + rnd.nextGaussian() * 0.02)
      truth += c + 1
    }
    val x = pts.result()
    val df = ClusterData.toDFn(spark, x, Array.fill(x.length)(0))
    val res = AdaWave.clusterAuto(df, (0 until 5).map(i => s"f$i"), assignNoise = true)
    val pred = Array.ofDim[Int](x.length)
    res.points.select("id", AdaWave.ClusterCol).collect()
      .foreach(r => pred(r.getLong(0).toInt) = r.getInt(1))
    assert(AMI.ami(truth.result(), pred) > 0.9)
  }

  test("clusterAuto coarsens diffuse full-rank data instead of fragmenting it") {
    val rnd = new Random(4)
    // 300 points spread over an 8-D cube: any fine grid would be all
    // singletons; auto-calibration must fall back to a coarse grid.
    val x = Array.fill(300)(Array.fill(8)(rnd.nextDouble()))
    val df = ClusterData.toDFn(spark, x, Array.fill(x.length)(0))
    val res = AdaWave.clusterAuto(df, (0 until 8).map(i => s"f$i"), assignNoise = false)
    assert(res.numClusters >= 1)
    assert(res.points.count() == 300)
  }

  test("clusterAuto is deterministic") {
    val rnd = new Random(5)
    val x = Array.fill(500)(Array.fill(3)(rnd.nextGaussian()))
    val df = ClusterData.toDFn(spark, x, Array.fill(x.length)(0))
    val a = AdaWave.clusterAuto(df, Seq("f0", "f1", "f2"), assignNoise = false)
    val b = AdaWave.clusterAuto(df, Seq("f0", "f1", "f2"), assignNoise = false)
    assert(a.threshold == b.threshold && Oracle.boxed(a.cellLabels) == Oracle.boxed(b.cellLabels))
  }

  test("clusterAuto on an empty frame finds no clusters and labels no rows") {
    val df = ClusterData.toDFn(spark, Array(Array(0.0, 0.0, 0.0)), Array(0)).limit(0)
    val res = AdaWave.clusterAuto(df, Seq("f0", "f1", "f2"), assignNoise = true)
    assert(res.numClusters == 0)
    assert(res.cellLabels.size == 0)
    assert(res.points.count() == 0)
    assert(res.points.columns.contains(AdaWave.ClusterCol))
  }
}
