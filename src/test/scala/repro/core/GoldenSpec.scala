package repro.core

import repro.SparkSpec
import repro.data.{ClusterData, UciLike}
import repro.harness.Harness
import scala.util.Random
import scala.util.hashing.MurmurHash3

/** Golden outputs on fixed seeds: `(numClusters, threshold, partition
  * hash)` must repeat exactly. A refactor of the driver-side grid stages
  * must reproduce every row bit for bit, the threshold included.
  *
  * The hash is of the partition, not of the component ids: noise keeps
  * label 0 and the clusters are renumbered 1, 2, … in order of first
  * appearance by point index, so a change that only renumbers components
  * keeps the hash, and one that moves a point between clusters (or into
  * or out of noise) changes it.
  */
class GoldenSpec extends SparkSpec {

  private def golden(name: String, x: Array[Array[Double]], expect: (Int, Double, Int))
                    (call: (org.apache.spark.sql.DataFrame, Seq[String]) => AdaWaveResult): Unit =
    test(s"golden: $name") {
      val df = ClusterData.toDFn(spark, x, Array.fill(x.length)(0))
      val res = call(df, (0 until x(0).length).map(i => s"f$i"))
      val labels = Array.ofDim[Int](x.length)
      res.points.select("id", AdaWave.ClusterCol).collect()
        .foreach(r => labels(r.getLong(0).toInt) = r.getInt(1))
      val got = (res.numClusters, res.threshold, GoldenSpec.hash(labels))
      assert(got == expect, s"$name: got $got, want $expect")
    }

  /** A fixture through the harness, which assigns noise on the driver: its
    * partition must equal the one pinned for the pipeline's own assignment.
    */
  private def goldenHarness(name: String, x: Array[Array[Double]], expect: Int)
                           (call: Array[Array[Double]] => Array[Int]): Unit =
    test(s"golden through the harness: $name") {
      val got = GoldenSpec.hash(call(x))
      assert(got == expect, s"$name: got partition hash $got, want $expect")
    }

  private val uci = Map(
    "Seeds" -> (UciLike.seeds(), (7, 0.02734375, 1986408003)),
    "Iris" -> (UciLike.iris(), (4, 0.59375, 595442116)),
    "Glass" -> (UciLike.glass(), (4, 0.0263671875, 33728252)),
    "DUMDH" -> (UciLike.dumdh(), (8, 0.00103759765625, -1233890323)),
    "HTRU2" -> (UciLike.htru2(), (4, 0.115234375, -877623713)),
    "Dermatology" -> (UciLike.dermatology(), (13, 4.0745362639427185E-10, -86224517)),
    "Motor" -> (UciLike.motor(), (3, 1.0, 1605310674)),
    "Wholesale" -> (UciLike.wholesale(), (4, 0.017578125, -132719615)))

  for ((name, (ds, expect)) <- uci.toSeq.sortBy(_._1)) {
    golden(s"clusterAuto on $name (d = ${ds.d})", UciLike.unitScale(ds.x), expect) {
      (df, cols) => AdaWave.clusterAuto(df, cols, assignNoise = true)
    }
    goldenHarness(s"adaWaveAuto on $name (d = ${ds.d})", UciLike.unitScale(ds.x), expect._3) {
      Harness.adaWaveAuto(spark, _, assignNoise = true)
    }
  }

  for ((noise, expect) <- Seq(0.5 -> (59, 1.6796875, -986258829), 0.8 -> (92, 3.6171875, -21447183),
                              0.9 -> (113, 6.4140625, 773062847)))
    golden(s"cluster on the running example at noise $noise",
        ClusterData.runningExample(1400, noise, 7)._1, expect) {
      (df, cols) => AdaWave.cluster(df, cols, AdaWaveConfig.auto(2))
    }

  /** The four 7-D Gaussians of `AdaWaveSpec`, clustered with Haar at 8 bins. */
  private val gauss7 = {
    val rnd = new Random(13)
    val centers = Array.fill(4)(Array.fill(7)(rnd.nextDouble()))
    for (c <- 0 until 4; _ <- 0 until 400)
      yield Array.tabulate(7)(j => centers(c)(j) + rnd.nextGaussian() * 0.03)
  }.toArray

  private val gauss7Expect = (4, 0.78515625, 1787476433)

  golden("cluster on four 7-D Gaussians (Haar)", gauss7, gauss7Expect) {
    (df, cols) => AdaWave.cluster(df, cols, AdaWaveConfig(bins = 8, family = Wavelet.Haar, diagonal = false, assignNoise = true))
  }

  goldenHarness("adaWave on four 7-D Gaussians (Haar)", gauss7, gauss7Expect._3) {
    Harness.adaWave(spark, _, AdaWaveConfig(bins = 8, family = Wavelet.Haar, diagonal = false, assignNoise = true))
  }
}

object GoldenSpec {

  def hash(labels: Array[Int]): Int = MurmurHash3.arrayHash(partition(labels))

  /** `labels` with noise kept at 0 and the clusters renumbered 1, 2, … in
    * order of first appearance.
    */
  def partition(labels: Array[Int]): Array[Int] = {
    val ids = scala.collection.mutable.HashMap(AdaWave.NoiseLabel -> AdaWave.NoiseLabel)
    labels.map(l => ids.getOrElseUpdate(l, ids.size))
  }
}
