package repro.core

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.data.ClusterData
import repro.eval.AMI
import repro.harness.Harness
import scala.util.Random

class AdaWaveSpec extends SparkSpec {

  /** Compact-support uniform discs + uniform noise — the paper's cluster
    * style (its synthetic clusters are uniform rectangles/discs/rings with
    * sharp edges, which is where the elbow threshold is well defined).
    */
  private def blobs(k: Int, perCluster: Int, noise: Int, seed: Long = 5):
      (Array[Array[Double]], Array[Int]) = {
    val rnd = new Random(seed)
    val centers = Array((0.2, 0.2), (0.8, 0.25), (0.5, 0.8), (0.15, 0.75), (0.85, 0.8))
    val pts = Array.newBuilder[Array[Double]]
    val lbl = Array.newBuilder[Int]
    for (c <- 0 until k; _ <- 0 until perCluster) {
      val r = 0.07 * math.sqrt(rnd.nextDouble())
      val th = rnd.nextDouble() * 2 * math.Pi
      pts += Array(centers(c)._1 + r * math.cos(th), centers(c)._2 + r * math.sin(th))
      lbl += c + 1
    }
    for (_ <- 0 until noise) { pts += Array(rnd.nextDouble(), rnd.nextDouble()); lbl += 0 }
    (pts.result(), lbl.result())
  }

  private def run(x: Array[Array[Double]], cfg: AdaWaveConfig = AdaWaveConfig.auto(2)): Array[Int] =
    Harness.adaWave(spark, x, cfg)

  test("three separated blobs with 40% noise are recovered") {
    val (x, truth) = blobs(3, 800, 1600)
    val pred = run(x)
    val ami = AMI.amiNonNoise(truth, pred, 0)
    assert(ami > 0.85, s"AMI $ami")
  }

  test("running example at 50% noise reaches a high AMI (Fig. 2 regime)") {
    val (x, truth) = ClusterData.runningExample(clusterSize = 1400, noiseFrac = 0.5)
    val pred = run(x)
    val ami = AMI.amiNonNoise(truth, pred, ClusterData.NoiseLabel)
    assert(ami > 0.6, s"AMI $ami")
  }

  test("running example at 80% noise stays robust (the paper's headline claim)") {
    val (x, truth) = ClusterData.runningExample(clusterSize = 1400, noiseFrac = 0.8)
    val pred = run(x)
    val ami = AMI.amiNonNoise(truth, pred, ClusterData.NoiseLabel)
    assert(ami > 0.5, s"AMI $ami")
  }

  test("shape-insensitive: a ring and a blob are both uncovered") {
    // Paper-style compact-support shapes of comparable density (the global
    // elbow threshold presumes clusters of similar density, §IV-C/Fig. 6).
    val rnd = new Random(9)
    val pts = Array.newBuilder[Array[Double]]
    val lbl = Array.newBuilder[Int]
    for (_ <- 0 until 1500) {
      val th = rnd.nextDouble() * 2 * math.Pi
      val r = 0.24 + rnd.nextDouble() * 0.02
      pts += Array(0.5 + r * math.cos(th), 0.5 + r * math.sin(th)); lbl += 1
    }
    for (_ <- 0 until 1500) {
      val th = rnd.nextDouble() * 2 * math.Pi
      val r = 0.1 * math.sqrt(rnd.nextDouble())
      pts += Array(0.5 + r * math.cos(th), 0.5 + r * math.sin(th)); lbl += 2
    }
    for (_ <- 0 until 2000) { pts += Array(rnd.nextDouble(), rnd.nextDouble()); lbl += 0 }
    val (x, truth) = (pts.result(), lbl.result())
    val pred = run(x)
    val ami = AMI.amiNonNoise(truth, pred, 0)
    assert(ami > 0.6, s"ring+blob AMI $ami")
    // Both shapes must map to one dominant predicted cluster each, and they
    // must be different clusters.
    def dominant(t: Int) = {
      val sub = truth.indices.filter(truth(_) == t).map(pred(_)).filter(_ != 0)
      sub.groupBy(identity).maxBy(_._2.size)._1
    }
    assert(dominant(1) != dominant(2))
  }

  test("deterministic: two runs agree exactly") {
    val (x, _) = blobs(3, 400, 800)
    assert(run(x).sameElements(run(x)))
  }

  test("order-insensitive: shuffling the input rows does not change the clustering") {
    val (x, _) = blobs(3, 400, 800)
    val perm = new Random(11).shuffle(x.indices.toVector).toArray
    val shuffled = perm.map(x(_))
    val predShuffled = run(shuffled)
    val pred = run(x)
    // Align back to original order; partitions must be identical (AMI 1).
    val restored = Array.ofDim[Int](x.length)
    for (i <- perm.indices) restored(perm(i)) = predShuffled(i)
    assert(AMI.ami(pred, restored) > 0.999)
  }

  test("assignNoise leaves no noise label behind") {
    val (x, _) = blobs(3, 400, 800)
    val pred = run(x, AdaWaveConfig.auto(2).copy(assignNoise = true))
    assert(!pred.contains(AdaWave.NoiseLabel))
  }

  test("result metadata: positive threshold and discovered clusters") {
    val (x, _) = blobs(4, 500, 1000)
    val df = ClusterData.toDFn(spark, x, Array.fill(x.length)(0))
    val res = AdaWave.cluster(df, Seq("f0", "f1"), AdaWaveConfig.auto(2))
    assert(res.threshold > 0)
    assert(res.numClusters >= 3, s"found ${res.numClusters}")
    assert(res.cellLabels.size > 0)
  }

  test("cluster column joins back onto every input row") {
    val (x, _) = blobs(2, 300, 300)
    val df = ClusterData.toDFn(spark, x, Array.fill(x.length)(0))
    val res = AdaWave.cluster(df, Seq("f0", "f1"), AdaWaveConfig.auto(2))
    assert(res.points.count() == x.length)
    assert(res.points.columns.toSeq == df.columns.toSeq :+ AdaWave.ClusterCol)
  }

  test("the label pass's closure holds the kept cells, not every occupied cell") {
    val (x, _) = ClusterData.runningExample(clusterSize = 1400, noiseFrac = 0.8)
    val df = ClusterData.toDFn(spark, x, Array.fill(x.length)(0))
    val (cols, cfg) = (Seq("f0", "f1"), AdaWaveConfig.auto(2))
    val res = AdaWave.cluster(df, cols, cfg)
    val q = Grid.quantize(df, cols, cfg.bins)
    assert(q.grid.size >= 10 * res.cellLabels.size,
      s"${q.grid.size} occupied cells, ${res.cellLabels.size} kept")
    def bytes(o: AnyRef): Int = {
      val buf = new java.io.ByteArrayOutputStream
      val out = new java.io.ObjectOutputStream(buf)
      out.writeObject(o)
      out.close()
      buf.size
    }
    val udfs = res.points.queryExecution.analyzed.flatMap(_.expressions.flatMap(_.collect {
      case u: org.apache.spark.sql.catalyst.expressions.ScalaUDF => u.function
    }))
    assert(udfs.size == 1)
    val (closure, cells) = (bytes(udfs.head), bytes(q.grid))
    assert(closure < cells, s"closure $closure bytes, cells $cells bytes")
  }

  test("higher-dimensional data: four separated 7-D Gaussians are recovered") {
    val rnd = new Random(13)
    val pts = Array.newBuilder[Array[Double]]
    val lbl = Array.newBuilder[Int]
    val centers = Array.fill(4)(Array.fill(7)(rnd.nextDouble()))
    for (c <- 0 until 4; _ <- 0 until 400) {
      pts += Array.tabulate(7)(j => centers(c)(j) + rnd.nextGaussian() * 0.03)
      lbl += c + 1
    }
    val (x, truth) = (pts.result(), lbl.result())
    val pred = run(x, AdaWaveConfig(bins = 8, family = Wavelet.Haar, diagonal = false, assignNoise = true))
    val ami = AMI.ami(truth, pred)
    assert(ami > 0.6, s"7-D AMI $ami")
  }

  test("auto config is the paper's scale default and refuses d >= 3") {
    assert(AdaWaveConfig.auto(2).bins == 128)
    assert(AdaWaveConfig.auto(2).diagonal)
    val e = intercept[IllegalArgumentException](AdaWaveConfig.auto(3))
    assert(e.getMessage.contains("clusterAuto"))
  }

  test("wavelet families other than the default also cluster the blobs") {
    val (x, truth) = blobs(3, 600, 1200)
    for (fam <- Wavelet.families) {
      val pred = run(x, AdaWaveConfig.auto(2).copy(family = fam))
      val ami = AMI.amiNonNoise(truth, pred, 0)
      assert(ami > 0.7, s"family ${fam.name} AMI $ami")
    }
  }

  test("noise points keep label 0 when assignNoise is off") {
    val (x, truth) = blobs(3, 500, 2000)
    val pred = run(x)
    val noisePred = truth.indices.filter(truth(_) == 0).map(pred(_))
    assert(noisePred.count(_ == AdaWave.NoiseLabel) > noisePred.size / 2)
  }

  test("cluster on an empty frame finds no clusters and labels no rows") {
    val df = ClusterData.toDFn(spark, Array(Array(0.0, 0.0)), Array(0)).limit(0)
    val res = AdaWave.cluster(df, Seq("f0", "f1"), AdaWaveConfig.auto(2).copy(assignNoise = true))
    assert(res.numClusters == 0)
    assert(res.cellLabels.size == 0)
    assert(res.points.count() == 0)
    assert(res.points.columns.contains(AdaWave.ClusterCol))
  }
}
