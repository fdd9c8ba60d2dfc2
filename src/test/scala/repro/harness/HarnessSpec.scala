package repro.harness

import org.scalacheck.{Gen, Prop, Test => SCTest}
import repro.SparkSpec
import repro.baselines.LinAlg
import repro.eval.AMI
import scala.util.Random

class HarnessSpec extends SparkSpec {

  test("assignNoise maps every noise point to the nearest centroid") {
    val x = Array(Array(0.0, 0.0), Array(0.1, 0.0), Array(5.0, 5.0), Array(4.9, 5.0),
                  Array(0.2, 0.1), Array(4.8, 4.9))
    val labels = Array(1, 1, 2, 2, 0, 0)
    val out = Harness.assignNoise(x, labels)
    assert(out.sameElements(Array(1, 1, 2, 2, 1, 2)))
  }

  test("assignNoise with no clusters leaves labels untouched") {
    val x = Array(Array(0.0), Array(1.0))
    val labels = Array(0, 0)
    assert(Harness.assignNoise(x, labels).sameElements(labels))
  }

  /** `assignNoise` as first written: one filter of every label per
    * cluster. The oracle its one-count-pass version must equal bit for bit.
    */
  private def assignNoiseOracle(x: Array[Array[Double]], labels: Array[Int]): Array[Int] = {
    val ids = labels.distinct.filter(_ != 0)
    if (ids.isEmpty) return labels
    val d = x(0).length
    val centroids = ids.map { c =>
      val members = labels.indices.filter(labels(_) == c)
      val ctr = Array.ofDim[Double](d)
      for (i <- members; j <- 0 until d) ctr(j) += x(i)(j) / members.length
      c -> ctr
    }
    labels.indices.map { i =>
      if (labels(i) != 0) labels(i)
      else centroids.minBy { case (_, ctr) => LinAlg.sqDist(x(i), ctr) }._1
    }.toArray
  }

  test("assignNoise equals the per-cluster-filter version on every input") {
    // Coordinates on a coarse lattice make exact distance ties common; a
    // few NaNs pin how a NaN distance orders.
    val coord = Gen.frequency(20 -> Gen.choose(0, 4).map(_ * 0.25), 1 -> Gen.const(Double.NaN))
    val inputs = for {
      d <- Gen.choose(1, 4)
      n <- Gen.choose(0, 40)
      x <- Gen.listOfN(n, Gen.listOfN(d, coord).map(_.toArray))
      labels <- Gen.listOfN(n, Gen.frequency(3 -> Gen.const(0), 2 -> Gen.choose(-2, 5)))
    } yield (x.toArray, labels.toArray)
    val prop = Prop.forAllNoShrink(inputs) { case (x, labels) =>
      Harness.assignNoise(x, labels).sameElements(assignNoiseOracle(x, labels))
    }
    assert(SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(300), prop).passed)
  }

  test("dbscanBest picks the epsilon with the highest score") {
    val rnd = new Random(1)
    val x = Array.fill(200)(Array(0.2 + rnd.nextGaussian() * 0.01, 0.2 + rnd.nextGaussian() * 0.01)) ++
            Array.fill(200)(Array(0.8 + rnd.nextGaussian() * 0.01, 0.8 + rnd.nextGaussian() * 0.01))
    val truth = Array.fill(200)(1) ++ Array.fill(200)(2)
    val (pred, score) = Harness.dbscanBest(x, truth, Seq(0.0001, 0.05),
      score = (t, p) => AMI.ami(t, p))
    assert(score > 0.9)
    assert(pred.distinct.count(_ != 0) == 2)
  }

  test("adaWave harness returns labels aligned with input order") {
    val rnd = new Random(2)
    val left = Array.fill(300)(Array(0.15 + rnd.nextGaussian() * 0.02, 0.5 + rnd.nextGaussian() * 0.02))
    val right = Array.fill(300)(Array(0.85 + rnd.nextGaussian() * 0.02, 0.5 + rnd.nextGaussian() * 0.02))
    val noise = Array.fill(400)(Array(rnd.nextDouble(), rnd.nextDouble()))
    val x = left ++ right ++ noise
    val pred = Harness.adaWave(spark, x, repro.core.AdaWaveConfig.auto(2))
    // The first 300 and next 300 should be (near-)uniformly two distinct clusters.
    val leftLabels = pred.slice(0, 300).filter(_ != 0)
    val rightLabels = pred.slice(300, 600).filter(_ != 0)
    assert(leftLabels.nonEmpty && rightLabels.nonEmpty)
    assert(leftLabels.groupBy(identity).maxBy(_._2.length)._1 !=
           rightLabels.groupBy(identity).maxBy(_._2.length)._1)
  }

  test("timeMs measures and returns the body's result") {
    val (v, ms) = Harness.timeMs { Thread.sleep(5); 42 }
    assert(v == 42 && ms >= 4.0)
  }

  test("formatTable aligns columns and separates header") {
    val t = Harness.formatTable(Seq("a", "bb"), Seq(Seq("1", "2"), Seq("333", "4")))
    val lines = t.split("\n")
    assert(lines.length == 4)
    assert(lines.map(_.length).distinct.length == 1, "all lines equal width")
    assert(lines(1).forall(c => c == '-' || c == '|'))
  }

  test("adaWaveAuto with noise assignment runs two Grid jobs and one label job") {
    val rnd = new Random(5)
    val centres = Array.fill(3)(Array.fill(5)(rnd.nextDouble()))
    val x = Array.tabulate(3000)(i => centres(i % 3).map(_ + 0.02 * rnd.nextGaussian()))
    val jobs = jobStages(Harness.adaWaveAuto(spark, x, assignNoise = true))
    // The noise is assigned on the driver: no centroid job, no AdaWave.scala job.
    assert(jobs.size == 3, jobs)
    val stages = jobs.flatten
    assert(stages.count(_.startsWith("collect at Grid.scala:")) == 2, jobs)
    assert(stages.count(_.startsWith("collect at Harness.scala:")) == 1, jobs)
    assert(!stages.exists(_.contains("AdaWave.scala")), jobs)
  }

  test("adaWave and adaWaveAuto on no points return no labels") {
    val none = Array.empty[Array[Double]]
    assert(Harness.adaWave(spark, none, repro.core.AdaWaveConfig.auto(2)).isEmpty)
    assert(Harness.adaWaveAuto(spark, none, assignNoise = true).isEmpty)
  }
}
