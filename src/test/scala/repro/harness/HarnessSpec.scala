package repro.harness

import repro.SparkSpec
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

  test("extend1NN propagates sample labels to all points") {
    val x = Array(Array(0.0), Array(0.1), Array(10.0), Array(10.1))
    val sampleIdx = Array(0, 2)
    val sample = sampleIdx.map(x(_))
    val out = Harness.extend1NN(x, sampleIdx, sample, Array(7, 9))
    assert(out.sameElements(Array(7, 7, 9, 9)))
  }

  test("dbscanBest picks the epsilon with the highest score") {
    val rnd = new Random(1)
    val x = Array.fill(200)(Array(0.2 + rnd.nextGaussian() * 0.01, 0.2 + rnd.nextGaussian() * 0.01)) ++
            Array.fill(200)(Array(0.8 + rnd.nextGaussian() * 0.01, 0.8 + rnd.nextGaussian() * 0.01))
    val truth = Array.fill(200)(1) ++ Array.fill(200)(2)
    val (pred, score) = Harness.dbscanBest(x, truth, Seq(0.0001, 0.05), minPts = 5,
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

  test("adaWave and adaWaveAuto on no points return no labels") {
    val none = Array.empty[Array[Double]]
    assert(Harness.adaWave(spark, none, repro.core.AdaWaveConfig.auto(2)).isEmpty)
    assert(Harness.adaWaveAuto(spark, none, assignNoise = true).isEmpty)
  }
}
