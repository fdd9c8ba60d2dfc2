package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.eval.AMI
import scala.util.Random

class DipMeansSpec extends AnyFunSuite {

  test("three well-separated blobs: splits discover k = 3") {
    val rnd = new Random(1)
    val centers = Array((0.0, 0.0), (10.0, 0.0), (5.0, 9.0))
    val x = Array.newBuilder[Array[Double]]
    val y = Array.newBuilder[Int]
    for (c <- centers.indices; _ <- 0 until 200) {
      x += Array(centers(c)._1 + rnd.nextGaussian() * 0.5, centers(c)._2 + rnd.nextGaussian() * 0.5)
      y += c
    }
    val pred = DipMeans.fit(x.result())
    assert(pred.distinct.length == 3, s"k=${pred.distinct.length}")
    assert(AMI.ami(y.result(), pred) > 0.95)
  }

  test("a single Gaussian is never split") {
    val rnd = new Random(2)
    val x = Array.fill(400)(Array(rnd.nextGaussian(), rnd.nextGaussian()))
    assert(DipMeans.fit(x).distinct.length == 1)
  }

  test("a uniform square is not split into spurious clusters") {
    val rnd = new Random(3)
    val x = Array.fill(500)(Array(rnd.nextDouble(), rnd.nextDouble()))
    assert(DipMeans.fit(x).distinct.length <= 2)
  }

  test("deterministic") {
    val rnd = new Random(4)
    val x = Array.fill(300)(Array(rnd.nextGaussian(), rnd.nextGaussian()))
    assert(DipMeans.fit(x).sameElements(DipMeans.fit(x)))
  }

  test("respects maxK") {
    val rnd = new Random(5)
    // Sixteen separated blobs on a 4 x 4 lattice, more than the cap.
    val x = Array.newBuilder[Array[Double]]
    for (c <- 0 until 16; _ <- 0 until 60)
      x += Array((c % 4) * 8.0 + rnd.nextGaussian() * 0.3, (c / 4) * 8.0 + rnd.nextGaussian() * 0.3)
    val k = DipMeans.fit(x.result()).distinct.length
    assert(k == DipMeans.MaxK, s"k=$k")
  }

  test("empty input") {
    assert(DipMeans.fit(Array.empty[Array[Double]]).isEmpty)
  }
}
