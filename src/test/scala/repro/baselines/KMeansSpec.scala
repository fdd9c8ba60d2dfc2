package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.eval.AMI
import scala.util.Random

class KMeansSpec extends AnyFunSuite {

  private def blobs(seed: Long = 1): (Array[Array[Double]], Array[Int]) = {
    val rnd = new Random(seed)
    val centers = Array(Array(0.0, 0.0), Array(10.0, 0.0), Array(5.0, 9.0))
    val x = Array.newBuilder[Array[Double]]
    val y = Array.newBuilder[Int]
    for (c <- centers.indices; _ <- 0 until 200) {
      x += Array(centers(c)(0) + rnd.nextGaussian(), centers(c)(1) + rnd.nextGaussian())
      y += c
    }
    (x.result(), y.result())
  }

  test("separated blobs are perfectly recovered") {
    val (x, y) = blobs()
    val m = KMeans.fit(x, 3)
    assert(AMI.ami(y, m.labels) > 0.98)
  }

  test("labels are in 0 until k") {
    val (x, _) = blobs()
    val m = KMeans.fit(x, 3)
    assert(m.labels.forall(l => l >= 0 && l < 3))
    assert(m.labels.distinct.length == 3)
  }

  test("same seed gives identical results") {
    val (x, _) = blobs()
    assert(KMeans.fit(x, 3, seed = 5).labels.sameElements(KMeans.fit(x, 3, seed = 5).labels))
  }

  test("centroids land near the true centers") {
    val (x, _) = blobs()
    val m = KMeans.fit(x, 3)
    val found = m.centroids.map(c => (math.round(c(0) / 5) * 5, math.round(c(1) / 9) * 9)).toSet
    assert(found == Set((0L, 0L), (10L, 0L), (5L, 9L)))
  }

  test("k larger than n is clamped") {
    val x = Array(Array(0.0), Array(1.0))
    val m = KMeans.fit(x, 10)
    assert(m.labels.length == 2)
  }

  test("k = 1 puts everything in one cluster") {
    val (x, _) = blobs()
    assert(KMeans.fit(x, 1).labels.forall(_ == 0))
  }

  test("inertia of the correct k is far below k = 1") {
    val (x, _) = blobs()
    assert(KMeans.fit(x, 3).inertia < KMeans.fit(x, 1).inertia / 5)
  }

  test("restarts only improve inertia") {
    val (x, _) = blobs(3)
    val one = KMeans.fit(x, 3, restarts = 1).inertia
    val four = KMeans.fit(x, 3, restarts = 4).inertia
    assert(four <= one + 1e-9)
  }

  test("single point works") {
    val m = KMeans.fit(Array(Array(2.0, 3.0)), 1)
    assert(m.labels.sameElements(Array(0)))
  }

  test("nearest extends sample labels to every point by 1-NN") {
    val x = Array(Array(0.0), Array(0.1), Array(10.0), Array(10.1))
    val sample = Array(0, 2).map(x(_))
    val sampleLabels = Array(7, 9)
    assert(x.map(p => sampleLabels(KMeans.nearest(p, sample))).sameElements(Array(7, 7, 9, 9)))
  }

  test("nearest breaks a tie toward the first index") {
    val centroids = Array(Array(1.0, 0.0), Array(0.0, 1.0), Array(-1.0, 0.0), Array(1.0, 0.0))
    assert(KMeans.nearest(Array(0.0, 0.0), centroids) == 0)
    assert(KMeans.nearest(Array(1.0, 0.0), centroids) == 0)
    assert(KMeans.nearest(Array(0.5, 0.5), centroids) == 0)
    assert(KMeans.nearest(Array(-0.5, 0.5), centroids) == 1)
  }

  test("nearest: a NaN distance to the first centroid loses to a finite one") {
    val centroids = Array(Array(Double.NaN, 0.0), Array(5.0, 5.0), Array(0.0, 0.0))
    assert(KMeans.nearest(Array(0.0, 0.0), centroids) == 2)
    assert(KMeans.nearest(Array(4.0, 4.0), centroids) == 1)
  }
}
