package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop, Test => SCTest}
import repro.Oracle
import repro.Oracle.{Cells, boxed, dwt1D, flat}
import repro.core.Wavelet._

class WaveletSpec extends AnyFunSuite {

  private def check(p: Prop, n: Int = 50): Unit =
    assert(SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(n), p).passed)

  /** The flat transform of the `d`-dimensional boxed cells `grid`, boxed. */
  private def transformed(grid: Cells, d: Int, family: Family, levels: Int): Cells =
    boxed(transform(flat(d, grid), family, levels))

  /** The flat one-dimension pass on the 1-D boxed cells `grid`, boxed. */
  private def pass1D(grid: Cells, family: Family): Cells =
    boxed(transformDim(flat(1, grid), 0, family.lowPass, family.center))

  test("Haar low-pass sums to 1") { assert(math.abs(Haar.lowPass.sum - 1.0) < 1e-12) }
  test("Daubechies-4 low-pass sums to 1") { assert(math.abs(Daubechies4.lowPass.sum - 1.0) < 1e-12) }
  test("CDF(2,2) low-pass sums to 1") { assert(math.abs(CDF22.lowPass.sum - 1.0) < 1e-12) }
  test("families are exposed with distinct names") {
    assert(families.map(_.name).distinct.size == 3)
  }

  test("dwt1D of a constant signal stays constant in the interior (Haar)") {
    val out = dwt1D(Array.fill(16)(3.0), Haar.lowPass)
    assert(out.length == 8)
    out.foreach(v => assert(math.abs(v - 3.0) < 1e-12))
  }

  test("dwt1D halves the length, rounding up") {
    assert(dwt1D(Array.fill(7)(1.0), Haar.lowPass).length == 4)
    assert(dwt1D(Array.fill(8)(1.0), Haar.lowPass).length == 4)
  }

  test("dwt1D impulse response places h taps at the right outputs (Haar)") {
    val x = Array(0.0, 0.0, 1.0, 0.0, 0.0, 0.0)
    val out = dwt1D(x, Haar.lowPass)
    // x(2) contributes h(0)=0.5 at k=1 only (2k+j=2 → k=1,j=0).
    assert(math.abs(out(1) - 0.5) < 1e-12)
    assert(math.abs(out(0)) < 1e-12 && math.abs(out(2)) < 1e-12)
  }

  test("dwt1D is linear") {
    val gen = Gen.listOfN(12, Gen.chooseNum(-5.0, 5.0)).map(_.toArray)
    check(Prop.forAll(gen, gen) { (a, b) =>
      val sum = a.zip(b).map { case (u, v) => u + 2.5 * v }
      val lhs = dwt1D(sum, CDF22.lowPass)
      val rhs = dwt1D(a, CDF22.lowPass).zip(dwt1D(b, CDF22.lowPass)).map { case (u, v) => u + 2.5 * v }
      lhs.zip(rhs).forall { case (u, v) => math.abs(u - v) < 1e-9 }
    })
  }

  test("sparse transformDim matches dense dwt1D on 1-D grids") {
    val gen = Gen.listOfN(20, Gen.chooseNum(0.0, 9.0)).map(_.toArray)
    check(Prop.forAll(gen) { dense =>
      val sparse = dense.zipWithIndex.collect { case (v, i) if v != 0.0 => Vector(i) -> v }.toMap
      val out = pass1D(sparse, CDF22)
      val expect = dwt1D(dense, CDF22.lowPass, CDF22.center)
      expect.zipWithIndex.forall { case (v, k) =>
        math.abs(out.getOrElse(Vector(k), 0.0) - v) < 1e-9
      } && out.keys.forall(_.head < expect.length)
    })
  }

  test("sparse transform ignores zero cells entirely") {
    assert(pass1D(Map(Vector(4) -> 2.0), Haar) == Map(Vector(2) -> 1.0))
  }

  test("2-D transform is separable (Haar, product input)") {
    val f = Array(1.0, 2.0, 3.0, 4.0)
    val g = Array(4.0, 3.0, 2.0, 1.0)
    val grid = (for (i <- f.indices; j <- g.indices) yield Vector(i, j) -> f(i) * g(j)).toMap
    val out = transformed(grid, 2, Haar, 1)
    val ff = dwt1D(f, Haar.lowPass)
    val gg = dwt1D(g, Haar.lowPass)
    for (i <- ff.indices; j <- gg.indices) {
      val expect = ff(i) * gg(j)
      assert(math.abs(out.getOrElse(Vector(i, j), 0.0) - expect) < 1e-9,
        s"cell ($i,$j): got ${out.get(Vector(i, j))}, want $expect")
    }
  }

  test("Haar transform halves total mass per dimension per level") {
    val grid = flat(2, (0 until 16).map(i => Vector(i, i % 4) -> (i + 1.0)))
    assert(math.abs(transform(grid, Haar, 1).values.sum - grid.values.sum * 0.25) < 1e-9)
  }

  test("two levels equal two sequential one-level transforms") {
    val grid = flat(1, (0 until 32).map(i => Vector(i) -> (math.sin(i / 3.0) + 2.0)))
    val twice = boxed(transform(transform(grid, Daubechies4, 1), Daubechies4, 1))
    val once2 = boxed(transform(grid, Daubechies4, 2))
    assert(twice.keySet == once2.keySet)
    twice.foreach { case (k, v) => assert(math.abs(once2(k) - v) < 1e-9) }
  }

  test("low-pass smoothing: isolated cell loses mass relative to a dense block") {
    // A 4-cell dense block vs an isolated cell of the same density.
    val block = (8 until 12).map(i => Vector(i) -> 10.0).toMap
    val iso = Map(Vector(20) -> 10.0)
    val out = transformed(block ++ iso, 1, CDF22, 1)
    val blockPeak = (4 until 6).map(k => out.getOrElse(Vector(k), 0.0)).max
    val isoPeak = out.getOrElse(Vector(10), 0.0)
    assert(blockPeak > isoPeak, s"block $blockPeak should exceed isolated $isoPeak")
  }

  test("transform output coordinates are the dyadic shift of inputs") {
    val out = transformed(Map(Vector(100, 40) -> 1.0), 2, Haar, 1)
    assert(out.keys.forall(c => c(0) == 50 && c(1) == 20))
  }

  test("near-zero coefficients are dropped") {
    assert(pass1D(Map(Vector(0) -> 1e-13), Haar).isEmpty)
  }

  test("boundary cell 0 still contributes (zero padding, no crash)") {
    assert(pass1D(Map(Vector(0) -> 4.0), Haar) == Map(Vector(0) -> 2.0))
  }

  test("CDF22 interior mass contribution is one half per point") {
    val out = pass1D(Map(Vector(10) -> 1.0, Vector(11) -> 1.0), CDF22)
    assert(math.abs(out.values.sum - 1.0) < 1e-9)
  }

  /** Integer-count sparse grids with d in 1..`maxD` and d·levels < 40, so
    * the per-pass filter of `transformDim` never drops a cell.
    */
  private def countGrids(maxD: Int): Gen[(Int, Int, Cells)] = for {
    d <- Gen.chooseNum(1, maxD)
    levels <- Gen.chooseNum(1, math.min(3, 39 / d))
    pts <- Gen.nonEmptyListOf(Gen.zip(Gen.listOfN(d, Gen.chooseNum(0, 63)), Gen.chooseNum(1, 5)))
  } yield (d, levels, pts.groupMapReduce(_._1.toVector)(_._2.toDouble)(_ + _))

  /** The chain of `d·levels` boxed per-dimension passes of `family`. */
  private def chain(grid: Cells, d: Int, family: Family, levels: Int): Cells =
    (0 until d * levels).foldLeft(grid) { (g, i) =>
      Oracle.transformDim(g, i % d, family.lowPass, family.center)
    }

  test("Haar transform equals the chain of per-dimension passes exactly") {
    check(Prop.forAll(countGrids(33)) { case (d, levels, grid) =>
      transformed(grid, d, Haar, levels) == chain(grid, d, Haar, levels)
    }, 100)
  }

  test("the flat transform equals the boxed references on integer counts") {
    // CDF(2,2) values are multiples of 2^-(3·d·levels); d·levels ≤ 12 keeps
    // them above the 1e-12 filter and exact in a double, so Haar and
    // CDF(2,2) must match bit for bit. Daubechies-4's taps are irrational,
    // so a different summation order may move the last bits.
    check(Prop.forAll(countGrids(6)) { case (d, l, grid) =>
      val levels = math.min(l, 2)
      val haar = Oracle.dyadicMerge(grid, levels, math.scalb(1.0, -d * levels))
      val db4 = chain(grid, d, Daubechies4, levels)
      val got = transformed(grid, d, Daubechies4, levels)
      transformed(grid, d, Haar, levels) == haar &&
        transformed(grid, d, CDF22, levels) == chain(grid, d, CDF22, levels) &&
        (db4.keySet ++ got.keySet).forall(c => math.abs(got.getOrElse(c, 0.0) - db4.getOrElse(c, 0.0)) <= 1e-12)
    }, 200)
  }

  test("coarsen is the one-level Haar transform scaled by 2^d") {
    check(Prop.forAll(countGrids(33)) { case (d, _, grid) =>
      AdaWave.coarsen(grid) ==
        transformed(grid, d, Haar, 1).map { case (c, v) => c -> math.scalb(v, d) }
    }, 100)
  }

  test("the flat merge of a count table equals dyadicMerge and keeps the total count") {
    check(Prop.forAll(countGrids(33), Gen.chooseNum(1, 6)) { case ((d, _, grid), shift) =>
      val table = flat(d, grid)
      val merged = table.merged(shift, 1.0)
      boxed(merged) == Oracle.dyadicMerge(grid, shift, 1.0) &&
        merged.values.sum == grid.values.sum
    }, 100)
  }

  test("Haar keeps one-point cells when d·levels reaches 40") {
    val two = Map(Vector.fill(20)(6) -> 1.0, Vector.fill(20)(40) -> 3.0)
    assert(transformed(two, 20, Haar, 2) ==
      Map(Vector.fill(20)(1) -> math.scalb(1.0, -40), Vector.fill(20)(10) -> math.scalb(3.0, -40)))
    for (d <- Seq(40, 41))
      assert(transformed(Map(Vector.fill(d)(5) -> 1.0), d, Haar, 1) ==
        Map(Vector.fill(d)(2) -> math.scalb(1.0, -d)))
  }

  test("d-dimensional transform applies the 1-D pass d times") {
    val out = transformed(Map(Vector(4, 4, 4) -> 8.0), 3, Haar, 1)
    // 0.5 per dimension → value 1.0 at (2,2,2).
    assert(math.abs(out(Vector(2, 2, 2)) - 1.0) < 1e-9)
  }
}
