package repro.core

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite
import repro.Oracle
import repro.core.{ConnectedComponents => CC}
import scala.util.Random

class ConnectedComponentsSpec extends AnyFunSuite {

  /** The component ids of `cells`, listed in this order in the table. */
  private def label(cells: Seq[Vector[Int]], diagonal: Boolean): Map[Vector[Int], Int] = {
    val d = cells.headOption.fold(1)(_.size)
    Oracle.boxed(CC.label(Oracle.flat(d, cells.map(_ -> 0.0)), diagonal))
      .map { case (c, id) => c -> id.toInt }
  }

  private def label(cells: Set[Vector[Int]], diagonal: Boolean): Map[Vector[Int], Int] =
    label(cells.toSeq, diagonal)

  test("empty set gives no labels") {
    assert(label(Set.empty[Vector[Int]], diagonal = false).isEmpty)
  }

  test("single cell forms one component labeled 1") {
    assert(label(Set(Vector(3, 3)), diagonal = false) == Map(Vector(3, 3) -> 1))
  }

  test("two face-adjacent cells share a component") {
    val m = label(Set(Vector(0, 0), Vector(0, 1)), diagonal = false)
    assert(m.values.toSet.size == 1)
  }

  test("diagonal cells: separate under face adjacency, joined under Moore") {
    val cells = Set(Vector(0, 0), Vector(1, 1))
    assert(label(cells, diagonal = false).values.toSet.size == 2)
    assert(label(cells, diagonal = true).values.toSet.size == 1)
  }

  test("two distant blobs form two components") {
    val blobA = (for (i <- 0 to 2; j <- 0 to 2) yield Vector(i, j)).toSet
    val blobB = (for (i <- 10 to 12; j <- 10 to 12) yield Vector(i, j)).toSet
    val m = label(blobA ++ blobB, diagonal = true)
    assert(m.values.toSet.size == 2)
    assert(blobA.map(m).size == 1 && blobB.map(m).size == 1)
  }

  test("a ring of cells is a single component") {
    val ring = (for {
      i <- 0 to 8; j <- 0 to 8
      r = math.hypot(i - 4.0, j - 4.0)
      if r >= 2.8 && r <= 4.2
    } yield Vector(i, j)).toSet
    assert(label(ring, diagonal = true).values.toSet.size == 1)
  }

  test("an L-shaped corridor is a single component") {
    val l = ((0 to 5).map(i => Vector(i, 0)) ++ (0 to 5).map(j => Vector(5, j))).toSet
    assert(label(l, diagonal = false).values.toSet.size == 1)
  }

  test("labels are consecutive starting from 1") {
    val cells = Set(Vector(0, 0), Vector(5, 5), Vector(9, 9))
    val labels = label(cells, diagonal = false).values.toSet
    assert(labels == Set(1, 2, 3))
  }

  test("labeling is deterministic") {
    val cells = (0 until 50).map(i => Vector(i * 3 % 17, i * 7 % 13)).toSet
    assert(label(cells, diagonal = true) == label(cells, diagonal = true))
  }

  test("3-D face adjacency connects along every axis") {
    val m = label(Set(Vector(0, 0, 0), Vector(0, 0, 1), Vector(0, 1, 1)), diagonal = false)
    assert(m.values.toSet.size == 1)
  }

  test("mooreOffsets enumerates 3^d - 1 neighbours") {
    assert(CC.mooreOffsets(1).size == 2)
    assert(CC.mooreOffsets(2).size == 8)
    assert(CC.mooreOffsets(3).size == 26)
  }

  test("mooreOffsets refuses absurd dimensionality") {
    intercept[IllegalArgumentException] { CC.mooreOffsets(9) }
  }

  test("high-dimensional face adjacency works (d = 12)") {
    val a = Vector.fill(12)(0)
    val b = a.updated(7, 1)
    val c = Vector.fill(12)(5)
    val m = label(Set(a, b, c), diagonal = false)
    assert(m(a) == m(b) && m(a) != m(c))
  }

  test("ids run in descending component size, ties broken by the smallest cell") {
    val big = (0 to 4).map(i => Vector(20, i))              // 5 cells
    val far = (0 to 2).map(i => Vector(9, 10 + i))          // 3 cells, least (9, 10)
    val near = (0 to 2).map(i => Vector(3 + i, 7))          // 3 cells, least (3, 7)
    val lone = Seq(Vector(0, 30))                           // 1 cell
    val m = label(lone ++ far ++ near ++ big, diagonal = false)
    assert(big.map(m).toSet == Set(1) && near.map(m).toSet == Set(2) &&
      far.map(m).toSet == Set(3) && lone.map(m).toSet == Set(4))
  }

  test("two lone cells get the same ids in either insertion order") {
    val (a, b) = (Vector(7, 1), Vector(2, 9))
    assert(label(Seq(a, b), diagonal = true) == Map(b -> 1, a -> 2))
    assert(label(Seq(b, a), diagonal = true) == Map(b -> 1, a -> 2))
  }

  test("ids do not depend on the order of the table's rows") {
    val cells = for {
      d <- Gen.chooseNum(1, 4)
      cs <- Gen.nonEmptyListOf(Gen.listOfN(d, Gen.chooseNum(0, 6)).map(_.toVector))
    } yield cs.distinct
    val prop = Prop.forAll(cells, Gen.oneOf(false, true), Gen.long) { (cs, diagonal, seed) =>
      label(cs, diagonal) == label(new Random(seed).shuffle(cs), diagonal)
    }
    assert(SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(200), prop).passed)
  }
}
