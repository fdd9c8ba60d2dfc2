package repro.core

import scala.util.hashing.MurmurHash3

/** The occupied cells of a d-dimensional grid, one value each, in flat
  * primitive arrays: the paper's sparse "grid labeling" structure
  * `{cell → density}` (§IV-A) and the one cell store of every stage, from
  * the density pass to the label pass's lookup.
  *
  * Cell `j` (in order of first insertion) has coordinates
  * `coords(j * d until (j + 1) * d)` and value `vals(j)`. An
  * open-addressing index over a hash of each coordinate row finds a cell,
  * and a row-equality check on lookup makes hash collisions harmless. No
  * cell is boxed, so counting N points into M cells allocates O(M·d) ints,
  * not a key object per point.
  */
final class CellGrid(val d: Int) extends Serializable {

  private var coords = new Array[Int](16 * d)
  private var vals = new Array[Double](16)
  // 1 + the row index of the cell in each slot; 0 marks an empty slot.
  private var slots = new Array[Int](32)
  private var n = 0

  /** Adds `v` to the cell `cell(off until off + d)`, inserting it if absent. */
  def add(cell: Array[Int], off: Int, v: Double): Unit = {
    val s = slotOf(cell, off)
    if (slots(s) != 0) vals(slots(s) - 1) += v
    else {
      if (n == vals.length) {
        coords = java.util.Arrays.copyOf(coords, 2 * n * d)
        vals = java.util.Arrays.copyOf(vals, 2 * n)
      }
      System.arraycopy(cell, off, coords, n * d, d)
      vals(n) = v
      n += 1
      slots(s) = n
      if (2 * n > slots.length) rehash()
    }
  }

  /** The row of the cell `cell(off until off + d)`, or -1 if it is absent. */
  def indexOf(cell: Array[Int], off: Int): Int = slots(slotOf(cell, off)) - 1

  /** Adds every cell of `rows` (as returned by [[rows]] on another grid). */
  private[core] def addAll(rows: (Array[Int], Array[Double])): this.type = {
    for (j <- rows._2.indices) add(rows._1, j * d, rows._2(j))
    this
  }

  /** The coordinates and values of the cells, trimmed to size. */
  private[core] def rows: (Array[Int], Array[Double]) = (java.util.Arrays.copyOf(coords, n * d), values)

  def size: Int = n
  def coord(j: Int, i: Int): Int = coords(j * d + i)
  def value(j: Int): Double = vals(j)
  def values: Array[Double] = java.util.Arrays.copyOf(vals, n)

  /** The grid `shift` dyadic levels coarser: every cell `p` goes to
    * `p >> shift` in each dimension, the values that meet are summed, and
    * each sum is scaled by `weight`. Only cells whose scaled sum is exactly
    * 0 are dropped, so a lone point keeps its cell at any depth.
    */
  private[core] def merged(shift: Int, weight: Double): CellGrid = {
    val sums = new CellGrid(d)
    val cell = new Array[Int](d)
    for (j <- 0 until n) {
      for (i <- 0 until d) cell(i) = coords(j * d + i) >> shift
      sums.add(cell, 0, vals(j))
    }
    for (j <- 0 until sums.n) sums.vals(j) *= weight
    if ((0 until sums.n).exists(sums.vals(_) == 0.0)) sums.filter(_ != 0.0) else sums
  }

  /** The cells whose value passes `keep`, in row order. */
  private[core] def filter(keep: Double => Boolean): CellGrid = {
    val out = new CellGrid(d)
    for (j <- 0 until n if keep(vals(j))) out.add(coords, j * d, vals(j))
    out
  }

  /** The same cells with the values `vs`, one per row. */
  private[core] def withValues(vs: Array[Double]): CellGrid = {
    val out = new CellGrid(d)
    out.coords = coords.clone()
    out.vals = vs.clone()
    out.slots = slots.clone()
    out.n = n
    out
  }

  /** Orders cells `a` and `b` lexicographically by coordinates. */
  private[core] def compareRows(a: Int, b: Int): Int = {
    var i = 0
    while (i < d && coord(a, i) == coord(b, i)) i += 1
    if (i == d) 0 else Integer.compare(coord(a, i), coord(b, i))
  }

  /** Boxes the grid as `{cell → value}`. A replay shim (ROADMAP item 1). */
  private[core] def toMap: Map[Vector[Int], Double] =
    (0 until n).map(j => Vector.tabulate(d)(coord(j, _)) -> vals(j)).toMap

  /** The slot of the cell `cell(off until off + d)`, or the empty slot it would take. */
  private def slotOf(cell: Array[Int], off: Int): Int = {
    val mask = slots.length - 1
    var s = hash(cell, off) & mask
    while (slots(s) != 0 && !sameRow(slots(s) - 1, cell, off)) s = (s + 1) & mask
    s
  }

  private def hash(cell: Array[Int], off: Int): Int = {
    var h = MurmurHash3.arraySeed
    var i = 0
    while (i < d) { h = MurmurHash3.mix(h, cell(off + i)); i += 1 }
    MurmurHash3.finalizeHash(h, d)
  }

  private def sameRow(j: Int, cell: Array[Int], off: Int): Boolean = {
    var i = 0
    while (i < d && coords(j * d + i) == cell(off + i)) i += 1
    i == d
  }

  private def rehash(): Unit = {
    slots = new Array[Int](2 * slots.length)
    val mask = slots.length - 1
    for (j <- 0 until n) {
      var s = hash(coords, j * d) & mask
      while (slots(s) != 0) s = (s + 1) & mask
      slots(s) = j + 1
    }
  }
}

object CellGrid {

  /** Unboxes `{cell → value}` of any dimension. A replay shim (ROADMAP item 1). */
  private[core] def fromMap(cells: Iterable[(Vector[Int], Double)]): CellGrid = {
    val g = new CellGrid(cells.headOption.fold(0)(_._1.size))
    for ((c, v) <- cells) g.add(c.toArray, 0, v)
    g
  }
}
