package repro.core

import scala.util.hashing.MurmurHash3

/** Point counts of the occupied cells of a d-dimensional grid, in flat
  * primitive arrays.
  *
  * Cell `j` (in order of first insertion) has coordinates
  * `coords(j * d until (j + 1) * d)` and count `counts(j)`. An
  * open-addressing index over a hash of each coordinate row finds a cell,
  * and a row-equality check on lookup makes hash collisions harmless. No
  * cell is boxed, so counting N points into M cells allocates O(M·d) ints,
  * not a key object per point.
  */
private[core] final class CellCounts(val d: Int) {

  private var coords = new Array[Int](16 * d)
  private var counts = new Array[Long](16)
  // 1 + the row index of the cell in each slot; 0 marks an empty slot.
  private var slots = new Array[Int](32)
  private var n = 0

  /** Adds `count` points to the cell whose coordinates are
    * `cell(off until off + d)`.
    */
  def add(cell: Array[Int], off: Int, count: Long): Unit = {
    val mask = slots.length - 1
    var s = hash(cell, off) & mask
    while (slots(s) != 0 && !sameRow(slots(s) - 1, cell, off)) s = (s + 1) & mask
    if (slots(s) != 0) counts(slots(s) - 1) += count
    else {
      if (n == counts.length) {
        coords = java.util.Arrays.copyOf(coords, 2 * n * d)
        counts = java.util.Arrays.copyOf(counts, 2 * n)
      }
      System.arraycopy(cell, off, coords, n * d, d)
      counts(n) = count
      n += 1
      slots(s) = n
      if (2 * n > slots.length) rehash()
    }
  }

  /** Adds every cell of `rows` (as returned by [[rows]] on another table). */
  def addAll(rows: (Array[Int], Array[Long])): this.type = {
    val (cs, ns) = rows
    var j = 0
    while (j < ns.length) { add(cs, j * d, ns(j)); j += 1 }
    this
  }

  /** The coordinates and counts of the occupied cells, trimmed to size. */
  def rows: (Array[Int], Array[Long]) =
    (java.util.Arrays.copyOf(coords, n * d), java.util.Arrays.copyOf(counts, n))

  /** The number of occupied cells. */
  def size: Int = n

  /** The number of points in all cells. */
  def total: Long = {
    var t = 0L
    var j = 0
    while (j < n) { t += counts(j); j += 1 }
    t
  }

  /** The table one or more dyadic levels coarser: every cell `p` goes to
    * `p >> shift` in each dimension and the counts that meet are summed.
    * This is [[Wavelet.dyadicMerge]] with weight 1, without boxing a cell.
    */
  def merged(shift: Int): CellCounts = {
    val out = new CellCounts(d)
    val cell = new Array[Int](d)
    var j = 0
    while (j < n) {
      var i = 0
      while (i < d) { cell(i) = coords(j * d + i) >> shift; i += 1 }
      out.add(cell, 0, counts(j))
      j += 1
    }
    out
  }

  /** Boxes the table as `{cell → count · weight}`. */
  def toMap(weight: Double): Map[Vector[Int], Double] = {
    val b = Map.newBuilder[Vector[Int], Double]
    b.sizeHint(n)
    var j = 0
    while (j < n) {
      b += Vector.from(coords.slice(j * d, (j + 1) * d)) -> counts(j).toDouble * weight
      j += 1
    }
    b.result()
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
    var j = 0
    while (j < n) {
      var s = hash(coords, j * d) & mask
      while (slots(s) != 0) s = (s + 1) & mask
      slots(s) = j + 1
      j += 1
    }
  }
}
