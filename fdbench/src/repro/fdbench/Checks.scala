package repro.fdbench

import repro.core.LabeledPoint

/** Output checks computed by the benchmark itself, never by the program:
  * membership in the input, its own diversity loop, the Thm 3.2
  * separation, and an upper bound from its own colorblind greedy.
  */
final class Checks {
  private var failures = 0

  def ok: Boolean = failures == 0

  /** Counts a failed check; the first ten are printed on stderr. */
  def fail(msg: String): Unit = {
    failures += 1
    if (failures <= 10) Console.err.println(s"[fdbench] check failed: $msg")
  }

  def expect(cond: Boolean, msg: => String): Unit = if (!cond) fail(msg)

  /** Every point of `sel` is the input point with its id (same color and
    * coordinates), and no id repeats. `input(i)` has id `i`.
    */
  def members(what: String, sel: Array[LabeledPoint], input: Array[LabeledPoint]): Unit = {
    val seen = new java.util.HashSet[Long]()
    sel.foreach { p =>
      if (p.id < 0 || p.id >= input.length) fail(s"$what: id ${p.id} is not an input id")
      else {
        val q = input(p.id.toInt)
        if (q.color != p.color || !java.util.Arrays.equals(q.x, p.x))
          fail(s"$what: point ${p.id} differs from the input point")
      }
      if (!seen.add(p.id)) fail(s"$what: id ${p.id} selected twice")
    }
  }

  /** The reported diversity matches the benchmark's own O(|S|^2) loop. */
  def diversity(what: String, sel: Array[LabeledPoint], reported: Double): Unit = {
    val own = Checks.diversity(sel)
    val same =
      if (own.isInfinite) reported.isInfinite
      else math.abs(own - reported) <= 1e-9 * math.max(1.0, own)
    expect(same, s"$what: reported diversity $reported, own loop gives $own")
  }

  /** Thm 3.2: div(S) >= gamma / (2(1+eps)). */
  def separation(what: String, div: Double, gamma: Double, eps: Double): Unit =
    expect(div >= gamma / (2 * (1 + eps)) * (1 - 1e-9),
      s"$what: diversity $div below gamma/(2(1+eps)) = ${gamma / (2 * (1 + eps))}")

  /** div(S) <= OPT(|S|) <= OPT(j) <= 2 div(G_j) for j <= |S|, where G_j is
    * the first j picks of a colorblind greedy over the whole input.
    */
  def upperBound(what: String, div: Double, size: Int, greedy: Array[Double]): Unit =
    if (size >= 2) {
      val j = math.min(size, greedy.length - 1)
      expect(div <= 2 * greedy(j) * (1 + 1e-9),
        s"$what: diversity $div above twice the greedy diversity ${greedy(j)} of $j picks")
    }
}

object Checks {

  def diversity(s: Array[LabeledPoint]): Double = {
    var best = Double.PositiveInfinity
    var i = 0
    while (i < s.length) {
      var j = i + 1
      while (j < s.length) {
        val a = s(i).x; val b = s(j).x
        var d2 = 0.0; var t = 0
        while (t < a.length) { val d = a(t) - b(t); d2 += d * d; t += 1 }
        if (d2 < best) best = d2
        j += 1
      }
      i += 1
    }
    math.sqrt(best)
  }

  /** Farthest-first greedy over `pts`: element j is the minimum pairwise
    * distance among the first j picks (infinite for j < 2), for j <= kMax.
    */
  def greedyPrefix(pts: Array[LabeledPoint], kMax: Int): Array[Double] = {
    val n = pts.length
    val k = math.min(kMax, n)
    val out = Array.fill(k + 1)(Double.PositiveInfinity)
    if (n == 0) return out
    val minD = Array.fill(n)(Double.PositiveInfinity)
    var cur = 0
    var sep = Double.PositiveInfinity
    var j = 1
    while (j <= k) {
      if (j >= 2) sep = math.min(sep, math.sqrt(minD(cur)))
      out(j) = sep
      val c = pts(cur).x
      var far = 0; var farD = -1.0
      var i = 0
      while (i < n) {
        val x = pts(i).x
        var d2 = 0.0; var t = 0
        while (t < x.length) { val d = x(t) - c(t); d2 += d * d; t += 1 }
        if (d2 < minD(i)) minD(i) = d2
        if (minD(i) > farD) { farD = minD(i); far = i }
        i += 1
      }
      cur = far
      j += 1
    }
    out
  }

  /** Sum over colors of min(|S(c)|, k(c)): the bounds met, Table 4 turned around. */
  def covered(sel: Array[LabeledPoint], k: Map[Int, Int]): Int = {
    val counts = sel.groupBy(_.color).map { case (c, ps) => c -> ps.length }
    k.map { case (c, kc) => math.min(kc, counts.getOrElse(c, 0)) }.sum
  }
}
