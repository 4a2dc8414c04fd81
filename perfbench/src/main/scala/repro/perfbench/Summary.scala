package repro.perfbench

/** Order statistics used to reduce repeated timings. */
object Summary {
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no values")
    val s = xs.sorted
    val n = s.size
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** Geometric mean of positive ratios. */
  def geoMean(xs: Seq[Double]): Double = {
    require(xs.nonEmpty && xs.forall(_ > 0), s"geometric mean needs positive values: $xs")
    math.exp(xs.map(math.log).sum / xs.size)
  }
}
