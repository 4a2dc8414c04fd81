package repro.perfbench

import repro.core.{JoinTree, Plan, SqlGen}

/** Per-layer metrics of a traced run. Times are self times of the spans of
  * one layer; like the end-to-end times, each is the per-query median over
  * repetitions, summed over the workload's queries. Layer metrics without a
  * method suffix come from the `plus` method, the path of `Runner.Plus`.
  * The `untraced.*` metrics are end-to-end sums and ratios of the run's
  * untraced repetitions whose spread over seeds is too wide for a bound.
  */
object Layers {
  /** Plan shapes and cardinalities of one query: deterministic, so
    * measured once per run.
    */
  private final case class Shape(trees: Int, candidates: Int, plus: Plan, classic: Plan,
                                 freeConnex: Boolean, rewrites: Boolean,
                                 plusRows: Cardinalities, classicRows: Cardinalities)
}

final class Layers(engine: Engine, bound: Vector[Bound], spans: Vector[Span],
                   counters: SparkCounters,
                   untimed: Map[(String, String), Vector[Outcome]],
                   tracedMb: Map[(String, String), Vector[Double]],
                   duckLoadSeconds: Double, failedFrac: Double) {
  import Layers.Shape
  import Method._

  private val nesting = Tracer.nestingErrors(spans)
  require(nesting.isEmpty, s"malformed trace: ${nesting.take(3).mkString("; ")}")

  private val self = Tracer.selfNanos(spans)
  private val runs: Map[(String, String), Vector[Vector[Span]]] =
    spans.groupBy(s => (s.query, s.method, s.rep)).toVector
      .groupMap { case ((q, m, _), _) => (q, m) } { case (_, ss) => ss }

  /** Σ over queries of the median over traced repetitions of `f`. */
  private def perRun(m: Method)(f: Vector[Span] => Double): Double =
    bound.filter(_.runs(m)).flatMap { b =>
      runs.get((b.name, m.key)).map(rs => Summary.median(rs.map(f)))
    }.sum

  private def selfS(layer: String)(ss: Vector[Span]): Double =
    ss.filter(_.name == layer).map(s => self(s.id)).sum / 1e9

  private def work(layer: String)(f: SparkWork => Double)(ss: Vector[Span]): Double =
    ss.filter(_.name == layer).map(s => f(counters.of(s.id))).sum

  private def roots(ss: Vector[Span]): Vector[Span] = ss.filter(_.parent < 0)

  private val shapes: Vector[Shape] = bound.map { b =>
    val (cq, choice) = engine.plusChoice(b.w)
    val classic = engine.classicPlan(b.w)
    Shape(JoinTree.enumerateRooted(cq, 200).size, choice.candidates, choice.plan,
      classic, JoinTree.isFreeConnexQuery(cq), engine.catalystRewrites(b.w),
      engine.cardinalities(b.w, choice.plan), engine.cardinalities(b.w, classic))
  }

  private def planCounts(key: String, p: Shape => Plan): Vector[Metric] = Vector(
    Metric(s"plan.ops.$key", shapes.map(p(_).ops.size).sum, "count"),
    Metric(s"plan.semijoins.$key", shapes.map(p(_).nSemiJoins).sum, "count"),
    Metric(s"plan.joins.$key", shapes.map(p(_).nJoins).sum, "count"),
    Metric(s"plan.aggprojects.$key", shapes.map(p(_).nAggProjects).sum, "count"))

  private def untracedMedian(q: String, m: Method): Double =
    Summary.median(untimed((q, m.key)).map(_.seconds))

  private def untracedSum(ms: Seq[Method]): Double =
    (for (b <- bound; m <- ms) yield untracedMedian(b.name, m)).sum

  private def untracedGeo(over: Method): Double =
    Summary.geoMean(bound.map(b => untracedMedian(b.name, over) / untracedMedian(b.name, Plus)))

  private def medianMb(m: Method): Double =
    bound.flatMap(b => tracedMb.get((b.name, m.key)).map(Summary.median)).sum

  def metrics: Vector[Metric] = {
    val tracedSum = Method.spark.map(m => perRun(m)(roots(_).map(_.nanos).sum / 1e9)).sum
    val rootSpans = spans.filter(s => s.parent < 0 && !s.method.startsWith("duck_"))
    val fcRatios = shapes.filter(_.freeConnex).map { s =>
      s.plusRows.largest.toDouble / (s.plusRows.input + s.plusRows.output)
    }
    Vector(
      Metric("untraced.plus_sql_s", untracedSum(Vector(PlusSql)), "s"),
      Metric("untraced.plus_catalyst_s", untracedSum(Vector(PlusCatalyst)), "s"),
      Metric("untraced.classic_s", untracedSum(Vector(Classic)), "s"),
      Metric("untraced.native_s", untracedSum(Vector(Native)), "s"),
      Metric("untraced.plus_vs_native_geo", untracedGeo(Native), "x"),
      Metric("untraced.plus_vs_classic_geo", untracedGeo(Classic), "x"),
      Metric("acyclify.s", perRun(Plus)(selfS("acyclify")), "s"),
      Metric("acyclify.jobs", perRun(Plus)(work("acyclify")(_.jobs.toDouble)), "count"),
      Metric("stats.s", perRun(Plus)(selfS("stats")), "s"),
      Metric("stats.jobs", perRun(Plus)(work("stats")(_.jobs.toDouble)), "count"),
      Metric("enumerate.s", perRun(Plus)(selfS("enumerate")), "s"),
      Metric("enumerate.trees", shapes.map(_.trees).sum, "count"),
      Metric("enumerate.candidates", shapes.map(_.candidates).sum, "count"),
      Metric("plan.s.plus", perRun(Plus)(selfS("plan")), "s"),
      Metric("plan.s.classic", perRun(Classic)(selfS("plan")), "s"),
    ) ++ planCounts("plus", _.plus) ++ planCounts("classic", _.classic) ++ Vector(
      Metric("plan.semijoin_excess",
        shapes.count(s => s.plus.nSemiJoins > s.classic.nSemiJoins), "count"),
      Metric("lower.s.executor", perRun(Plus)(selfS("lower")), "s"),
      Metric("lower.s.sqlgen", perRun(PlusSql)(selfS("lower")), "s"),
      Metric("lower.s.catalyst", perRun(PlusCatalyst)(selfS("lower")), "s"),
      Metric("lower.catalyst_rewrite_frac", shapes.count(_.rewrites).toDouble / shapes.size, "ratio"),
    ) ++ Method.spark.flatMap { m =>
      Vector(
        Metric(s"exec.s.${m.key}", perRun(m)(selfS("execute")), "s"),
        Metric(s"exec.jobs.${m.key}", perRun(m)(work("execute")(_.jobs.toDouble)), "count"),
        Metric(s"exec.tasks.${m.key}", perRun(m)(work("execute")(_.tasks.toDouble)), "count"),
        Metric(s"exec.shuffle_write_mb.${m.key}",
          perRun(m)(work("execute")(_.shuffleWriteBytes / 1e6)), "MB"))
    } ++ Vector(
      Metric("exec.persisted_ops.plus", shapes.map(_.plusRows.persisted).sum, "count"),
      Metric("exec.persisted_ops.classic", shapes.map(_.classicRows.persisted).sum, "count"),
      Metric("exec.cache_mb.plus", medianMb(Plus), "MB"),
      Metric("cache_peak_mb", bound.flatMap(b => tracedMb.get((b.name, Plus.key)))
        .map(Summary.median).maxOption.getOrElse(0.0), "MB"),
      Metric("exec.cache_mb.classic", medianMb(Classic), "MB"),
      Metric("exec.gc_s", Method.spark.map(m =>
        perRun(m)(_.filter(_.name == "execute").map(_.gcNanos).sum / 1e9)).sum, "s"),
      Metric("exec.intermediate_rows.plus", shapes.map(_.plusRows.total).sum, "count"),
      Metric("exec.intermediate_rows.classic", shapes.map(_.classicRows.total).sum, "count"),
      Metric("exec.fc_bound_ratio", if (fcRatios.isEmpty) 0.0 else fcRatios.max, "ratio"),
      Metric("duck.load_s", duckLoadSeconds, "s"),
      Metric("duck.exec_s.plus", perRun(DuckPlus)(selfS("execute")), "s"),
      Metric("duck.exec_s.native", perRun(DuckNative)(selfS("execute")), "s"),
      Metric("duck.views.plus", bound.zip(shapes).collect {
        case (b, s) if b.runs(DuckPlus) => SqlGen.script(s.plus, SqlGen.DuckDialect).viewNames.size
      }.sum, "count"),
      Metric("trace.overhead_frac", tracedSum / untracedSum(Method.spark) - 1, "ratio"),
      Metric("trace.glue_frac",
        rootSpans.map(s => self(s.id)).sum.toDouble / rootSpans.map(_.nanos).sum, "ratio"),
      Metric("failed_frac", failedFrac, "ratio"),
    )
  }

  /** Spark jobs in the stats spans of `plus`, per query and repetition. */
  def statsJobsByRep: collection.Map[String, Any] = Json.obj(bound.map { b =>
    b.name -> runs.getOrElse((b.name, Plus.key), Vector.empty).sortBy(_.head.rep)
      .map(work("stats")(_.jobs.toDouble)(_).toLong)
  }: _*)
}
