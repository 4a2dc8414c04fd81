package repro.perfbench

import scala.collection.mutable

import org.apache.spark.sql.SparkSession
import repro.duck.DuckRunner
import repro.workloads.Runner

object Bench {
  def uptime: Double = java.lang.management.ManagementFactory.getRuntimeMXBean.getUptime / 1e3

  /** Seconds one thread takes for a fixed amount of arithmetic: recorded
    * with each repetition, so that a run slowed down by the host can be
    * told apart from one slowed down by the program.
    */
  def hostProbe(): Double = {
    val t0 = System.nanoTime()
    var x = 88172645463325252L
    var i = 0
    while (i < 20000000) { x ^= x << 13; x ^= x >>> 7; x ^= x << 17; i += 1 }
    val dt = (System.nanoTime() - t0) / 1e9
    if (x == 0) Console.err.println("") // keeps the loop from being optimized away
    dt
  }

  private final case class Setup(bound: Vector[Bound], seconds: Double, duckLoadSeconds: Double)
}

/** Settings of one benchmark run. */
final case class Opts(
    workload: String,
    seed: Long,
    seconds: Int,
    trace: Boolean,
    scale: Suites.Scale = Suites.Scale(),
    setups: Int = 3,
    warmups: Int = 2,
    minReps: Int = 5,
    queries: Option[Vector[String]] = None,
)

/** A named metric value with its unit. */
final case class Metric(name: String, value: Double, unit: String)

/** What one run measured: the result line's fields plus the details
  * written to the run's record file.
  */
final case class Record(correct: Boolean, attempted: Int, failed: Int,
                        metrics: Vector[Metric], spans: Vector[Span],
                        details: collection.Map[String, Any]) {
  def resultLine: String = Json(Json.obj(
    "correct" -> correct, "attempted" -> attempted, "failed" -> failed,
    "metrics" -> Json.obj(metrics.map(m => m.name -> Json.obj("value" -> m.value, "unit" -> m.unit)): _*)))
}

/** One benchmark run over one workload: set up (several times, keeping the
  * last), check every query × method against the oracle, warm up, then
  * measure until the time is up — untraced, and only the methods behind
  * the end-to-end metrics, for those; or alternating untraced and traced
  * repetitions of every method for the per-layer ones. Queries run one at
  * a time from a single client (a closed loop).
  */
final class Bench(spark: SparkSession, o: Opts, engine: Engine) {
  import Bench.Setup
  import Method._

  private var attempted = 0
  private val failures = mutable.ArrayBuffer.empty[(String, String, Outcome)]

  private def log(msg: String): Unit = Console.err.println(s"[perfbench] $msg")

  private def count(b: Bound, m: Method, out: Outcome): Outcome = {
    attempted += 1
    if (!out.ok) failures += ((b.name, m.key, out))
    out
  }

  // ------------------------------------------------------------ setup --

  /** Generates and persists the instances, loads one DuckDB database per
    * query and warms the statistics of the given instances — what a DBMS
    * holds before the first query arrives.
    */
  private def setup(): Setup = {
    val t0 = System.nanoTime()
    val qs = Suites.persist(Suites.build(spark, o.workload, o.seed, o.scale, o.queries))
    val t1 = System.nanoTime()
    val bound = qs.map { q =>
      val d = new DuckRunner
      val st = d.conn.createStatement()
      st.execute("SET threads TO 1")
      st.close()
      d.loadInstances(q.w.instances)
      new Bound(q, d)
    }
    val t2 = System.nanoTime()
    qs.foreach(q => Runner.cachedStats(q.w.cq, q.w.instances))
    val t3 = System.nanoTime()
    log(f"at ${Bench.uptime}%.1f s setup: generate+persist ${(t1 - t0) / 1e9}%.2f s, duckdb load ${(t2 - t1) / 1e9}%.2f s, " +
      f"stats ${(t3 - t2) / 1e9}%.2f s")
    Setup(bound, (t3 - t0) / 1e9, (t2 - t1) / 1e9)
  }

  private def teardown(s: Setup): Unit = {
    s.bound.foreach(_.close())
    Suites.unpersist(s.bound.map(_.q))
  }

  /** Row count and hash sum of every instance, read back from DuckDB. */
  private def fingerprints(bound: Vector[Bound]): collection.Map[String, Any] =
    Json.obj(bound.map { b =>
      b.name -> Json.obj(b.w.cq.atoms.map { a =>
        val st = b.duck.conn.createStatement()
        val rs = st.executeQuery(s"SELECT count(*), coalesce(sum(hash(${a.attrs.mkString(", ")})), 0) FROM ${a.id}")
        rs.next()
        val fp = Vector(rs.getLong(1), rs.getObject(2).toString)
        st.close()
        a.id -> fp
      }: _*)
    }: _*)

  // -------------------------------------------------------------- run --

  def run(): Record = {
    val setups = (1 to o.setups).foldLeft(Vector.empty[Setup]) { (acc, _) =>
      acc.lastOption.foreach(teardown)
      acc :+ setup()
    }
    val s = setups.last
    try measure(s, setups.map(_.seconds))
    finally teardown(s)
  }

  private def measure(s: Setup, setupSeconds: Vector[Double]): Record = {
    val bound = s.bound
    val pairs = for (b <- bound; m <- Method.all if b.runs(m)) yield (b, m)
    val timedMethods = if (o.trace) Method.spark else Method.endToEnd
    val timedPairs = for (b <- bound; m <- timedMethods) yield (b, m)

    // Warm-up: one untimed, oracle-checked run per query × method.
    val checkedOk = bound.flatMap { b =>
      val expected = engine.oracle(b)
      Method.all.filter(b.runs).filter(m => count(b, m, engine.checked(b, m, expected)).ok).map((b, _))
    }.toSet
    log(f"checked ${pairs.size} query x method runs, ${failures.size} failed, at ${Bench.uptime}%.1f s")

    // Further untimed passes of the end-to-end methods: after one pass the
    // JIT and Spark's code caches are still cold enough that the first
    // timed repetitions run slower.
    for (_ <- 1 to o.warmups; b <- bound; m <- Method.endToEnd if checkedOk((b, m))) engine.timed(b, m)
    log(f"warmed up at ${Bench.uptime}%.1f s")

    val untimed = mutable.Map.empty[(String, String), mutable.ArrayBuffer[Outcome]]
    val tracedMb = mutable.Map.empty[(String, String), mutable.ArrayBuffer[Double]]
    val counters = new SparkCounters
    val tracer = new Tracer(spark.sparkContext)
    if (o.trace) spark.sparkContext.addSparkListener(counters)

    val t0 = System.nanoTime()
    val probes = mutable.ArrayBuffer.empty[Double]
    var rep = 0
    def elapsed = (System.nanoTime() - t0) / 1e9
    while (rep < o.minReps || elapsed < o.seconds) {
      rep += 1
      log(f"rep $rep at ${elapsed}%.1f s")
      System.gc() // every repetition starts from the same heap state
      probes += Bench.hostProbe()
      for ((b, m) <- timedPairs) {
        val out =
          if (checkedOk((b, m))) count(b, m, engine.timed(b, m))
          else Outcome(engine.timeoutSeconds, Outcome.Errored) // excluded after failing its check
        untimed.getOrElseUpdate((b.name, m.key), mutable.ArrayBuffer.empty) += out
      }
      if (o.trace) for ((b, m) <- pairs if checkedOk((b, m))) {
        tracer.at(b.name, m.key, rep)
        engine.traced(b, m, tracer) match {
          case Right(mb) =>
            attempted += 1
            tracedMb.getOrElseUpdate((b.name, m.key), mutable.ArrayBuffer.empty) += mb
          case Left(out) => count(b, m, out)
        }
      }
    }
    if (o.trace) spark.sparkContext.removeSparkListener(counters)

    def med(q: String, m: Method): Double = Summary.median(untimed((q, m.key)).map(_.seconds).toSeq)
    val qs = bound.map(_.name)
    def sum(m: Method): Double = qs.map(med(_, m)).sum

    // Only the metrics whose spread over seeds stays within the bound on a
    // shared 4-vCPU host; the other untraced sums are per-layer metrics.
    val endToEnd = Vector(
      Metric("plus_s", sum(Plus), "s"),
      Metric("plus_max_s", qs.map(med(_, Plus)).max, "s"),
      Metric("setup_s", Summary.median(setupSeconds), "s"),
    )

    val perQuery = Json.obj(bound.map { b =>
      b.name -> Json.obj(timedMethods.map { m =>
        val outs = untimed((b.name, m.key))
        m.key -> Json.obj("median_s" -> med(b.name, m), "runs_s" -> outs.map(_.seconds),
          "status" -> outs.map(_.status.label).distinct)
      }: _*)
    }: _*)

    val spans = tracer.spans
    val layers =
      if (!o.trace) None
      else Some(new Layers(engine, bound, spans, counters, untimed.view.mapValues(_.toVector).toMap,
        tracedMb.view.mapValues(_.toVector).toMap, s.duckLoadSeconds,
        failures.size.toDouble / attempted))
    val metrics = layers.fold(endToEnd)(_.metrics)

    val details = Json.obj(
      "workload" -> o.workload, "seed" -> o.seed, "seconds" -> o.seconds, "trace" -> o.trace,
      "reps" -> rep, "host_probe_s" -> probes, "setups_s" -> setupSeconds,
      "timeout_s" -> engine.timeoutSeconds,
      "scale" -> o.scale.describe(o.workload),
      "fingerprints" -> fingerprints(bound),
      "failures" -> failures.map { case (q, m, out) =>
        Json.obj("query" -> q, "method" -> m, "status" -> out.status.label, "detail" -> out.detail)
      },
      "per_query" -> perQuery,
      "stats_jobs_by_rep" -> layers.map(_.statsJobsByRep),
      "spans" -> Tracer.toJson(spans, counters.of),
    )
    val mismatch = failures.exists(_._3.status == Outcome.Mismatch)
    Record(!mismatch, attempted, failures.size, metrics, spans, details)
  }
}
