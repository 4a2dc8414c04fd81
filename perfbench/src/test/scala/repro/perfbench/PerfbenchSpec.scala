package repro.perfbench

import java.nio.file.{Files, Paths}

import com.fasterxml.jackson.databind.ObjectMapper
import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import repro.core.{AggSpec, Atom, CQ, Semiring}
import repro.workloads.Workload
import org.scalatest.funsuite.AnyFunSuite
import scala.jdk.CollectionConverters._

/** Smoke test of the benchmark at a tiny scale: every metric that
  * BENCHMARK.json names is printed with its unit, spans nest, and the
  * correctness gate and the timeout fire.
  */
class PerfbenchSpec extends AnyFunSuite with BeforeAndAfterAll {

  private lazy val spark: SparkSession = Main.session(2, "target/spark-local")
  private val tiny = Suites.Scale(sgpbEdges = 300, sgpbVertices = 60, lsqbSf = 0.005)

  override def afterAll(): Unit = spark.stop()

  private val benchmark = new ObjectMapper().readTree(Files.readString(Paths.get("../BENCHMARK.json")))

  /** (name, unit) of each metric of one kind in BENCHMARK.json. */
  private def declared(kind: String): Vector[(String, String)] =
    benchmark.get(kind).elements().asScala.map(m => (m.get("name").asText, m.get("unit").asText)).toVector

  private def run(workload: String, trace: Boolean, queries: Vector[String],
                  engine: Engine = new Engine(spark, 60.0)): Record =
    try new Bench(spark, Opts(workload, seed = 7, seconds = 0, trace = trace, scale = tiny,
      setups = 1, warmups = 0, minReps = 1, queries = Some(queries)), engine).run()
    finally engine.close()

  private def checkResultLine(r: Record, kind: String): Unit = {
    val line = new ObjectMapper().readTree(r.resultLine)
    assert(line.fieldNames().asScala.toSet == Set("correct", "attempted", "failed", "metrics"))
    assert(line.get("correct").asBoolean && line.get("failed").asInt == 0 &&
      line.get("attempted").asInt > 0)
    val printed = line.get("metrics")
    for ((name, unit) <- declared(kind)) {
      assert(printed.has(name), s"$name not printed")
      assert(printed.get(name).get("unit").asText == unit, s"$name: unit")
      assert(printed.get(name).get("value").isNumber, s"$name: value")
    }
    assert(printed.size == declared(kind).size)
  }

  test("untraced run prints every end-to-end metric with its unit") {
    val r = run("sgpb-m2m", trace = false, Vector("q1b"))
    checkResultLine(r, "end_to_end")
    assert(r.spans.isEmpty)
  }

  test("traced run prints every per-layer metric; spans nest and add up") {
    val r = run("lsqb-cyclic", trace = true, Vector("q4", "q6"))
    checkResultLine(r, "per_layer")
    assert(Tracer.nestingErrors(r.spans).isEmpty)
    val self = Tracer.selfNanos(r.spans)
    val byRun = r.spans.groupBy(s => (s.query, s.method, s.rep))
    for (((q, m, _), ss) <- byRun) {
      val roots = ss.filter(_.parent < 0)
      assert(roots.map(_.name) == Vector("query"), s"$q/$m")
      assert(ss.map(s => self(s.id)).sum == roots.head.nanos, s"$q/$m: self times add up")
      if (m == Method.Plus.key)
        assert(ss.map(_.name).toSet ==
          Set("query", "acyclify", "stats", "enumerate", "plan", "lower", "execute"), s"$q/$m")
    }
    val metric = r.metrics.map(m => m.name -> m.value).toMap
    assert(metric("stats.jobs") > 0, "q4 is cyclic: its bag statistics are collected per run")
  }

  test("the correctness gate fires on a corrupted result") {
    val corrupt = new Engine(spark, 60.0, (m, df) =>
      if (m == Method.Plus) df.union(df.limit(1)) else df)
    val r = run("sgpb-m2m", trace = false, Vector("q1b"), corrupt)
    assert(!r.correct)
    assert(r.failed == 1)
    assert(r.resultLine.contains("\"correct\": false"))
  }

  test("the gate compares canonical rows, not their order or float noise") {
    val a = Gate.canon(Seq("B", "a"), Seq(Seq(1.0000001, 2L), Seq(3.0, 4L)))
    val b = Gate.canon(Seq("a", "b"), Seq(Seq(4L, 3.0), Seq(2L, 1.0)))
    assert(Gate.compare(a, b).isEmpty)
    assert(Gate.compare(a, Gate.canon(Seq("a", "b"), Seq(Seq(4L, 3.0)))).isDefined)
    assert(Gate.compare(a, Gate.canon(Seq("a", "b"), Seq(Seq(4L, 3.0), Seq(2L, 1.1)))).isDefined)
  }

  test("a run past its timeout is cancelled and recorded as TO on Spark and on DuckDB") {
    // COUNT(*) over a 10^9-row cross product: seconds of work on either engine.
    val r = spark.range(1000).toDF("x")
    val cq = CQ("cross", Vector(Atom("a", Vector("x")), Atom("b", Vector("y")), Atom("c", Vector("z"))),
      Vector.empty, Vector(AggSpec("cnt", Semiring.CountProduct)))
    val q = Query("cross", Workload(cq, Map("a" -> r, "b" -> r.toDF("y"), "c" -> r.toDF("z"))))
    val duck = new repro.duck.DuckRunner
    duck.loadInstances(q.w.instances)
    val b = new Bound(q, duck)
    val engine = new Engine(spark, 0.2)
    try for (m <- Seq(Method.Native, Method.DuckNative)) {
      val t0 = System.nanoTime()
      assert(engine.timed(b, m).status == Outcome.TimedOut, m.key)
      assert((System.nanoTime() - t0) / 1e9 < 30, s"${m.key}: the cancel stops the query")
    } finally { engine.close(); b.close() }
  }
}
