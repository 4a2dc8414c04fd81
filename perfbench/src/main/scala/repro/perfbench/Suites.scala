package repro.perfbench

import org.apache.spark.sql.SparkSession
import repro.SynthData
import repro.core.Hypergraph
import repro.workloads.{LsqbLite, Sgpb, Workload}

/** One query of a suite: its name and its bound workload. */
final case class Query(name: String, w: Workload) {
  def cyclic: Boolean = !Hypergraph.isAcyclic(w.cq)
}

/** The workloads, each generated from the run's seed by the program's own
  * generators. A workload keeps only a few queries: one benchmark run must
  * set up, check and time every query through seven method × engine
  * pairs within about a minute, and on Spark even a small query costs
  * 0.2-1.5 s per pair.
  *
  *  - `sgpb-m2m`: SGPB over zipf-skewed self-joined edge graphs, where
  *    execution dominates and planning is cheap. q1b is free-connex (Y+
  *    stays O(N+M) and persists shared operators); q6 is not (native beats
  *    Y+ today). Executor and shuffle changes show here; statistics and GHD
  *    changes do not. The line-5 queries (q4, q5) are left out: their
  *    native blow-up hinges on how often the generator links hub vertices
  *    to each other, so their times vary several-fold from seed to seed.
  *  - `lsqb-cyclic`: LSQB-lite q4, a cyclic query that goes through
  *    `Runner.acyclify`'s GHD branch and collects statistics again on every
  *    run, and q6, an acyclic control that also gives DuckDB a Y+ script.
  *    This is the only workload where acyclify and statistics carry weight.
  *    q5 and q8 take the same GHD path at twice q4's cost per run.
  */
object Suites {

  val queries: Map[String, Vector[String]] = Map(
    "sgpb-m2m" -> Vector("q1b", "q6"),
    "lsqb-cyclic" -> Vector("q4", "q6"))

  val names: Vector[String] = Vector("sgpb-m2m", "lsqb-cyclic")

  final case class Scale(sgpbEdges: Long = 8000, sgpbVertices: Long = 1000,
                         lsqbSf: Double = 0.05) {
    def describe(suite: String): Map[String, Any] = suite match {
      case "sgpb-m2m" => Map("edges_a" -> sgpbEdges, "vertices_a" -> sgpbVertices,
        "edges_b" -> 2 * sgpbEdges, "vertices_b" -> 3 * sgpbVertices)
      case _          => Map("sf" -> lsqbSf)
    }
  }

  /** Generates `suite`'s tables and binds its queries (all of
    * [[queries]] unless `only` names some).
    */
  def build(spark: SparkSession, suite: String, seed: Long, scale: Scale,
            only: Option[Vector[String]] = None): Vector[Query] = {
    val all: Vector[Query] = suite match {
      case "sgpb-m2m" =>
        // Graph parameters of Sgpb.graph, with the run's seed.
        val a = SynthData.edges(spark, scale.sgpbEdges, scale.sgpbVertices,
          alpha = 1.05, seed = seed)
        val b = SynthData.edges(spark, 2 * scale.sgpbEdges, 3 * scale.sgpbVertices,
          alpha = 1.15, seed = seed + 100)
        Sgpb.queries.map(q => Query(q.name, q.build(if (q.graph == "A") a else b)))
      case "lsqb-cyclic" =>
        LsqbLite.workloads(LsqbLite.tables(spark, scale.lsqbSf, seed))
          .map { case (n, w) => Query(n, w) }.toVector
      case other =>
        throw new IllegalArgumentException(s"unknown workload $other; one of ${names.mkString(", ")}")
    }
    only.getOrElse(queries(suite)).map(n => all.find(_.name == n).getOrElse(
      throw new IllegalArgumentException(s"$suite has no query $n")))
  }

  /** Persist every instance, as a DBMS holds its tables in memory. */
  def persist(qs: Vector[Query]): Vector[Query] = qs.map(q => q.copy(w = q.w.cached))

  def unpersist(qs: Vector[Query]): Unit = qs.foreach(_.w.uncache())
}
