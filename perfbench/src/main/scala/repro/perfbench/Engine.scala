package repro.perfbench

import java.sql.Statement
import java.util.concurrent.{Executors, ScheduledExecutorService, TimeUnit}
import java.util.concurrent.atomic.AtomicBoolean
import scala.util.control.NonFatal

import org.apache.spark.PerfbenchBus
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._
import repro.core.catalyst.{YannakakisPlusExtension, YannakakisPlusRule}
import repro.duck.DuckRunner
import repro.opt.{EstimatedCE, PlanEnumerator}
import repro.workloads.{Runner, Workload}

/** A method and engine under test; `key` names its metrics. */
sealed abstract class Method(val key: String) {
  def onDuck: Boolean = key.startsWith("duck_")
}

object Method {
  case object Plus extends Method("plus")                  // Runner.Plus (DataFrame Executor)
  case object PlusSql extends Method("plus_sql")           // Runner.PlusSql (SqlGen script on spark.sql)
  case object PlusCatalyst extends Method("plus_catalyst") // flat SQL with YannakakisPlusRule installed
  case object Classic extends Method("classic")            // Runner.Classic
  case object Native extends Method("native")              // Runner.Native
  case object DuckPlus extends Method("duck_plus")         // SqlGen script via DuckRunner.runScript
  case object DuckNative extends Method("duck_native")     // flat SQL via DuckRunner.runNative

  val spark: Vector[Method] = Vector(Plus, PlusSql, PlusCatalyst, Classic, Native)
  /** The method behind the end-to-end metrics, the only one an untraced run times. */
  val endToEnd: Vector[Method] = Vector(Plus)
  val duck: Vector[Method] = Vector(DuckPlus, DuckNative)
  val all: Vector[Method] = spark ++ duck
}

/** A query with its own DuckDB database, loaded with the query's
  * instances, and a spare statement of that connection to cancel with.
  */
final class Bound(val q: Query, val duck: DuckRunner) {
  val canceller: Statement = duck.conn.createStatement()
  def name: String = q.name
  def w: Workload = q.w

  /** DuckRunner has no path for GHD bags, so cyclic queries run on DuckDB
    * only through the flat SQL.
    */
  def runs(m: Method): Boolean = !(m == Method.DuckPlus && q.cyclic)

  def close(): Unit = { canceller.close(); duck.close() }
}

/** How one run of a query ended. A timed-out run counts at the timeout. */
final case class Outcome(seconds: Double, status: Outcome.Status, detail: String = "") {
  def ok: Boolean = status == Outcome.Ok
}

object Outcome {
  sealed abstract class Status(val label: String)
  case object Ok extends Status("ok")
  case object TimedOut extends Status("TO")
  case object Errored extends Status("error")
  case object Mismatch extends Status("mismatch")
}

/** Runs queries through every method: untimed checked runs, timed runs
  * that force the full result into a sink, and traced runs that repeat
  * `Runner.run`'s steps one public call at a time.
  *
  * @param alter applied to each Spark result before it is checked; tests
  *              use it to corrupt a result on purpose
  */
final class Engine(spark: SparkSession, val timeoutSeconds: Double,
                   alter: (Method, DataFrame) => DataFrame = (_, df) => df) extends AutoCloseable {
  import Method._

  private val sc = spark.sparkContext
  private val watchdog: ScheduledExecutorService = Executors.newSingleThreadScheduledExecutor { r =>
    val t = new Thread(r, "perfbench-watchdog"); t.setDaemon(true); t
  }
  private var group = 0L

  def close(): Unit = watchdog.shutdownNow()

  /** Runs `body`; past the timeout, `cancel` is called from the watchdog. */
  private def guarded[T](cancel: () => Unit)(body: => T): Either[Outcome, (T, Double)] = {
    val fired = new AtomicBoolean(false)
    val timer = watchdog.schedule((() => { fired.set(true); cancel() }): Runnable,
      (timeoutSeconds * 1000).toLong, TimeUnit.MILLISECONDS)
    val t0 = System.nanoTime()
    try {
      val v = body
      val dt = (System.nanoTime() - t0) / 1e9
      if (fired.get) Left(Outcome(timeoutSeconds, Outcome.TimedOut)) else Right((v, dt))
    } catch {
      case NonFatal(e) =>
        if (fired.get) Left(Outcome(timeoutSeconds, Outcome.TimedOut))
        else Left(Outcome(0.0, Outcome.Errored, detail = s"${e.getClass.getSimpleName}: ${e.getMessage}".take(300)))
    } finally timer.cancel(false)
  }

  private def storedRdds(): Set[Int] = sc.getRDDStorageInfo.map(_.id).toSet

  /** Storage held by RDDs cached since `before` was taken, in MB. */
  private def storageMbSince(before: Set[Int]): Double =
    sc.getRDDStorageInfo.filterNot(i => before(i.id)).map(i => i.memSize + i.diskSize).sum / 1e6

  private def withCatalystRule[T](on: Boolean)(body: => T): T =
    if (!on) body
    else {
      YannakakisPlusExtension.install(spark)
      try body finally YannakakisPlusExtension.uninstall(spark)
    }

  /** Plans and lowers `w` with a Spark method; the result is not forced. */
  private def start(m: Method, w: Workload): Runner.RunResult = m match {
    case Plus                  => Runner.run(w, Runner.Plus)
    case PlusSql               => Runner.run(w, Runner.PlusSql)
    case Classic               => Runner.run(w, Runner.Classic)
    case Native | PlusCatalyst => Runner.run(w, Runner.Native)
    case other                 => throw new IllegalArgumentException(s"$other is not a Spark method")
  }

  /** Runs `body` in a fresh job group that the watchdog cancels on timeout. */
  private def sparkGuarded[T](b: Bound, m: Method)(body: => T): Either[Outcome, (T, Double)] = {
    group += 1
    val gid = s"perfbench-$group"
    sc.setJobGroup(gid, s"${b.name}/${m.key}", interruptOnCancel = true)
    try withCatalystRule(m == PlusCatalyst)(guarded(() => sc.cancelJobGroup(gid))(body))
    finally sc.clearJobGroup()
  }

  /** Runs a Spark method; `sink` forces the result. */
  private def sparkRun[T](b: Bound, m: Method)(sink: DataFrame => T): Either[Outcome, (T, Double)] = {
    var result: Option[Runner.RunResult] = None
    try sparkGuarded(b, m) {
      val r = start(m, b.w)
      result = Some(r)
      sink(r.df)
    } finally result.foreach(_.cleanup())
  }

  private def noop(df: DataFrame): Unit = df.write.format("noop").mode("overwrite").save()

  /** The Y+ plan `Runner.run` would execute for `w` (after acyclify). */
  private def plusPlan(w: Workload): Plan = {
    val (cq, inst, cfg, _) = Runner.acyclify(w)
    Runner.planPlus(cq, inst, cfg, Runner.CeEstimated, optimize = true)
  }

  private def duckRun[T](b: Bound)(body: => T): Either[Outcome, (T, Double)] =
    guarded(() => b.canceller.cancel())(body)

  /** One timed run: from the start of planning until the full result is
    * forced (a Spark `noop` write, or a drained DuckDB result set).
    */
  def timed(b: Bound, m: Method): Outcome =
    if (m.onDuck)
      duckRun(b) {
        if (m == DuckPlus) b.duck.runScript(plusPlan(b.w)) else b.duck.runNative(b.w.cq)
      }.fold(identity, { case (_, dt) => Outcome(dt, Outcome.Ok) })
    else
      sparkRun(b, m)(noop).fold(identity, { case (_, dt) => Outcome(dt, Outcome.Ok) })

  /** The reference answer: DuckDB's flat SQL over the query's instances. */
  def oracle(b: Bound): Gate.Canon = Gate.ofDuck(b.duck.conn, b.w.cq.oracleSql)

  /** One untimed run whose full result is compared with `expected`. */
  def checked(b: Bound, m: Method, expected: Gate.Canon): Outcome = {
    val got: Either[Outcome, (Gate.Canon, Double)] =
      if (m.onDuck) duckRun(b)(duckCanon(b, m))
      else sparkRun(b, m)(df => Gate.ofSpark(alter(m, df)))
    got.fold(identity, { case (c, dt) =>
      Gate.compare(expected, c) match {
        case None      => Outcome(dt, Outcome.Ok)
        case Some(why) => Outcome(dt, Outcome.Mismatch, detail = why)
      }
    })
  }

  private def duckCanon(b: Bound, m: Method): Gate.Canon = m match {
    case DuckNative => Gate.ofDuck(b.duck.conn, b.w.cq.flatSql(duck = false))
    case _ =>
      // DuckRunner.runScript only counts rows; replay its steps to read them.
      val script = SqlGen.script(plusPlan(b.w), SqlGen.DuckDialect)
      val st = b.duck.conn.createStatement()
      try {
        script.statements.foreach(st.execute)
        Gate.ofDuck(b.duck.conn, script.finalQuery)
      } finally {
        script.viewNames.reverse.foreach(v => st.execute(s"DROP VIEW IF EXISTS $v"))
        st.close()
      }
  }

  // ---------------------------------------------------------- traced --

  /** One traced run: `Runner.run`'s steps, each public call in its own
    * span under the query's root span. Returns the storage held by the
    * run's persisted operators, in MB.
    */
  def traced(b: Bound, m: Method, tr: Tracer): Either[Outcome, Double] =
    if (m.onDuck) duckRun(b)(tracedDuck(b, m, tr)).map(_ => 0.0)
    else {
      var cleanup: () => Unit = () => ()
      val before = storedRdds()
      try sparkGuarded(b, m) {
        tr.span("query") {
          val df = tracedLower(b, m, tr, c => cleanup = c)
          tr.span("execute")(noop(df))
        }
      }.map { _ =>
        PerfbenchBus.drain(sc)
        storageMbSince(before)
      } finally cleanup()
    }

  /** Plans and lowers with spans around each call; mirrors `Runner.run`. */
  private def tracedLower(b: Bound, m: Method, tr: Tracer,
                          onCleanup: (() => Unit) => Unit): DataFrame = m match {
    case Plus | PlusSql =>
      val (cq, inst, cfg, fin) = tr.span("acyclify")(Runner.acyclify(b.w))
      val plan = tracedPlusPlan(cq, inst, cfg, tr)
      tr.span("lower") {
        if (m == Plus) {
          val res = Executor.run(plan, inst)
          onCleanup(() => res.cleanup())
          fin(res.df)
        } else {
          inst.foreach { case (id, df) => df.createOrReplaceTempView(id) }
          val script = SqlGen.script(plan, SqlGen.SparkDialect)
          script.statements.foreach(spark.sql)
          fin(spark.sql(script.finalQuery))
        }
      }
    case Classic =>
      val (cq, inst, _, fin) = tr.span("acyclify")(Runner.acyclify(b.w))
      val plan = tr.span("plan")(Yannakakis.plan(cq, JoinTree.defaultTree(cq)))
      tr.span("lower") {
        val res = Executor.run(plan, inst)
        onCleanup(() => res.cleanup())
        fin(res.df)
      }
    case Native | PlusCatalyst =>
      tr.span("lower") {
        val df = Executor.runNative(b.w.cq, b.w.instances)
        df.queryExecution.optimizedPlan // Catalyst (and the Y+ rule, if installed) runs here
        df
      }
    case other => throw new IllegalArgumentException(s"$other is not a Spark method")
  }

  /** `Runner.planPlus` split into its statistics, enumeration and planning
    * calls. [[plusChoice]] checks, untraced, that this gives the same plan.
    */
  private def tracedPlusPlan(cq: CQ, inst: CQ.Instances, cfg: RuleConfig, tr: Tracer): Plan = {
    val stats = tr.span("stats")(Runner.cachedStats(cq, inst))
    val ce = new EstimatedCE(cq, stats)
    val choice = tr.span("enumerate")(PlanEnumerator.best(cq, cfg, ce, stats))
    tr.span("plan")(YannakakisPlus.plan(cq, choice.tree, cfg, ce))
  }

  private def tracedDuck(b: Bound, m: Method, tr: Tracer): Unit = tr.span("query") {
    m match {
      case DuckPlus =>
        val (cq, inst, cfg, _) = tr.span("acyclify")(Runner.acyclify(b.w))
        val plan = tracedPlusPlan(cq, inst, cfg, tr)
        tr.span("execute")(b.duck.runScript(plan))
      case _ =>
        tr.span("execute")(b.duck.runNative(b.w.cq))
    }
  }

  // ------------------------------------------------------- structure --

  /** The Y+ choice for `w`, checked to equal what `Runner.planPlus`
    * returns, so the traced split plans exactly what the untraced run does.
    */
  def plusChoice(w: Workload): (CQ, PlanEnumerator.Choice) = {
    val (cq, inst, cfg, _) = Runner.acyclify(w)
    val stats = Runner.cachedStats(cq, inst)
    val ce = new EstimatedCE(cq, stats)
    val choice = PlanEnumerator.best(cq, cfg, ce, stats)
    val viaRunner = Runner.planPlus(cq, inst, cfg, Runner.CeEstimated, optimize = true)
    val replanned = YannakakisPlus.plan(cq, choice.tree, cfg, ce)
    require(viaRunner == choice.plan && replanned == choice.plan,
      s"${w.cq.name}: the traced planning steps do not reproduce Runner.planPlus")
    (cq, choice)
  }

  def classicPlan(w: Workload): Plan = {
    val (cq, _, _, _) = Runner.acyclify(w)
    Yannakakis.plan(cq, JoinTree.defaultTree(cq))
  }

  /** Whether Catalyst's optimized plan for the flat SQL carries the
    * Y+ rule's tag once the rule is installed.
    */
  def catalystRewrites(w: Workload): Boolean = withCatalystRule(on = true) {
    val plan = Executor.runNative(w.cq, w.instances).queryExecution.optimizedPlan
    plan.find(_.getTagValue(YannakakisPlusRule.Tag).isDefined).isDefined
  }

  /** Operator cardinalities of `plan`, from `Executor.run` in stats mode. */
  def cardinalities(w: Workload, plan: Plan): Cardinalities = {
    val (_, inst, _, fin) = Runner.acyclify(w)
    val res = Executor.run(plan, inst, collectStats = true)
    try {
      val sizes = res.stats.get.sizes
      val inner = sizes.collect { case (o, n) if !o.isInstanceOf[Scan] => n }
      Cardinalities(
        input = sizes.collect { case (_: Scan, n) => n }.sum,
        largest = if (inner.isEmpty) 0L else inner.max,
        total = res.stats.get.totalIntermediate,
        output = fin(res.df).count(),
        persisted = res.persisted.size)
    } finally res.cleanup()
  }
}

/** Row counts of one executed plan: its inputs, its largest and total
  * intermediate results (scans excluded), its output, and how many
  * operators it persisted.
  */
final case class Cardinalities(input: Long, largest: Long, total: Long, output: Long,
                               persisted: Int)
