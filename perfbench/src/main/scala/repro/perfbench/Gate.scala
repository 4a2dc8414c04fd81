package repro.perfbench

import java.sql.Connection
import org.apache.spark.sql.DataFrame

/** The correctness gate: every result is compared with the DuckDB flat-SQL
  * answer over the same instances, in the canonical form of
  * [[repro.Oracle]] — columns matched by case-insensitive name, numbers
  * printed to 6 decimals, NULL as `∅`, rows compared as a sorted multiset.
  */
object Gate {

  /** Sorted column names and sorted canonical rows. */
  final case class Canon(cols: Vector[String], rows: Vector[Vector[String]])

  private val rowOrder: Ordering[Vector[String]] =
    Ordering.Implicits.seqOrdering[Vector, String]

  def cell(x: Any): String = x match {
    case null                     => "∅"
    case d: Double                => f"$d%.6f"
    case f: Float                 => f"${f.toDouble}%.6f"
    case bd: java.math.BigDecimal => f"${bd.doubleValue}%.6f"
    case other                    => other.toString
  }

  def canon(cols: Seq[String], rows: Seq[Seq[Any]]): Canon = {
    val lower = cols.map(_.toLowerCase)
    val order = lower.zipWithIndex.sortBy(_._1)
    Canon(order.map(_._1).toVector,
      rows.map(r => order.map { case (_, i) => cell(r(i)) }.toVector).toVector.sorted(rowOrder))
  }

  def ofSpark(df: DataFrame): Canon =
    canon(df.columns.toSeq, df.collect().toSeq.map(_.toSeq))

  def ofDuck(conn: Connection, sql: String): Canon = {
    val st = conn.createStatement()
    try {
      val rs = st.executeQuery(sql)
      val n = rs.getMetaData.getColumnCount
      val cols = (1 to n).map(rs.getMetaData.getColumnLabel)
      val rows = Vector.newBuilder[Seq[Any]]
      while (rs.next()) rows += (1 to n).map(rs.getObject)
      rs.close()
      canon(cols, rows.result())
    } finally st.close()
  }

  /** `None` when `got` equals `expected`, else a short description. */
  def compare(expected: Canon, got: Canon): Option[String] =
    if (expected.cols != got.cols)
      Some(s"columns ${got.cols.mkString(",")} != expected ${expected.cols.mkString(",")}")
    else if (expected.rows != got.rows) {
      val missing = expected.rows.diff(got.rows).take(2).map(_.mkString("|"))
      val extra = got.rows.diff(expected.rows).take(2).map(_.mkString("|"))
      Some(s"${got.rows.size} rows vs expected ${expected.rows.size}; " +
        s"missing ${missing.mkString("; ")}; unexpected ${extra.mkString("; ")}")
    } else None
}
