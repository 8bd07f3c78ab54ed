//! The relational backend (the MadIS stand-in).
//!
//! A [`DataSource`] holds named in-memory tables and virtual tables, and
//! executes [`SourceQuery`]s over them: projection, conjunctive selection
//! and a spatial access path. Base tables get an R-tree over each geometry
//! column ("when data is stored in a database connected with Ontop-spatial,
//! DBMS optimizations and database constraints are taken into account"); a
//! virtual table narrows its scan on the grid's own coordinate axes.

use crate::sql::{Const, FromClause, Predicate, SourceQuery};
use crate::vtable::{Pushdown, VirtualTable};
use crate::ObdaError;
use applab_geo::{Envelope, RTree};
use applab_geotriples::{Row, TabularSource, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// A base table plus its spatial indexes (one R-tree per geometry column,
/// built eagerly at registration).
struct IndexedTable {
    source: TabularSource,
    /// geometry column → R-tree of row indexes.
    spatial: HashMap<String, RTree<usize>>,
}

impl IndexedTable {
    fn new(source: TabularSource) -> Self {
        let mut by_column: HashMap<String, Vec<(Envelope, usize)>> = HashMap::new();
        for (i, row) in source.rows.iter().enumerate() {
            for (col, value) in row {
                if let Value::Geometry(g) = value {
                    by_column
                        .entry(col.clone())
                        .or_default()
                        .push((g.envelope(), i));
                }
            }
        }
        let spatial = by_column
            .into_iter()
            .map(|(col, items)| (col, RTree::bulk_load(items)))
            .collect();
        IndexedTable { source, spatial }
    }
}

/// The OBDA data source: base tables + virtual tables.
#[derive(Default)]
pub struct DataSource {
    tables: HashMap<String, IndexedTable>,
    /// `opendap:<dataset>:<variable>` → virtual table.
    vtables: HashMap<String, Arc<dyn VirtualTable>>,
}

impl DataSource {
    pub fn new() -> Self {
        DataSource::default()
    }

    /// Register a base table (replacing any previous one of the same name).
    pub fn add_table(&mut self, source: TabularSource) {
        self.tables
            .insert(source.name.clone(), IndexedTable::new(source));
    }

    /// Register a virtual table under `opendap:<dataset>:<variable>`.
    pub fn add_opendap(&mut self, dataset: &str, variable: &str, table: Arc<dyn VirtualTable>) {
        self.vtables
            .insert(format!("opendap:{dataset}:{variable}"), table);
    }

    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }

    /// The base-table rows a source query selects, borrowed and
    /// unprojected, without counting a source query. `None` for a virtual
    /// table or a missing base table.
    pub(crate) fn selected_rows<'a>(
        &'a self,
        query: &'a SourceQuery,
    ) -> Option<impl Iterator<Item = &'a Row> + 'a> {
        let FromClause::Table(name) = &query.from else {
            return None;
        };
        let table = self.tables.get(name)?;
        Some(
            table
                .source
                .rows
                .iter()
                .filter(|row| query.predicates.iter().all(|p| matches(row, p))),
        )
    }

    /// Execute a source query, optionally with a spatial access-path hint:
    /// `(geometry column, envelope)` restricts base-table scans through the
    /// R-tree, and a virtual table's scan through its coordinate axes.
    /// Returns the qualifying rows (projected).
    pub fn execute(
        &self,
        query: &SourceQuery,
        spatial_hint: Option<(&str, &Envelope)>,
    ) -> Result<Vec<Row>, ObdaError> {
        applab_obs::counter!("applab_obda_source_queries_total").inc();
        applab_obs::querystats::source_query();
        let mut span = applab_obs::span("obda.execute");
        match &query.from {
            FromClause::Table(name) => {
                span.record("table", name.clone());
                let table = self
                    .tables
                    .get(name)
                    .ok_or_else(|| ObdaError::NoSuchTable(name.clone()))?;
                let candidate_rows: Vec<&Row> = match spatial_hint {
                    Some((col, env)) if table.spatial.contains_key(col) => {
                        applab_obs::counter!("applab_obda_rtree_scans_total").inc();
                        span.record("rtree", true);
                        let mut idx: Vec<usize> =
                            table.spatial[col].query(env).into_iter().copied().collect();
                        idx.sort_unstable();
                        idx.iter().map(|&i| &table.source.rows[i]).collect()
                    }
                    _ => table.source.rows.iter().collect(),
                };
                span.record("candidates", candidate_rows.len());
                let out: Vec<Row> = candidate_rows
                    .into_iter()
                    .filter(|row| query.predicates.iter().all(|p| matches(row, p)))
                    .map(|row| project(row, &query.columns))
                    .collect();
                span.record("rows", out.len());
                Ok(out)
            }
            FromClause::Opendap {
                dataset, variable, ..
            } => {
                let key = format!("opendap:{dataset}:{variable}");
                span.record("table", key.clone());
                let vtable = self
                    .vtables
                    .get(&key)
                    .ok_or_else(|| ObdaError::NoSuchTable(key.clone()))?;
                let out = vtable.scan(&Pushdown {
                    predicates: &query.predicates,
                    columns: &query.columns,
                    spatial: spatial_hint,
                })?;
                span.record("rows", out.len());
                Ok(out)
            }
        }
    }
}

/// Whether `row` satisfies `p`; a row without the column fails.
pub(crate) fn matches(row: &Row, p: &Predicate) -> bool {
    row.get(&p.column).is_some_and(|value| satisfies(value, p))
}

/// Whether a column value satisfies `p`.
pub(crate) fn satisfies(value: &Value, p: &Predicate) -> bool {
    let ord = match (&p.value, value) {
        (Const::Number(n), Value::Number(v)) => v.partial_cmp(n),
        (Const::Number(n), Value::Text(t)) => t.parse::<f64>().ok().and_then(|v| v.partial_cmp(n)),
        (Const::Text(s), Value::Text(t)) => Some(t.as_str().cmp(s.as_str())),
        (Const::Text(s), Value::Bool(b)) => Some(b.to_string().as_str().cmp(s.as_str())),
        _ => None,
    };
    ord.map(|o| p.op.evaluate(o)).unwrap_or(false)
}

pub(crate) fn project(row: &Row, columns: &[String]) -> Row {
    if columns.is_empty() {
        return row.clone();
    }
    columns
        .iter()
        .filter_map(|c| row.get(c).map(|v| (c.clone(), v.clone())))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use applab_geo::Geometry;

    fn parks() -> TabularSource {
        let mut rows = Vec::new();
        for i in 0..20 {
            let mut r = Row::new();
            r.insert("id".into(), Value::Number(i as f64));
            r.insert(
                "kind".into(),
                Value::Text(if i % 2 == 0 { "park" } else { "industrial" }.into()),
            );
            r.insert("area".into(), Value::Number(i as f64 * 10.0));
            r.insert(
                "geom".into(),
                Value::Geometry(Geometry::rect(i as f64, 0.0, i as f64 + 0.5, 0.5)),
            );
            rows.push(r);
        }
        TabularSource {
            name: "parks".into(),
            rows,
        }
    }

    fn source() -> DataSource {
        let mut ds = DataSource::new();
        ds.add_table(parks());
        ds
    }

    /// A virtual table answering every scan with one empty row.
    struct OneRow;

    impl VirtualTable for OneRow {
        fn scan(&self, _: &Pushdown) -> Result<Vec<Row>, ObdaError> {
            Ok(vec![Row::new()])
        }
    }

    #[test]
    fn opendap_tables_are_found_by_dataset_and_variable() {
        let mut ds = source();
        ds.add_opendap("lai_300m", "LAI", Arc::new(OneRow));
        let query = |dataset: &str| SourceQuery {
            columns: Vec::new(),
            from: FromClause::Opendap {
                dataset: dataset.into(),
                variable: "LAI".into(),
                window_secs: 0,
            },
            predicates: Vec::new(),
        };
        assert_eq!(ds.execute(&query("lai_300m"), None).unwrap().len(), 1);
        assert!(matches!(
            ds.execute(&query("nope"), None),
            Err(ObdaError::NoSuchTable(key)) if key == "opendap:nope:LAI"
        ));
    }

    #[test]
    fn select_where_project() {
        let ds = source();
        let q = SourceQuery::parse("SELECT id, area FROM parks WHERE kind = park AND area > 50")
            .unwrap();
        let rows = ds.execute(&q, None).unwrap();
        // Even ids with area > 50: ids 6, 8, 10, 12, 14, 16, 18.
        assert_eq!(rows.len(), 7);
        assert!(rows.iter().all(|r| r.len() == 2));
        assert!(rows.iter().all(|r| !r.contains_key("geom")));
    }

    #[test]
    fn select_star() {
        let ds = source();
        let q = SourceQuery::parse("SELECT * FROM parks").unwrap();
        let rows = ds.execute(&q, None).unwrap();
        assert_eq!(rows.len(), 20);
        assert_eq!(rows[0].len(), 4);
    }

    #[test]
    fn spatial_hint_uses_rtree() {
        let ds = source();
        let q = SourceQuery::parse("SELECT id FROM parks").unwrap();
        let env = Envelope::new(4.9, 0.0, 7.1, 0.5);
        let rows = ds.execute(&q, Some(("geom", &env))).unwrap();
        // Rects starting at 5, 6, 7 intersect (and 4’s rect ends at 4.5 — no).
        let mut ids: Vec<f64> = rows
            .iter()
            .map(|r| match &r["id"] {
                Value::Number(n) => *n,
                _ => unreachable!(),
            })
            .collect();
        ids.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(ids, vec![5.0, 6.0, 7.0]);
        // Hint on a non-geometry column falls back to a full scan.
        let rows = ds.execute(&q, Some(("id", &env))).unwrap();
        assert_eq!(rows.len(), 20);
    }

    #[test]
    fn missing_table_errors() {
        let ds = source();
        let q = SourceQuery::parse("SELECT a FROM nope").unwrap();
        assert!(matches!(
            ds.execute(&q, None),
            Err(ObdaError::NoSuchTable(_))
        ));
        let q = SourceQuery::parse("SELECT a FROM opendap('x', 'Y')").unwrap();
        assert!(matches!(
            ds.execute(&q, None),
            Err(ObdaError::NoSuchTable(_))
        ));
    }

    #[test]
    fn predicates_on_missing_columns_fail_row() {
        let ds = source();
        let q = SourceQuery::parse("SELECT id FROM parks WHERE nothere = 5").unwrap();
        assert!(ds.execute(&q, None).unwrap().is_empty());
    }
}
