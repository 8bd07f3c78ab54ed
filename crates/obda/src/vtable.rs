//! Virtual tables (the MadIS UDF mechanism).
//!
//! "We used MadIS to create a new UDF, named Opendap, that is able to
//! create and populate a virtual table on-the-fly with data retrieved from
//! an OPeNDAP server." The rows produced follow Listing 2: a constructed
//! `id` ("the column id was not originally in the dataset but it is
//! constructed from the location and the time of observation"), the value
//! column named after the variable, a `ts` timestamp ("the Opendap virtual
//! table operator converts these values to a standard format"), and a
//! `loc` point geometry.
//!
//! Fetched grids are cached for the window `w` of the mapping ("if a query
//! arrives ... within this time window, the cached results can be used
//! directly, eliminating the cost of performing another call") in an
//! [`applab_sdl::SubsetCache`], the SDL's one window cache: the same
//! serve-stale grace, degrade mark and hit/miss counts. The cache keeps the
//! decoded arrays, not rows: a [`VirtualTable::scan`] reads them in place
//! and builds a row only for a cell its [`Pushdown`] selects.

use crate::engine::{matches, satisfies};
use crate::sql::Predicate;
use crate::ObdaError;
use applab_array::{index_range, NdArray};
use applab_dap::clock::Clock;
use applab_dap::{Constraint, DapClient, DapError};
use applab_geo::Envelope;
use applab_geotriples::{Row, Value};
use applab_rdf::datetime::format_datetime;
use applab_sdl::{ServeStale, SubsetCache};
use std::sync::Arc;
use std::time::Duration;

/// What one source query asks of a virtual table: its selection, its
/// projection and its optional spatial access-path hint.
#[derive(Debug, Default)]
pub struct Pushdown<'a> {
    /// Conjunctive `column OP constant` predicates.
    pub predicates: &'a [Predicate],
    /// Projected columns; `None` = every column.
    pub columns: Option<&'a [String]>,
    /// `(geometry column, envelope)`: keep only the rows whose geometry in
    /// that column intersects the envelope (closed intervals; an empty
    /// envelope selects nothing). A hint on a column that holds no
    /// geometry selects every row.
    pub spatial: Option<(&'a str, &'a Envelope)>,
}

impl Pushdown<'static> {
    /// Every row, every column.
    pub fn all() -> Self {
        Pushdown::default()
    }
}

/// A virtual table: produces rows on demand.
pub trait VirtualTable: Send + Sync {
    /// The rows `pushdown` selects, projected, in the table's row order.
    fn scan(&self, pushdown: &Pushdown) -> Result<Vec<Row>, ObdaError>;

    /// Whether every row a scan returns holds `column` whenever the
    /// pushdown projects it. The default knows no such column.
    fn never_null(&self, _column: &str) -> bool {
        false
    }
}

/// Why a grid fetch failed: the upstream's own error, or a grid this table
/// cannot read (missing variable or coordinate, wrong dims or shape, bad
/// time units), which is permanent.
enum FetchError {
    Dap(DapError),
    Grid(String),
}

impl ServeStale for FetchError {
    fn may_serve_stale(&self) -> bool {
        matches!(self, FetchError::Dap(e) if e.may_serve_stale())
    }
}

impl From<FetchError> for ObdaError {
    fn from(e: FetchError) -> Self {
        match e {
            FetchError::Dap(DapError::Unavailable { dataset, retries }) => {
                ObdaError::Unavailable { dataset, retries }
            }
            FetchError::Dap(other) => ObdaError::VirtualTable(other.to_string()),
            FetchError::Grid(m) => ObdaError::VirtualTable(m),
        }
    }
}

/// One fetched `(time, lat, lon)` grid, decoded once per cache window and
/// read in place by every scan inside it.
struct Grid {
    /// The main variable, row-major `(time, lat, lon)`; NaN is fill.
    values: NdArray,
    lats: Vec<f64>,
    lons: Vec<f64>,
    /// Epoch seconds per time step.
    epochs: Vec<i64>,
    /// The `xsd:dateTime` text of each time step (the `ts` column).
    stamps: Vec<String>,
}

impl Grid {
    /// One pass over the cells `pushdown` can select, in row order: time,
    /// then lat index, then lon index. Predicates on the variable are
    /// tested on the raw `f64`; a row is built only for a surviving cell,
    /// and only with the columns the query needs.
    fn scan(&self, variable: &str, pushdown: &Pushdown) -> Vec<Row> {
        let (on_value, on_row): (Vec<&Predicate>, Vec<&Predicate>) = pushdown
            .predicates
            .iter()
            .partition(|p| p.column == variable);
        let envelope = match pushdown.spatial {
            Some(("loc", env)) => {
                applab_obs::querystats::pushdown();
                Some(env)
            }
            _ => None,
        };
        let lat_idx = axis_selection(&self.lats, envelope.map(|e| (e.min_y, e.max_y)));
        let lon_idx = axis_selection(&self.lons, envelope.map(|e| (e.min_x, e.max_x)));
        let projected = |c: &str| {
            pushdown
                .columns
                .is_none_or(|columns| columns.iter().any(|k| k == c))
        };
        let wanted = |c: &str| projected(c) || on_row.iter().any(|p| p.column == c);
        let (want_id, want_value, want_ts, want_loc) =
            (wanted("id"), wanted(variable), wanted("ts"), wanted("loc"));
        let trim = !on_row.is_empty() && pushdown.columns.is_some();

        let (nla, nlo) = (self.lats.len(), self.lons.len());
        let values = self.values.data();
        let mut out = Vec::new();
        for (t, epoch) in self.epochs.iter().enumerate() {
            for &la in &lat_idx {
                for &lo in &lon_idx {
                    let value = values[(t * nla + la) * nlo + lo];
                    // Fill values never become observations.
                    if value.is_nan()
                        || !on_value.iter().all(|p| satisfies(&Value::Number(value), p))
                    {
                        continue;
                    }
                    let (lat, lon) = (self.lats[la], self.lons[lo]);
                    let mut row = Row::new();
                    if want_id {
                        row.insert("id".into(), Value::Text(cell_id(lon, lat, *epoch)));
                    }
                    if want_value {
                        row.insert(variable.to_string(), Value::Number(value));
                    }
                    if want_ts {
                        row.insert("ts".into(), Value::Text(self.stamps[t].clone()));
                    }
                    if want_loc {
                        let point = applab_geo::Geometry::point(lon, lat);
                        row.insert("loc".into(), Value::Geometry(point));
                    }
                    if !on_row.iter().all(|p| matches(&row, p)) {
                        continue;
                    }
                    if trim {
                        row.retain(|c, _| projected(c));
                    }
                    out.push(row);
                }
            }
        }
        out
    }
}

/// A cell's `id`: `obs_{lon}_{lat}_{epoch}` with every `.` and `-`
/// written as `m`, built in one allocation.
fn cell_id(lon: f64, lat: f64, epoch: i64) -> String {
    use std::fmt::Write;
    struct Mangled(String);
    impl Write for Mangled {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.0.extend(
                s.chars()
                    .map(|c| if c == '.' || c == '-' { 'm' } else { c }),
            );
            Ok(())
        }
    }
    let mut id = Mangled(String::with_capacity(48));
    let _ = write!(id, "obs_{lon}_{lat}_{epoch}");
    id.0
}

/// The indexes of `axis` whose coordinate lies in the closed `bounds`, in
/// index order; every index without bounds. `index_range` narrows the scan
/// to a range; the per-coordinate test inside it keeps a non-monotonic axis
/// exact (on a monotonic one it passes every index of the range).
fn axis_selection(axis: &[f64], bounds: Option<(f64, f64)>) -> Vec<usize> {
    let Some((lo, hi)) = bounds else {
        return (0..axis.len()).collect();
    };
    index_range(axis, lo, hi).map_or_else(Vec::new, |r| {
        r.iter()
            .filter(|&i| lo <= axis[i] && axis[i] <= hi)
            .collect()
    })
}

/// The columns [`Grid::scan`] constructs from a cell's coordinates.
const CONSTRUCTED: [&str; 3] = ["id", "ts", "loc"];

/// The `opendap` virtual table over one dataset variable.
pub struct OpendapTable {
    client: Arc<DapClient>,
    dataset: String,
    variable: String,
    /// The window's decoded grid, under the key `dataset`.
    cache: SubsetCache<Grid, FetchError>,
}

impl OpendapTable {
    pub fn new(
        client: Arc<DapClient>,
        dataset: impl Into<String>,
        variable: impl Into<String>,
        window: Duration,
        clock: Arc<dyn Clock>,
    ) -> Self {
        OpendapTable {
            client,
            dataset: dataset.into(),
            variable: variable.into(),
            cache: SubsetCache::windowed(window, clock),
        }
    }

    /// Enable serve-stale: an expired window entry stays usable for `grace`
    /// beyond its window when the refresh fails transiently. Served stale
    /// copies count in the cache's `applab_sdl_cache_stale_served_total`
    /// and flag the live query as degraded.
    pub fn with_stale_grace(mut self, grace: Duration) -> Self {
        self.cache = self.cache.with_stale_grace(grace);
        self
    }

    /// Stale copies served so far.
    pub fn stale_serves(&self) -> u64 {
        self.cache.stale_serves()
    }

    fn fetch(&self) -> Result<Grid, FetchError> {
        // One DODS call for the whole variable plus its coordinates.
        let mut vars = self
            .client
            .get_data(&self.dataset, &Constraint::all())
            .map_err(FetchError::Dap)?;
        let mut take = |name: &str| {
            let i = vars.iter().position(|v| v.name == name)?;
            Some(vars.swap_remove(i))
        };
        let main = take(&self.variable).ok_or_else(|| {
            FetchError::Grid(format!(
                "dataset {} has no variable {}",
                self.dataset, self.variable
            ))
        })?;
        if main.dims.len() != 3 || main.dims[0] != "time" {
            return Err(FetchError::Grid(format!(
                "opendap vtable expects a (time, lat, lon) grid, got {:?}",
                main.dims
            )));
        }
        if CONSTRUCTED.contains(&self.variable.as_str()) {
            return Err(FetchError::Grid(format!(
                "variable {} collides with a constructed column",
                self.variable
            )));
        }
        let missing = |what: &str| FetchError::Grid(format!("missing {what} coordinate"));
        let times = take("time").ok_or_else(|| missing("time"))?;
        let lats = take("lat").ok_or_else(|| missing("lat"))?;
        let lons = take("lon").ok_or_else(|| missing("lon"))?;
        let axes = [times.data.len(), lats.data.len(), lons.data.len()];
        if main.data.shape() != axes {
            return Err(FetchError::Grid(format!(
                "grid shape {:?} does not match its coordinates {axes:?}",
                main.data.shape()
            )));
        }

        // Decode the time axis to epoch seconds through the DAS metadata.
        let das = self
            .client
            .get_das(&self.dataset)
            .map_err(FetchError::Dap)?;
        let units = das
            .get("time")
            .and_then(|a| a.get("units"))
            .and_then(|v| match v {
                applab_array::AttrValue::Text(t) => Some(t.clone()),
                _ => None,
            })
            .unwrap_or_else(|| "seconds since 1970-01-01".to_string());
        let axis = applab_array::time::TimeAxis::parse(&units)
            .map_err(|e| FetchError::Grid(e.to_string()))?;
        let epochs: Vec<i64> = times.data.data().iter().map(|&t| axis.decode(t)).collect();
        Ok(Grid {
            stamps: epochs.iter().map(|&e| format_datetime(e)).collect(),
            epochs,
            values: main.data,
            lats: lats.data.data().to_vec(),
            lons: lons.data.data().to_vec(),
        })
    }

    /// The window's decoded grid: the cached copy inside the window, a
    /// fresh fetch otherwise. Every call inside one window returns the same
    /// allocation.
    fn grid(&self) -> Result<Arc<Grid>, ObdaError> {
        Ok(self.cache.get_or_fetch(&self.dataset, || self.fetch())?)
    }
}

impl VirtualTable for OpendapTable {
    fn scan(&self, pushdown: &Pushdown) -> Result<Vec<Row>, ObdaError> {
        Ok(self.grid()?.scan(&self.variable, pushdown))
    }

    /// The grid builds `id`, `ts` and `loc` for every cell it returns, and
    /// a fill value is no row, so each row holds the variable too.
    fn never_null(&self, column: &str) -> bool {
        column == self.variable || CONSTRUCTED.contains(&column)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::project;
    use crate::sql::{CmpOp, Const};
    use applab_dap::clock::ManualClock;
    use applab_dap::server::grid_dataset;
    use applab_dap::transport::Local;
    use applab_dap::DapServer;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn client() -> Arc<DapClient> {
        let server = DapServer::new();
        server.publish(grid_dataset(
            "lai_300m",
            &[0.0, 864_000.0],
            &[48.0, 48.5],
            &[2.0, 2.5],
            |t, la, lo| {
                if t == 0 && la == 0 && lo == 0 {
                    f64::NAN // one fill value
                } else {
                    (t * 100 + la * 10 + lo) as f64
                }
            },
        ));
        Arc::new(DapClient::new(Arc::new(server), Arc::new(Local::new())))
    }

    #[test]
    fn rows_follow_listing2_schema() {
        let clock = ManualClock::new();
        let vt = OpendapTable::new(client(), "lai_300m", "LAI", Duration::ZERO, clock);
        let rows = vt.scan(&Pushdown::all()).unwrap();
        // 2 times × 2 lats × 2 lons − 1 NaN = 7 observations.
        assert_eq!(rows.len(), 7);
        let r = &rows[0];
        assert!(matches!(r["loc"], Value::Geometry(_)));
        assert!(matches!(r["LAI"], Value::Number(_)));
        match &r["ts"] {
            Value::Text(ts) => assert!(ts.ends_with('Z') && ts.contains('T')),
            other => panic!("{other:?}"),
        }
        match &r["id"] {
            Value::Text(id) => assert!(id.starts_with("obs_")),
            other => panic!("{other:?}"),
        }
        // ids are unique.
        let ids: std::collections::HashSet<String> = rows
            .iter()
            .map(|r| match &r["id"] {
                Value::Text(t) => t.clone(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ids.len(), 7);
    }

    #[test]
    fn window_cache_avoids_refetch() {
        let clock = ManualClock::new();
        let c = client();
        let vt = OpendapTable::new(
            c.clone(),
            "lai_300m",
            "LAI",
            Duration::from_secs(600),
            clock.clone(),
        );
        vt.scan(&Pushdown::all()).unwrap();
        let trips_after_first = c.round_trips();
        vt.scan(&Pushdown::all()).unwrap();
        vt.scan(&Pushdown::all()).unwrap();
        assert_eq!(c.round_trips(), trips_after_first, "cache hits refetched");
        // Window expiry forces a refetch.
        clock.advance(Duration::from_secs(601));
        vt.scan(&Pushdown::all()).unwrap();
        assert!(c.round_trips() > trips_after_first);
    }

    #[test]
    fn window_hits_share_one_copy() {
        let clock = ManualClock::new();
        let vt = OpendapTable::new(
            client(),
            "lai_300m",
            "LAI",
            Duration::from_secs(600),
            clock.clone(),
        );
        let first = vt.grid().unwrap();
        clock.advance(Duration::from_secs(599));
        let hit = vt.grid().unwrap();
        assert!(Arc::ptr_eq(&first, &hit), "a window hit must not copy");
        clock.advance(Duration::from_secs(2));
        let refreshed = vt.grid().unwrap();
        assert!(!Arc::ptr_eq(&first, &refreshed), "expiry must refetch");
        assert_eq!(refreshed.values.len(), first.values.len());
    }

    #[test]
    fn zero_window_always_fetches() {
        let clock = ManualClock::new();
        let c = client();
        let vt = OpendapTable::new(c.clone(), "lai_300m", "LAI", Duration::ZERO, clock);
        vt.scan(&Pushdown::all()).unwrap();
        let first = c.round_trips();
        vt.scan(&Pushdown::all()).unwrap();
        assert!(c.round_trips() > first);
    }

    #[test]
    fn missing_variable_errors() {
        let clock = ManualClock::new();
        let vt = OpendapTable::new(client(), "lai_300m", "NDVI", Duration::ZERO, clock);
        assert!(matches!(
            vt.scan(&Pushdown::all()),
            Err(ObdaError::VirtualTable(_))
        ));
    }

    fn server() -> Arc<DapServer> {
        let server = DapServer::new();
        server.publish(grid_dataset(
            "lai_300m",
            &[0.0, 864_000.0],
            &[48.0, 48.5],
            &[2.0, 2.5],
            |t, la, lo| (t * 100 + la * 10 + lo) as f64,
        ));
        Arc::new(server)
    }

    #[test]
    fn stale_grace_bridges_transient_outage() {
        let srv = server();
        let c = Arc::new(DapClient::new(srv.clone(), Arc::new(Local::new())));
        let clock = ManualClock::new();
        let vt = OpendapTable::new(
            c,
            "lai_300m",
            "LAI",
            Duration::from_secs(600),
            clock.clone(),
        )
        .with_stale_grace(Duration::from_secs(3600));
        let fresh = vt.grid().unwrap();

        // Upstream goes down; the window expires inside the grace period.
        srv.set_fault_hook(Box::new(|_, _| Err(DapError::Transport("down".into()))));
        clock.advance(Duration::from_secs(601));
        let scope = applab_obs::querystats::Scope::begin();
        let stale = vt.grid().expect("grace bridges the outage");
        assert!(
            Arc::ptr_eq(&stale, &fresh),
            "the stale copy is the cached one"
        );
        assert!(
            scope.snapshot().degraded,
            "stale serve must flag the query as degraded"
        );
        assert_eq!(vt.stale_serves(), 1);

        // Past window + grace the failure propagates, typed.
        clock.advance(Duration::from_secs(3601));
        assert!(matches!(
            vt.scan(&Pushdown::all()),
            Err(ObdaError::VirtualTable(_))
        ));

        // Upstream recovers: fresh rows, not flagged.
        srv.clear_fault_hook();
        let scope = applab_obs::querystats::Scope::begin();
        let rows = vt.scan(&Pushdown::all()).unwrap();
        assert_eq!(rows.len(), fresh.values.len());
        assert!(!scope.snapshot().degraded);
    }

    #[test]
    fn permanent_failures_never_serve_stale() {
        let srv = server();
        let c = Arc::new(DapClient::new(srv.clone(), Arc::new(Local::new())));
        let clock = ManualClock::new();
        let vt = OpendapTable::new(
            c,
            "lai_300m",
            "LAI",
            Duration::from_secs(600),
            clock.clone(),
        )
        .with_stale_grace(Duration::from_secs(3600));
        vt.scan(&Pushdown::all()).unwrap();
        // The dataset disappears from the catalog — a permanent answer, not
        // a transport fault: stale rows would mask it.
        srv.set_fault_hook(Box::new(|_, name| {
            Err(DapError::NoSuchDataset(name.to_string()))
        }));
        clock.advance(Duration::from_secs(601));
        assert!(matches!(
            vt.scan(&Pushdown::all()),
            Err(ObdaError::VirtualTable(_))
        ));
        assert_eq!(vt.stale_serves(), 0);
    }

    #[test]
    fn exhausted_retries_surface_as_unavailable() {
        let srv = server();
        let c = Arc::new(DapClient::new(srv.clone(), Arc::new(Local::new())));
        srv.set_fault_hook(Box::new(|_, _| Err(DapError::Transport("down".into()))));
        c.enable_resilience(
            applab_dap::ResilienceConfig::no_sleep(),
            ManualClock::new(),
            7,
        );
        let clock = ManualClock::new();
        let vt = OpendapTable::new(c, "lai_300m", "LAI", Duration::ZERO, clock);
        match vt.scan(&Pushdown::all()) {
            Err(ObdaError::Unavailable { dataset, retries }) => {
                assert_eq!(dataset, "lai_300m");
                assert!(retries > 0);
            }
            other => panic!("expected Unavailable, got {other:?}"),
        }
    }

    /// The oracle: unroll the whole grid into rows, as the table did
    /// before it kept the decoded arrays.
    fn unroll(client: &DapClient, dataset: &str, variable: &str) -> Vec<Row> {
        let vars = client.get_data(dataset, &Constraint::all()).unwrap();
        let find = |name: &str| vars.iter().find(|v| v.name == name).unwrap();
        let (main, times) = (find(variable), find("time"));
        let (lats, lons) = (find("lat"), find("lon"));
        let axis = applab_array::time::TimeAxis::parse("seconds since 1970-01-01").unwrap();
        let shape = main.data.shape();
        let mut rows = Vec::new();
        for t in 0..shape[0] {
            let epoch = axis.decode(times.data.data()[t]);
            let ts = format_datetime(epoch);
            for la in 0..shape[1] {
                for lo in 0..shape[2] {
                    let value = main.data.get(&[t, la, lo]).unwrap();
                    if value.is_nan() {
                        continue;
                    }
                    let lat = lats.data.data()[la];
                    let lon = lons.data.data()[lo];
                    let mut row = Row::new();
                    row.insert(
                        "id".into(),
                        Value::Text(format!("obs_{lon}_{lat}_{epoch}").replace(['.', '-'], "m")),
                    );
                    row.insert(variable.to_string(), Value::Number(value));
                    row.insert("ts".into(), Value::Text(ts.clone()));
                    row.insert(
                        "loc".into(),
                        Value::Geometry(applab_geo::Geometry::point(lon, lat)),
                    );
                    rows.push(row);
                }
            }
        }
        rows
    }

    /// The oracle's selection: the engine's filter and projection over the
    /// unrolled rows.
    fn filter(rows: &[Row], pushdown: &Pushdown) -> Vec<Row> {
        rows.iter()
            .filter(|row| {
                pushdown.predicates.iter().all(|p| matches(row, p))
                    && pushdown
                        .spatial
                        .is_none_or(|(col, env)| match row.get(col) {
                            Some(Value::Geometry(g)) => g.envelope().intersects(env),
                            _ => true,
                        })
            })
            .map(|row| project(row, pushdown.columns))
            .collect()
    }

    /// `n` coordinates, increasing, decreasing or shuffled.
    fn axis(rng: &mut StdRng, n: usize) -> Vec<f64> {
        let start = rng.gen_range(-4i32..4) as f64 * 0.5;
        let step = [0.25, 0.5, 0.1][rng.gen_range(0..3usize)];
        let mut values: Vec<f64> = (0..n).map(|i| start + i as f64 * step).collect();
        match rng.gen_range(0..3u8) {
            0 => {}
            1 => values.reverse(),
            _ => {
                for i in (1..n).rev() {
                    values.swap(i, rng.gen_range(0..=i));
                }
            }
        }
        values
    }

    /// A closed interval on `axis`: inside, straddling, outside, a point
    /// or an edge exactly on a coordinate, or inverted (empty).
    fn interval(rng: &mut StdRng, axis: &[f64]) -> (f64, f64) {
        let lo = axis.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = axis.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let on = |rng: &mut StdRng| axis[rng.gen_range(0..axis.len())];
        let within = |rng: &mut StdRng| rng.gen_range(lo - 0.01..hi + 0.01);
        match rng.gen_range(0..6u8) {
            0 => {
                let (a, b) = (within(rng), within(rng));
                (a.min(b), a.max(b))
            }
            1 => (lo - 1.0, within(rng)),
            2 => (hi + 0.5, hi + 1.0),
            3 => {
                let c = on(rng);
                (c, c)
            }
            4 => {
                let (a, b) = (on(rng), on(rng));
                (a.min(b), a.max(b))
            }
            _ => (hi + 1.0, lo - 1.0),
        }
    }

    fn predicate(rng: &mut StdRng, stamps: &[String]) -> Predicate {
        let op = [
            CmpOp::Eq,
            CmpOp::Neq,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ][rng.gen_range(0..6usize)];
        let (column, value) = match rng.gen_range(0..5u8) {
            0..=2 => ("LAI", Const::Number(rng.gen_range(-2i32..10) as f64 * 0.5)),
            3 => (
                "ts",
                Const::Text(stamps[rng.gen_range(0..stamps.len())].clone()),
            ),
            _ => ("LAI", Const::Text("high".into())),
        };
        Predicate {
            column: column.into(),
            op,
            value,
        }
    }

    proptest! {
        #[test]
        fn scan_matches_unroll_then_filter(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (nt, nla, nlo) = (rng.gen_range(1..=6usize), rng.gen_range(1..=9usize), rng.gen_range(1..=7usize));
            let times: Vec<f64> = (0..nt).map(|t| t as f64 * 86_400.0).collect();
            let (lats, lons) = (axis(&mut rng, nla), axis(&mut rng, nlo));
            let fill = rng.gen_range(0.0..1.0);
            let values: Vec<f64> = (0..nt * nla * nlo)
                .map(|_| if rng.gen_bool(fill) { f64::NAN } else { rng.gen_range(-2i32..10) as f64 * 0.5 })
                .collect();
            let server = DapServer::new();
            server.publish(grid_dataset("g", &times, &lats, &lons, |t, la, lo| {
                values[(t * nla + la) * nlo + lo]
            }));
            let c = Arc::new(DapClient::new(Arc::new(server), Arc::new(Local::new())));
            let vt = OpendapTable::new(c.clone(), "g", "LAI", Duration::from_secs(600), ManualClock::new());
            let rows = unroll(&c, "g", "LAI");
            let stamps: Vec<String> = times.iter().map(|&t| format_datetime(t as i64)).collect();
            for _ in 0..8 {
                let (min_y, max_y) = interval(&mut rng, &lats);
                let (min_x, max_x) = interval(&mut rng, &lons);
                let env = match rng.gen_range(0..8u8) {
                    0 => Envelope::EMPTY,
                    _ => Envelope::new(min_x, min_y, max_x, max_y),
                };
                let spatial = match rng.gen_range(0..4u8) {
                    0 => None,
                    1 => Some(("ts", &env)),
                    _ => Some(("loc", &env)),
                };
                let predicates: Vec<Predicate> =
                    (0..rng.gen_range(0..3usize)).map(|_| predicate(&mut rng, &stamps)).collect();
                let columns: Vec<String> = ["id", "LAI", "ts", "loc", "nothere"]
                    .into_iter()
                    .filter(|_| rng.gen_bool(0.5))
                    .map(String::from)
                    .collect();
                let columns = rng.gen_bool(0.8).then_some(&columns[..]);
                let pushdown = Pushdown { predicates: &predicates, columns, spatial };
                prop_assert_eq!(vt.scan(&pushdown).unwrap(), filter(&rows, &pushdown), "{:?}", pushdown);
            }
        }
    }

    #[test]
    fn loc_hint_counts_one_pushdown() {
        let vt = OpendapTable::new(
            client(),
            "lai_300m",
            "LAI",
            Duration::ZERO,
            ManualClock::new(),
        );
        // The envelope's edges lie exactly on cell centres: both count.
        let env = Envelope::new(2.0, 48.5, 2.5, 48.5);
        let stats = applab_obs::querystats::Scope::begin();
        let rows = vt
            .scan(&Pushdown {
                spatial: Some(("loc", &env)),
                ..Pushdown::all()
            })
            .unwrap();
        assert_eq!(rows.len(), 4, "lat 48.5 × both lons × both times");
        assert_eq!(stats.finish().pushdowns, 1);
    }
}
