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
//! Results are cached for the window `w` of the mapping ("if a query
//! arrives ... within this time window, the cached results can be used
//! directly, eliminating the cost of performing another call").

use crate::ObdaError;
use applab_dap::clock::Clock;
use applab_dap::{Constraint, DapClient, DapError};
use applab_geotriples::{Row, TabularSource, Value};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// A virtual table: materializes rows on demand.
pub trait VirtualTable: Send + Sync {
    /// Produce the current rows. A cached copy is shared, not cloned:
    /// every `open()` inside one window returns the same allocation.
    fn open(&self) -> Result<Arc<TabularSource>, ObdaError>;
}

/// A classified fetch failure: `transient` failures (connection-level, or
/// retries exhausted) may be bridged by a stale cached copy; permanent ones
/// (bad variable, bad grid, bad metadata) always propagate.
struct FetchFailure {
    error: ObdaError,
    transient: bool,
}

impl FetchFailure {
    fn from_dap(e: DapError) -> Self {
        let transient = e.is_retryable() || matches!(e, DapError::Unavailable { .. });
        let error = match e {
            DapError::Unavailable { dataset, retries } => {
                ObdaError::Unavailable { dataset, retries }
            }
            other => ObdaError::VirtualTable(other.to_string()),
        };
        FetchFailure { error, transient }
    }

    fn permanent(error: ObdaError) -> Self {
        FetchFailure {
            error,
            transient: false,
        }
    }
}

/// The `opendap` virtual table over one dataset variable.
pub struct OpendapTable {
    client: Arc<DapClient>,
    dataset: String,
    variable: String,
    window: Duration,
    /// How long past `window` an expired cache entry may still bridge a
    /// *transient* upstream failure. Zero (the default) disables
    /// serve-stale.
    grace: Duration,
    clock: Arc<dyn Clock>,
    cache: Mutex<Option<(Duration, Arc<TabularSource>)>>,
    stale: Arc<applab_obs::Counter>,
}

impl OpendapTable {
    pub fn new(
        client: Arc<DapClient>,
        dataset: impl Into<String>,
        variable: impl Into<String>,
        window: Duration,
        clock: Arc<dyn Clock>,
    ) -> Self {
        let dataset = dataset.into();
        let labels = [("dataset", dataset.as_str())];
        let stale =
            applab_obs::global().counter_with("applab_obda_vtable_stale_served_total", &labels);
        OpendapTable {
            client,
            dataset,
            variable: variable.into(),
            window,
            grace: Duration::ZERO,
            clock,
            cache: Mutex::new(None),
            stale,
        }
    }

    /// Enable serve-stale: an expired window entry stays usable for `grace`
    /// beyond its window when the refresh fails transiently. Served stale
    /// copies count in `applab_obda_vtable_stale_served_total` and mark the
    /// thread's degrade scope.
    pub fn with_stale_grace(mut self, grace: Duration) -> Self {
        self.grace = grace;
        self
    }

    /// Stale copies served so far.
    pub fn stale_serves(&self) -> u64 {
        self.stale.get()
    }

    fn fetch(&self) -> Result<TabularSource, FetchFailure> {
        let wrap = FetchFailure::from_dap;
        // One DODS call for the whole variable plus its coordinates, then
        // unroll the grid into (id, VAR, ts, loc) rows.
        let vars = self
            .client
            .get_data(&self.dataset, &Constraint::all())
            .map_err(wrap)?;
        let find = |name: &str| vars.iter().find(|v| v.name == name);
        let main = find(&self.variable).ok_or_else(|| {
            FetchFailure::permanent(ObdaError::VirtualTable(format!(
                "dataset {} has no variable {}",
                self.dataset, self.variable
            )))
        })?;
        if main.dims.len() != 3 || main.dims[0] != "time" {
            return Err(FetchFailure::permanent(ObdaError::VirtualTable(format!(
                "opendap vtable expects a (time, lat, lon) grid, got {:?}",
                main.dims
            ))));
        }
        let missing = |what: &str| {
            FetchFailure::permanent(ObdaError::VirtualTable(format!(
                "missing {what} coordinate"
            )))
        };
        let times = find("time").ok_or_else(|| missing("time"))?;
        let lats = find("lat").ok_or_else(|| missing("lat"))?;
        let lons = find("lon").ok_or_else(|| missing("lon"))?;

        // Decode the time axis to epoch seconds through the DAS metadata.
        let das = self.client.get_das(&self.dataset).map_err(wrap)?;
        let units = das
            .get("time")
            .and_then(|a| a.get("units"))
            .and_then(|v| match v {
                applab_array::AttrValue::Text(t) => Some(t.clone()),
                _ => None,
            })
            .unwrap_or_else(|| "seconds since 1970-01-01".to_string());
        let axis = applab_array::time::TimeAxis::parse(&units)
            .map_err(|e| FetchFailure::permanent(ObdaError::VirtualTable(e.to_string())))?;

        let (nt, nla, nlo) = (
            main.data.shape()[0],
            main.data.shape()[1],
            main.data.shape()[2],
        );
        let mut rows = Vec::with_capacity(nt * nla * nlo);
        for t in 0..nt {
            let epoch = axis.decode(times.data.data()[t]);
            let ts = format_datetime(epoch);
            for la in 0..nla {
                for lo in 0..nlo {
                    let value = main.data.get(&[t, la, lo]).expect("in bounds");
                    if value.is_nan() {
                        continue; // fill values never become observations
                    }
                    let lat = lats.data.data()[la];
                    let lon = lons.data.data()[lo];
                    let mut row = Row::new();
                    row.insert(
                        "id".into(),
                        Value::Text(format!("obs_{lon}_{lat}_{epoch}").replace(['.', '-'], "m")),
                    );
                    row.insert(self.variable.clone(), Value::Number(value));
                    row.insert("ts".into(), Value::Text(ts.clone()));
                    row.insert(
                        "loc".into(),
                        Value::Geometry(applab_geo::Geometry::point(lon, lat)),
                    );
                    rows.push(row);
                }
            }
        }
        Ok(TabularSource {
            name: format!("opendap:{}:{}", self.dataset, self.variable),
            rows,
        })
    }

    /// Cache statistics are on the client (round trips) — expose the window
    /// for introspection.
    pub fn window(&self) -> Duration {
        self.window
    }
}

impl VirtualTable for OpendapTable {
    fn open(&self) -> Result<Arc<TabularSource>, ObdaError> {
        let now = self.clock.now();
        if self.window > Duration::ZERO {
            let cache = self.cache.lock();
            if let Some((at, rows)) = cache.as_ref() {
                if now.saturating_sub(*at) < self.window {
                    return Ok(rows.clone());
                }
            }
        }
        match self.fetch() {
            Ok(rows) => {
                let rows = Arc::new(rows);
                if self.window > Duration::ZERO {
                    *self.cache.lock() = Some((now, rows.clone()));
                }
                Ok(rows)
            }
            Err(failure) => {
                // Serve-stale: a transient refresh failure inside the grace
                // period is bridged by the expired copy, flagged degraded.
                // Permanent failures always propagate — stale rows would
                // mask a real catalog or mapping problem.
                if failure.transient && self.window > Duration::ZERO && self.grace > Duration::ZERO
                {
                    let cache = self.cache.lock();
                    if let Some((at, rows)) = cache.as_ref() {
                        if now.saturating_sub(*at) < self.window + self.grace {
                            self.stale.inc();
                            applab_obs::degrade::mark("obda_vtable");
                            return Ok(rows.clone());
                        }
                    }
                }
                Err(failure.error)
            }
        }
    }
}

/// `xsd:dateTime` formatting (same algorithm as `applab-rdf::datetime`).
fn format_datetime(t: i64) -> String {
    let days = t.div_euclid(86_400);
    let secs = t.rem_euclid(86_400);
    let z = days + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!(
        "{:04}-{:02}-{:02}T{:02}:{:02}:{:02}Z",
        y,
        m,
        d,
        secs / 3600,
        (secs % 3600) / 60,
        secs % 60
    )
}

/// A registry of named virtual tables.
#[derive(Default)]
pub struct VTableRegistry {
    tables: HashMap<String, Arc<dyn VirtualTable>>,
}

impl VTableRegistry {
    pub fn new() -> Self {
        VTableRegistry::default()
    }

    pub fn register(&mut self, key: impl Into<String>, table: Arc<dyn VirtualTable>) {
        self.tables.insert(key.into(), table);
    }

    pub fn get(&self, key: &str) -> Option<&Arc<dyn VirtualTable>> {
        self.tables.get(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use applab_dap::clock::ManualClock;
    use applab_dap::server::grid_dataset;
    use applab_dap::transport::Local;
    use applab_dap::DapServer;

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
        let rows = vt.open().unwrap();
        // 2 times × 2 lats × 2 lons − 1 NaN = 7 observations.
        assert_eq!(rows.rows.len(), 7);
        let r = &rows.rows[0];
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
            .rows
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
        vt.open().unwrap();
        let trips_after_first = c.round_trips();
        vt.open().unwrap();
        vt.open().unwrap();
        assert_eq!(c.round_trips(), trips_after_first, "cache hits refetched");
        // Window expiry forces a refetch.
        clock.advance(Duration::from_secs(601));
        vt.open().unwrap();
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
        let first = vt.open().unwrap();
        clock.advance(Duration::from_secs(599));
        let hit = vt.open().unwrap();
        assert!(Arc::ptr_eq(&first, &hit), "a window hit must not copy");
        clock.advance(Duration::from_secs(2));
        let refreshed = vt.open().unwrap();
        assert!(!Arc::ptr_eq(&first, &refreshed), "expiry must refetch");
        assert_eq!(refreshed.rows.len(), first.rows.len());
    }

    #[test]
    fn zero_window_always_fetches() {
        let clock = ManualClock::new();
        let c = client();
        let vt = OpendapTable::new(c.clone(), "lai_300m", "LAI", Duration::ZERO, clock);
        vt.open().unwrap();
        let first = c.round_trips();
        vt.open().unwrap();
        assert!(c.round_trips() > first);
    }

    #[test]
    fn missing_variable_errors() {
        let clock = ManualClock::new();
        let vt = OpendapTable::new(client(), "lai_300m", "NDVI", Duration::ZERO, clock);
        assert!(matches!(vt.open(), Err(ObdaError::VirtualTable(_))));
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
        let fresh = vt.open().unwrap();

        // Upstream goes down; the window expires inside the grace period.
        srv.set_fault_hook(Box::new(|_, _| Err(DapError::Transport("down".into()))));
        clock.advance(Duration::from_secs(601));
        let scope = applab_obs::degrade::Scope::begin();
        let stale = vt.open().expect("grace bridges the outage");
        assert!(
            Arc::ptr_eq(&stale, &fresh),
            "the stale copy is the cached one"
        );
        assert!(scope.degraded(), "stale serve must mark the degrade scope");
        assert_eq!(vt.stale_serves(), 1);

        // Past window + grace the failure propagates, typed.
        clock.advance(Duration::from_secs(3601));
        assert!(matches!(vt.open(), Err(ObdaError::VirtualTable(_))));

        // Upstream recovers: fresh rows, not flagged.
        srv.clear_fault_hook();
        let scope = applab_obs::degrade::Scope::begin();
        assert_eq!(vt.open().unwrap().rows.len(), fresh.rows.len());
        assert!(!scope.degraded());
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
        vt.open().unwrap();
        // The dataset disappears from the catalog — a permanent answer, not
        // a transport fault: stale rows would mask it.
        srv.set_fault_hook(Box::new(|_, name| {
            Err(DapError::NoSuchDataset(name.to_string()))
        }));
        clock.advance(Duration::from_secs(601));
        assert!(matches!(vt.open(), Err(ObdaError::VirtualTable(_))));
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
        match vt.open() {
            Err(ObdaError::Unavailable { dataset, retries }) => {
                assert_eq!(dataset, "lai_300m");
                assert!(retries > 0);
            }
            other => panic!("expected Unavailable, got {other:?}"),
        }
    }

    #[test]
    fn registry() {
        let clock = ManualClock::new();
        let mut reg = VTableRegistry::new();
        reg.register(
            "opendap:lai_300m:LAI",
            Arc::new(OpendapTable::new(
                client(),
                "lai_300m",
                "LAI",
                Duration::ZERO,
                clock,
            )),
        );
        assert!(reg.get("opendap:lai_300m:LAI").is_some());
        assert!(reg.get("nope").is_none());
    }
}
