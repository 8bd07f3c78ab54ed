//! Subset caching.
//!
//! Two lessons from the paper are reproduced here:
//!
//! * Section 3.2's time-windowed cache: "results of an OPeNDAP call get
//!   cached ... if another, identical OPeNDAP call needs to be performed
//!   within this time window, the cached results can be used directly"
//!   ([`SubsetCache`]).
//! * Section 5's cache-friendliness argument: "OPeNDAP allows for the
//!   caching of datasets by serialization based on internal array indices.
//!   This increases cache-hits for recurrent requests of a specific subpart
//!   of the dataset ... e.g., in a mobile application scenario, where the
//!   viewport ... \[has\] modest panning and zooming interaction", versus a
//!   WCS that only takes bounding boxes. [`TiledFetcher`] snaps viewports
//!   to index-aligned tiles; [`BboxFetcher`] is the WCS-style baseline that
//!   caches raw bounding boxes. Bench B7 compares their hit rates.

use applab_array::{index_range, Range, Variable};
use applab_dap::clock::Clock;
use applab_dap::{Constraint, DapClient, DapError};
use applab_geo::tile::TileGrid;
use applab_geo::Envelope;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::{Arc, PoisonError, RwLock};
use std::time::Duration;

/// Whether a failed refresh may be bridged by a stale cached copy: a
/// transient fault or an upstream down past its retries may; a permanent
/// answer (unknown dataset, bad constraint, bad grid) may not, as stale data
/// would mask it.
pub trait ServeStale {
    fn may_serve_stale(&self) -> bool;
}

impl ServeStale for DapError {
    fn may_serve_stale(&self) -> bool {
        self.is_retryable() || matches!(self, DapError::Unavailable { .. })
    }
}

/// The `applab_degraded_serves_total{source=…}` label of every stale serve:
/// one series, however many keys go stale.
const DEGRADE_SOURCE: &str = "subset_cache";

/// A keyed cache whose entries expire `window` after insertion. It holds
/// whatever its fetches produce — raw DAP subsets by default, a decoded
/// grid for the OBDA `opendap` table — behind one `Arc` per entry, so a
/// hit never copies.
///
/// Hit/miss counts live in the `applab-obs` global registry as
/// instance-labeled `applab_sdl_cache_{hits,misses}_total` counters; the
/// [`hits`](Self::hits)/[`misses`](Self::misses) getters are thin reads
/// over this cache's own handles.
///
/// With a non-zero [`stale grace`](Self::with_stale_grace) the cache also
/// degrades gracefully: when a refresh fails with an error that
/// [may serve stale](ServeStale) and the old entry expired less than
/// `grace` ago, the stale copy is served instead of the error — counted as
/// `applab_sdl_cache_stale_served_total` and marked through
/// [`applab_obs::degrade`] so the service can tag the whole answer as
/// degraded.
pub struct SubsetCache<V = Vec<Variable>, E = DapError> {
    window: Duration,
    /// How long past `window` an entry may still be served when a refresh
    /// fails. Zero (the default) disables serve-stale.
    grace: Duration,
    clock: Arc<dyn Clock>,
    /// Insertion time plus the cached value, per key.
    entries: RwLock<HashMap<String, (Duration, Arc<V>)>>,
    hits: Arc<applab_obs::Counter>,
    misses: Arc<applab_obs::Counter>,
    stale: Arc<applab_obs::Counter>,
    /// No `E` is stored: `fn() -> E` keeps the cache `Send + Sync`.
    error: PhantomData<fn() -> E>,
}

impl SubsetCache {
    /// A cache of raw DAP subsets. Its type is fixed here so that callers
    /// need not name it; [`windowed`](Self::windowed) builds any other.
    pub fn new(window: Duration, clock: Arc<dyn Clock>) -> Self {
        Self::windowed(window, clock)
    }
}

impl<V, E: ServeStale> SubsetCache<V, E> {
    /// A cache of `V`s whose fetches fail with `E`.
    pub fn windowed(window: Duration, clock: Arc<dyn Clock>) -> Self {
        let instance = applab_obs::next_instance_id().to_string();
        let labels = [("instance", instance.as_str())];
        SubsetCache {
            window,
            grace: Duration::ZERO,
            clock,
            entries: RwLock::new(HashMap::new()),
            hits: applab_obs::global().counter_with("applab_sdl_cache_hits_total", &labels),
            misses: applab_obs::global().counter_with("applab_sdl_cache_misses_total", &labels),
            stale: applab_obs::global()
                .counter_with("applab_sdl_cache_stale_served_total", &labels),
            error: PhantomData,
        }
    }

    /// Enable serve-stale: expired entries stay usable for `grace` beyond
    /// the freshness window when a refresh fails transiently.
    pub fn with_stale_grace(mut self, grace: Duration) -> Self {
        self.grace = grace;
        self
    }

    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Stale entries served in place of a failed refresh so far.
    pub fn stale_serves(&self) -> u64 {
        self.stale.get()
    }

    /// Look up `key`; on miss (or expiry) call `fetch` and cache the result.
    pub fn get_or_fetch(
        &self,
        key: &str,
        fetch: impl FnOnce() -> Result<V, E>,
    ) -> Result<Arc<V>, E> {
        self.get_or_fetch_degraded(key, fetch)
            .map(|(value, _)| value)
    }

    /// Like [`get_or_fetch`](Self::get_or_fetch), but also reports whether
    /// the value is a stale entry served because the refresh failed
    /// (`true` = degraded). Only an error that
    /// [may serve stale](ServeStale::may_serve_stale) is bridged.
    pub fn get_or_fetch_degraded(
        &self,
        key: &str,
        fetch: impl FnOnce() -> Result<V, E>,
    ) -> Result<(Arc<V>, bool), E> {
        let now = self.clock.now();
        if let Some(value) = self.entry(key, now, self.window) {
            self.hits.inc();
            applab_obs::querystats::cache_hit();
            return Ok((value, false));
        }
        self.misses.inc();
        applab_obs::querystats::cache_miss();
        let e = match fetch() {
            Ok(value) => {
                let value = Arc::new(value);
                if self.window > Duration::ZERO {
                    self.entries
                        .write()
                        .unwrap_or_else(PoisonError::into_inner)
                        .insert(key.to_string(), (now, value.clone()));
                }
                return Ok((value, false));
            }
            Err(e) => e,
        };
        if !e.may_serve_stale() || self.grace.is_zero() {
            return Err(e);
        }
        let value = self.entry(key, now, self.window + self.grace).ok_or(e)?;
        self.stale.inc();
        applab_obs::querystats::cache_hit();
        applab_obs::degrade::mark(DEGRADE_SOURCE);
        Ok((value, true))
    }

    /// The entry under `key` if it is younger than `max_age` at `now`. A
    /// zero window inserts nothing, so it never finds one.
    fn entry(&self, key: &str, now: Duration, max_age: Duration) -> Option<Arc<V>> {
        let entries = self.entries.read().unwrap_or_else(PoisonError::into_inner);
        let (at, value) = entries.get(key)?;
        (now.saturating_sub(*at) < max_age).then(|| value.clone())
    }

    /// Drop entries past `window + grace` (housekeeping; correctness never
    /// depends on it). Entries inside the stale-grace period survive — they
    /// are still a valid degraded answer if the upstream goes down.
    pub fn evict_expired(&self) {
        let now = self.clock.now();
        let keep = self.window + self.grace;
        self.entries
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .retain(|_, (at, _)| now.saturating_sub(*at) < keep);
    }

    pub fn len(&self) -> usize {
        self.entries
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Shared base for the two viewport fetchers: knows the dataset's lat/lon
/// coordinate arrays so envelopes can be translated to index ranges.
struct GridInfo {
    client: Arc<DapClient>,
    dataset: String,
    variable: String,
    lats: Vec<f64>,
    lons: Vec<f64>,
}

impl GridInfo {
    fn open(client: Arc<DapClient>, dataset: &str, variable: &str) -> Result<Self, DapError> {
        let coords = client.get_data(dataset, &Constraint::parse("lat,lon").expect("static"))?;
        let axis = |name: &str| {
            coords
                .iter()
                .find(|v| v.name == name)
                .map(|v| v.data.data().to_vec())
                .ok_or_else(|| DapError::NoSuchVariable(name.into()))
        };
        let (lats, lons) = (axis("lat")?, axis("lon")?);
        Ok(GridInfo {
            client,
            dataset: dataset.to_string(),
            variable: variable.to_string(),
            lats,
            lons,
        })
    }

    /// Fetch the (time_idx, lat-range, lon-range) subset for an envelope.
    /// An envelope outside the data extent, or any other constraint the
    /// server rejects, selects the empty subset, which caches like any
    /// other.
    fn fetch_envelope(&self, env: &Envelope, time_idx: usize) -> Result<Vec<Variable>, DapError> {
        let (Some(lat_range), Some(lon_range)) = (
            index_range(&self.lats, env.min_y, env.max_y),
            index_range(&self.lons, env.min_x, env.max_x),
        ) else {
            return Ok(Vec::new());
        };
        let constraint = Constraint::variable(
            self.variable.clone(),
            vec![Range::index(time_idx), lat_range, lon_range],
        );
        match self.client.get_data(&self.dataset, &constraint) {
            Err(DapError::Constraint(_)) => Ok(Vec::new()),
            fetched => fetched,
        }
    }

    fn domain(&self) -> Envelope {
        Envelope::new(
            self.lons.first().copied().unwrap_or(-180.0),
            self.lats.first().copied().unwrap_or(-90.0),
            self.lons.last().copied().unwrap_or(180.0),
            self.lats.last().copied().unwrap_or(90.0),
        )
    }
}

/// Statistics from serving one viewport request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FetchStats {
    /// Cache units (tiles or bboxes) the request decomposed into.
    pub requests: usize,
    /// How many were answered from cache.
    pub cache_hits: usize,
}

/// DAP-style fetcher: viewports snap to index-aligned tiles of a fixed
/// grid, so recurring and overlapping viewports share cache entries.
pub struct TiledFetcher {
    info: GridInfo,
    grid: TileGrid,
    zoom: u8,
    cache: SubsetCache,
}

impl TiledFetcher {
    pub fn open(
        client: Arc<DapClient>,
        dataset: &str,
        variable: &str,
        zoom: u8,
        clock: Arc<dyn Clock>,
    ) -> Result<Self, DapError> {
        let info = GridInfo::open(client, dataset, variable)?;
        let grid = TileGrid::new(info.domain());
        Ok(TiledFetcher {
            info,
            grid,
            zoom,
            // Session-length cache: the viewport workload is interactive.
            cache: SubsetCache::new(Duration::from_secs(3600), clock),
        })
    }

    /// Serve a viewport: fetch every covering tile (from cache when
    /// possible).
    pub fn fetch_viewport(
        &self,
        viewport: &Envelope,
        time_idx: usize,
    ) -> Result<FetchStats, DapError> {
        applab_obs::counter!("applab_sdl_tiled_viewports_total").inc();
        let mut span = applab_obs::span("sdl.viewport");
        span.record("fetcher", "tiled");
        let tiles = self.grid.covering(viewport, self.zoom);
        let mut stats = FetchStats {
            requests: tiles.len(),
            cache_hits: 0,
        };
        for tile in tiles {
            let key = format!(
                "{}:{}:{}/{}/{}@{}",
                self.info.dataset, self.info.variable, tile.zoom, tile.col, tile.row, time_idx
            );
            let before = self.cache.hits();
            let env = self.grid.tile_envelope(tile);
            self.cache
                .get_or_fetch(&key, || self.info.fetch_envelope(&env, time_idx))?;
            if self.cache.hits() > before {
                stats.cache_hits += 1;
            }
        }
        span.record("requests", stats.requests);
        span.record("cache_hits", stats.cache_hits);
        Ok(stats)
    }
}

/// WCS-style fetcher: each distinct bounding box is its own cache entry
/// ("when using the Web Coverage Service, there is limited possibility to
/// obtain client-specific parts of the datasets (one is limited to, for
/// example, a bounding-box)").
pub struct BboxFetcher {
    info: GridInfo,
    cache: SubsetCache,
}

impl BboxFetcher {
    pub fn open(
        client: Arc<DapClient>,
        dataset: &str,
        variable: &str,
        clock: Arc<dyn Clock>,
    ) -> Result<Self, DapError> {
        let info = GridInfo::open(client, dataset, variable)?;
        Ok(BboxFetcher {
            info,
            cache: SubsetCache::new(Duration::from_secs(3600), clock),
        })
    }

    pub fn fetch_viewport(
        &self,
        viewport: &Envelope,
        time_idx: usize,
    ) -> Result<FetchStats, DapError> {
        applab_obs::counter!("applab_sdl_bbox_viewports_total").inc();
        let mut span = applab_obs::span("sdl.viewport");
        span.record("fetcher", "bbox");
        let key = format!(
            "{}:{}:{:.6}/{:.6}/{:.6}/{:.6}@{}",
            self.info.dataset,
            self.info.variable,
            viewport.min_x,
            viewport.min_y,
            viewport.max_x,
            viewport.max_y,
            time_idx
        );
        let before = self.cache.hits();
        self.cache
            .get_or_fetch(&key, || self.info.fetch_envelope(viewport, time_idx))?;
        let stats = FetchStats {
            requests: 1,
            cache_hits: (self.cache.hits() - before) as usize,
        };
        span.record("requests", stats.requests);
        span.record("cache_hits", stats.cache_hits);
        Ok(stats)
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
        let lats: Vec<f64> = (0..100).map(|i| 40.0 + i as f64 * 0.1).collect();
        let lons: Vec<f64> = (0..100).map(|i| i as f64 * 0.1).collect();
        server.publish(grid_dataset(
            "lai",
            &[0.0, 1.0],
            &lats,
            &lons,
            |t, la, lo| (t + la + lo) as f64,
        ));
        Arc::new(DapClient::new(Arc::new(server), Arc::new(Local::new())))
    }

    #[test]
    fn window_expiry() {
        let clock = ManualClock::new();
        let cache = SubsetCache::new(Duration::from_secs(600), clock.clone());
        let mut calls = 0;
        for _ in 0..3 {
            cache
                .get_or_fetch("k", || {
                    calls += 1;
                    Ok(vec![])
                })
                .unwrap();
        }
        assert_eq!(calls, 1);
        assert_eq!(cache.hits(), 2);
        clock.advance(Duration::from_secs(601));
        cache
            .get_or_fetch("k", || {
                calls += 1;
                Ok(vec![])
            })
            .unwrap();
        assert_eq!(calls, 2);
        cache.evict_expired();
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn zero_window_disables_caching() {
        let clock = ManualClock::new();
        let cache = SubsetCache::new(Duration::ZERO, clock);
        let mut calls = 0;
        for _ in 0..3 {
            cache
                .get_or_fetch("k", || {
                    calls += 1;
                    Ok(vec![])
                })
                .unwrap();
        }
        assert_eq!(calls, 3);
        assert!(cache.is_empty());
    }

    #[test]
    fn errors_are_not_cached() {
        let clock = ManualClock::new();
        let cache = SubsetCache::new(Duration::from_secs(600), clock);
        let r = cache.get_or_fetch("k", || Err(DapError::NoSuchDataset("x".into())));
        assert!(r.is_err());
        let mut called = false;
        cache
            .get_or_fetch("k", || {
                called = true;
                Ok(vec![])
            })
            .unwrap();
        assert!(called);
    }

    #[test]
    fn stale_grace_serves_expired_entry_on_transient_failure() {
        let clock = ManualClock::new();
        let cache = SubsetCache::new(Duration::from_secs(600), clock.clone())
            .with_stale_grace(Duration::from_secs(3600));
        cache.get_or_fetch("k", || Ok(vec![])).unwrap();
        clock.advance(Duration::from_secs(601));
        // Refresh fails transiently inside the grace window: stale serve.
        let scope = applab_obs::querystats::Scope::begin();
        let (value, degraded) = cache
            .get_or_fetch_degraded("k", || Err(DapError::Transport("down".into())))
            .unwrap();
        assert!(degraded);
        assert!(value.is_empty());
        assert!(
            scope.snapshot().degraded,
            "stale serve must flag the query as degraded"
        );
        assert_eq!(cache.stale_serves(), 1);
        // Past window + grace: the error propagates.
        clock.advance(Duration::from_secs(3601));
        let r = cache.get_or_fetch_degraded("k", || Err(DapError::Transport("down".into())));
        assert!(r.is_err());
    }

    #[test]
    fn permanent_errors_never_serve_stale() {
        let clock = ManualClock::new();
        let cache = SubsetCache::new(Duration::from_secs(600), clock.clone())
            .with_stale_grace(Duration::from_secs(3600));
        cache.get_or_fetch("k", || Ok(vec![])).unwrap();
        clock.advance(Duration::from_secs(601));
        let r = cache.get_or_fetch_degraded("k", || Err(DapError::NoSuchDataset("k".into())));
        assert_eq!(r.unwrap_err(), DapError::NoSuchDataset("k".into()));
        assert_eq!(cache.stale_serves(), 0);
    }

    #[test]
    fn stale_serves_of_many_keys_mark_one_degrade_series() {
        let clock = ManualClock::new();
        let cache = SubsetCache::new(Duration::from_secs(600), clock.clone())
            .with_stale_grace(Duration::from_secs(3600));
        let keys = (0..16).map(|i| format!("lai_300m?LAI[{i}]"));
        for key in keys.clone() {
            cache.get_or_fetch(&key, || Ok(vec![])).unwrap();
        }
        clock.advance(Duration::from_secs(601));
        for key in keys {
            let down = || Err(DapError::Transport("down".into()));
            assert!(cache.get_or_fetch_degraded(&key, down).unwrap().1);
        }
        assert_eq!(cache.stale_serves(), 16);
        let metrics = applab_obs::global().to_prometheus();
        let series = metrics
            .lines()
            .filter(|l| l.starts_with("applab_degraded_serves_total{"));
        assert_eq!(series.count(), 1, "one degrade series, not one per key");
    }

    #[test]
    fn eviction_keeps_grace_entries() {
        let clock = ManualClock::new();
        let cache = SubsetCache::new(Duration::from_secs(600), clock.clone())
            .with_stale_grace(Duration::from_secs(3600));
        cache.get_or_fetch("k", || Ok(vec![])).unwrap();
        clock.advance(Duration::from_secs(601));
        cache.evict_expired();
        assert_eq!(cache.len(), 1, "entry inside grace survives eviction");
        clock.advance(Duration::from_secs(3600));
        cache.evict_expired();
        assert!(cache.is_empty(), "entry past window + grace is dropped");
    }

    #[test]
    fn tiled_fetcher_reuses_tiles_under_panning() {
        let clock = ManualClock::new();
        let f = TiledFetcher::open(client(), "lai", "LAI", 4, clock).unwrap();
        // First viewport: all misses.
        let v1 = Envelope::new(2.0, 44.0, 4.0, 46.0);
        let s1 = f.fetch_viewport(&v1, 0).unwrap();
        assert!(s1.requests > 0);
        assert_eq!(s1.cache_hits, 0);
        // Pan slightly: most tiles recur.
        let v2 = Envelope::new(2.3, 44.2, 4.3, 46.2);
        let s2 = f.fetch_viewport(&v2, 0).unwrap();
        assert!(s2.cache_hits > 0, "panning should hit cached tiles: {s2:?}");
        // Identical viewport: all hits.
        let s3 = f.fetch_viewport(&v2, 0).unwrap();
        assert_eq!(s3.cache_hits, s3.requests);
    }

    #[test]
    fn bbox_fetcher_misses_under_panning() {
        let clock = ManualClock::new();
        let f = BboxFetcher::open(client(), "lai", "LAI", clock).unwrap();
        let v1 = Envelope::new(2.0, 44.0, 4.0, 46.0);
        assert_eq!(f.fetch_viewport(&v1, 0).unwrap().cache_hits, 0);
        // Slightly different box: miss.
        let v2 = Envelope::new(2.01, 44.0, 4.01, 46.0);
        assert_eq!(f.fetch_viewport(&v2, 0).unwrap().cache_hits, 0);
        // Exact repeat: hit.
        assert_eq!(f.fetch_viewport(&v2, 0).unwrap().cache_hits, 1);
    }

    #[test]
    fn different_time_indexes_do_not_share() {
        let clock = ManualClock::new();
        let f = TiledFetcher::open(client(), "lai", "LAI", 3, clock).unwrap();
        let v = Envelope::new(2.0, 44.0, 4.0, 46.0);
        f.fetch_viewport(&v, 0).unwrap();
        let s = f.fetch_viewport(&v, 1).unwrap();
        assert_eq!(s.cache_hits, 0);
    }
}
