//! The SDL request methods.
//!
//! Section 3.3: "Once data has been discovered, it can be consumed in the
//! VISual Maps-API using any of the following data request-methods:
//! getMetadata, getDerivedData, getMap, getAnimation, getTransect,
//! getPoint, getArea, getVerticalProfile, getSpectralProfile (in case of
//! multi-spectral EO-data), getMapSwipe, and getTimeseriesProfile."
//! Every method here is one of those, snake-cased.

use crate::analytics::{self, CentralTendency, TimeSeries};
use crate::cache::SubsetCache;
use crate::pool::run_parallel;
use applab_array::time::TimeAxis;
use applab_array::{index_range, AttrValue, NdArray, Range, Variable};
use applab_dap::clock::Clock;
use applab_dap::das::Das;
use applab_dap::dds::Dds;
use applab_dap::{Constraint, DapClient, DapError};
use applab_geo::{Coord, Envelope};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, PoisonError, RwLock};
use std::time::Duration;

/// SDL error.
#[derive(Debug)]
pub enum SdlError {
    Dap(DapError),
    BadRequest(String),
}

impl fmt::Display for SdlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SdlError::Dap(e) => write!(f, "DAP error: {e}"),
            SdlError::BadRequest(m) => write!(f, "bad request: {m}"),
        }
    }
}

impl std::error::Error for SdlError {}

impl From<DapError> for SdlError {
    fn from(e: DapError) -> Self {
        SdlError::Dap(e)
    }
}

/// Cached per-dataset structure: DDS, DAS and decoded coordinate axes.
struct DatasetInfo {
    dds: Dds,
    das: Das,
    /// Coordinate name → values.
    coords: HashMap<String, Vec<f64>>,
    /// Decoded time axis values in epoch seconds (when a `time` coordinate
    /// exists).
    times: Vec<i64>,
}

/// A derived-data request (the RAMANI Cloud Analytics layer).
#[derive(Debug, Clone)]
pub enum Derivation {
    /// Long-term (moving) average of the point time series, window ±k.
    MovingAverage { k: usize },
    /// Moving average restricted to the given months ("summer-time").
    SeasonalMovingAverage { k: usize, months: Vec<u32> },
    /// Anomaly of the point time series against its long-term mean.
    Anomaly,
    /// Spatial central tendency over a region at one time ("city-average").
    SpatialAggregate {
        envelope: Envelope,
        how: CentralTendency,
    },
}

/// A derived-data result.
#[derive(Debug, Clone, PartialEq)]
pub enum DerivedData {
    Series(TimeSeries),
    Scalar(f64),
}

/// The metadata bundle getMetadata returns.
#[derive(Debug, Clone)]
pub struct Metadata {
    pub dds: Dds,
    pub das: Das,
    /// Time coverage (epoch seconds), when a time axis exists.
    pub time_coverage: Option<(i64, i64)>,
    /// Spatial extent from the lat/lon axes.
    pub extent: Option<Envelope>,
}

/// The Streaming Data Library.
pub struct Sdl {
    client: Arc<DapClient>,
    info_cache: RwLock<HashMap<String, Arc<DatasetInfo>>>,
    data_cache: SubsetCache,
    workers: usize,
}

impl Sdl {
    /// Create an SDL over a DAP client with a data-cache window `w`.
    pub fn new(client: Arc<DapClient>, window: Duration, clock: Arc<dyn Clock>) -> Self {
        Sdl {
            client,
            info_cache: RwLock::new(HashMap::new()),
            data_cache: SubsetCache::new(window, clock),
            workers: 4,
        }
    }

    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Enable serve-stale on the data cache: when a refetch fails
    /// transiently and the old subset expired less than `grace` ago, the
    /// stale subset is served (marked degraded through
    /// [`applab_obs::degrade`]) instead of failing the request.
    pub fn with_stale_grace(mut self, grace: Duration) -> Self {
        self.data_cache = self.data_cache.with_stale_grace(grace);
        self
    }

    /// Cache statistics (hits, misses).
    pub fn cache_stats(&self) -> (u64, u64) {
        (self.data_cache.hits(), self.data_cache.misses())
    }

    fn info(&self, dataset: &str) -> Result<Arc<DatasetInfo>, SdlError> {
        if let Some(info) = self
            .info_cache
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(dataset)
        {
            return Ok(info.clone());
        }
        let dds = self.client.get_dds(dataset)?;
        let das = self.client.get_das(dataset)?;
        // Fetch every 1-D variable that names its own dimension (CF
        // coordinate variables).
        let mut coords = HashMap::new();
        for v in &dds.variables {
            if v.dims.len() == 1 && v.dims[0].0 == v.name {
                let fetched = self
                    .client
                    .get_data(dataset, &Constraint::variable(v.name.clone(), vec![]))?;
                if let Some(var) = fetched.first() {
                    coords.insert(v.name.clone(), var.data.data().to_vec());
                }
            }
        }
        // Decode time.
        let times = match coords.get("time") {
            Some(values) => {
                let units = das
                    .get("time")
                    .and_then(|attrs| attrs.get("units"))
                    .and_then(|a| match a {
                        AttrValue::Text(t) => Some(t.clone()),
                        _ => None,
                    })
                    .unwrap_or_else(|| "seconds since 1970-01-01".to_string());
                let axis = TimeAxis::parse(&units)
                    .map_err(|e| SdlError::BadRequest(format!("time axis: {e}")))?;
                values.iter().map(|&v| axis.decode(v)).collect()
            }
            None => Vec::new(),
        };
        let info = Arc::new(DatasetInfo {
            dds,
            das,
            coords,
            times,
        });
        self.info_cache
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(dataset.to_string(), info.clone());
        Ok(info)
    }

    fn nearest(values: &[f64], target: f64) -> Option<usize> {
        values
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                (*a - target)
                    .abs()
                    .partial_cmp(&(*b - target).abs())
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|(i, _)| i)
    }

    fn nearest_time(info: &DatasetInfo, t: i64) -> Result<usize, SdlError> {
        if info.times.is_empty() {
            return Err(SdlError::BadRequest("dataset has no time axis".into()));
        }
        Ok(info
            .times
            .iter()
            .enumerate()
            .min_by_key(|(_, &v)| (v - t).abs())
            .map(|(i, _)| i)
            .expect("non-empty"))
    }

    fn axis<'a>(info: &'a DatasetInfo, name: &str) -> Result<&'a [f64], SdlError> {
        info.coords
            .get(name)
            .map(Vec::as_slice)
            .ok_or_else(|| SdlError::BadRequest(format!("dataset has no {name} axis")))
    }

    /// Fetch a constrained subset through the windowed cache.
    fn fetch(
        &self,
        dataset: &str,
        constraint: &Constraint,
    ) -> Result<Arc<Vec<Variable>>, SdlError> {
        let key = format!("{dataset}?{}", constraint.to_query_string());
        self.data_cache
            .get_or_fetch(&key, || self.client.get_data(dataset, constraint))
            .map_err(SdlError::from)
    }

    /// Build the full slab for `variable`, fixing named dims to indexes and
    /// leaving `vary` at full extent.
    fn slab_for(
        &self,
        info: &DatasetInfo,
        variable: &str,
        fixed: &HashMap<&str, usize>,
        vary: &[&str],
    ) -> Result<Vec<Range>, SdlError> {
        let var = info
            .dds
            .variable(variable)
            .ok_or_else(|| SdlError::Dap(DapError::NoSuchVariable(variable.to_string())))?;
        var.dims
            .iter()
            .map(|(dim, len)| {
                if let Some(&i) = fixed.get(dim.as_str()) {
                    Ok(Range::index(i))
                } else if vary.contains(&dim.as_str()) {
                    Ok(Range::all(*len))
                } else {
                    Err(SdlError::BadRequest(format!(
                        "dimension {dim} of {variable} neither fixed nor varying"
                    )))
                }
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // The Maps-API request methods.
    // ------------------------------------------------------------------

    /// `getMetadata`.
    pub fn get_metadata(&self, dataset: &str) -> Result<Metadata, SdlError> {
        let info = self.info(dataset)?;
        let time_coverage = match (info.times.first(), info.times.last()) {
            (Some(&a), Some(&b)) => Some((a, b)),
            _ => None,
        };
        let extent = match (info.coords.get("lat"), info.coords.get("lon")) {
            (Some(lats), Some(lons)) => {
                match (lats.first(), lats.last(), lons.first(), lons.last()) {
                    (Some(&la0), Some(&la1), Some(&lo0), Some(&lo1)) => {
                        Some(Envelope::new(lo0, la0, lo1, la1))
                    }
                    _ => None,
                }
            }
            _ => None,
        };
        Ok(Metadata {
            dds: info.dds.clone(),
            das: info.das.clone(),
            time_coverage,
            extent,
        })
    }

    /// `getPoint`: the value nearest to (lon, lat) at the time nearest `t`.
    pub fn get_point(
        &self,
        dataset: &str,
        variable: &str,
        at: Coord,
        t: i64,
    ) -> Result<f64, SdlError> {
        let info = self.info(dataset)?;
        let ti = Self::nearest_time(&info, t)?;
        let la = Self::nearest(Self::axis(&info, "lat")?, at.y)
            .ok_or_else(|| SdlError::BadRequest("empty lat axis".into()))?;
        let lo = Self::nearest(Self::axis(&info, "lon")?, at.x)
            .ok_or_else(|| SdlError::BadRequest("empty lon axis".into()))?;
        let fixed = HashMap::from([("time", ti), ("lat", la), ("lon", lo)]);
        let slab = self.slab_for(&info, variable, &fixed, &[])?;
        let vars = self.fetch(dataset, &Constraint::variable(variable, slab))?;
        Ok(vars[0].data.data()[0])
    }

    /// `getArea`: the subset covering `envelope` at the time nearest `t`,
    /// returned as a 2-D (lat, lon) array.
    pub fn get_area(
        &self,
        dataset: &str,
        variable: &str,
        envelope: &Envelope,
        t: i64,
    ) -> Result<NdArray, SdlError> {
        let info = self.info(dataset)?;
        let ti = Self::nearest_time(&info, t)?;
        let lat_range = index_range(Self::axis(&info, "lat")?, envelope.min_y, envelope.max_y)
            .ok_or_else(|| SdlError::BadRequest("area selects no latitudes".into()))?;
        let lon_range = index_range(Self::axis(&info, "lon")?, envelope.min_x, envelope.max_x)
            .ok_or_else(|| SdlError::BadRequest("area selects no longitudes".into()))?;
        let constraint =
            Constraint::variable(variable, vec![Range::index(ti), lat_range, lon_range]);
        let vars = self.fetch(dataset, &constraint)?;
        let data = &vars[0].data;
        // Drop the singleton time axis.
        let shape = data.shape();
        NdArray::from_vec(vec![shape[1], shape[2]], data.data().to_vec())
            .map_err(|e| SdlError::BadRequest(e.to_string()))
    }

    /// `getTimeseriesProfile`: the full time series at the grid cell
    /// nearest (lon, lat).
    pub fn get_timeseries_profile(
        &self,
        dataset: &str,
        variable: &str,
        at: Coord,
    ) -> Result<TimeSeries, SdlError> {
        let info = self.info(dataset)?;
        if info.times.is_empty() {
            return Err(SdlError::BadRequest("dataset has no time axis".into()));
        }
        let la = Self::nearest(Self::axis(&info, "lat")?, at.y)
            .ok_or_else(|| SdlError::BadRequest("empty lat axis".into()))?;
        let lo = Self::nearest(Self::axis(&info, "lon")?, at.x)
            .ok_or_else(|| SdlError::BadRequest("empty lon axis".into()))?;
        let fixed = HashMap::from([("lat", la), ("lon", lo)]);
        let slab = self.slab_for(&info, variable, &fixed, &["time"])?;
        let vars = self.fetch(dataset, &Constraint::variable(variable, slab))?;
        Ok(info
            .times
            .iter()
            .zip(vars[0].data.data())
            .map(|(&t, &v)| (t, v))
            .collect())
    }

    /// `getTransect`: `samples` values along the segment from `from` to
    /// `to` at the time nearest `t`.
    pub fn get_transect(
        &self,
        dataset: &str,
        variable: &str,
        from: Coord,
        to: Coord,
        t: i64,
        samples: usize,
    ) -> Result<Vec<(Coord, f64)>, SdlError> {
        if samples < 2 {
            return Err(SdlError::BadRequest("transect needs >= 2 samples".into()));
        }
        let mut out = Vec::with_capacity(samples);
        for i in 0..samples {
            let f = i as f64 / (samples - 1) as f64;
            let p = Coord::new(from.x + f * (to.x - from.x), from.y + f * (to.y - from.y));
            let v = self.get_point(dataset, variable, p, t)?;
            out.push((p, v));
        }
        Ok(out)
    }

    /// `getMap`: a `rows`×`cols` display grid over `envelope` at the time
    /// nearest `t` (nearest-neighbour resampling).
    pub fn get_map(
        &self,
        dataset: &str,
        variable: &str,
        envelope: &Envelope,
        t: i64,
        rows: usize,
        cols: usize,
    ) -> Result<NdArray, SdlError> {
        let area = self.get_area(dataset, variable, envelope, t)?;
        Ok(analytics::resample_nearest(&area, rows, cols))
    }

    /// `getAnimation`: one map per requested time, rendered in parallel on
    /// the worker pool.
    pub fn get_animation(
        &self,
        dataset: &str,
        variable: &str,
        envelope: &Envelope,
        times: &[i64],
        rows: usize,
        cols: usize,
    ) -> Result<Vec<NdArray>, SdlError> {
        let frames = run_parallel(self.workers, times.to_vec(), |t| {
            self.get_map(dataset, variable, envelope, t, rows, cols)
        });
        frames.into_iter().collect()
    }

    /// `getMapSwipe`: two co-registered maps (left/right of the swipe).
    #[allow(clippy::too_many_arguments)]
    pub fn get_map_swipe(
        &self,
        left: (&str, &str),
        right: (&str, &str),
        envelope: &Envelope,
        t: i64,
        rows: usize,
        cols: usize,
    ) -> Result<(NdArray, NdArray), SdlError> {
        let a = self.get_map(left.0, left.1, envelope, t, rows, cols)?;
        let b = self.get_map(right.0, right.1, envelope, t, rows, cols)?;
        Ok((a, b))
    }

    /// `getVerticalProfile`: the values along the `level` dimension at one
    /// location/time.
    pub fn get_vertical_profile(
        &self,
        dataset: &str,
        variable: &str,
        at: Coord,
        t: i64,
    ) -> Result<Vec<(f64, f64)>, SdlError> {
        self.get_profile(dataset, variable, "level", at, t)
    }

    /// `getSpectralProfile`: the values along the `band` dimension
    /// ("in case of multi-spectral EO-data").
    pub fn get_spectral_profile(
        &self,
        dataset: &str,
        variable: &str,
        at: Coord,
        t: i64,
    ) -> Result<Vec<(f64, f64)>, SdlError> {
        self.get_profile(dataset, variable, "band", at, t)
    }

    fn get_profile(
        &self,
        dataset: &str,
        variable: &str,
        dim: &str,
        at: Coord,
        t: i64,
    ) -> Result<Vec<(f64, f64)>, SdlError> {
        let info = self.info(dataset)?;
        // The profile dimension must exist on the variable.
        let var = info
            .dds
            .variable(variable)
            .ok_or_else(|| SdlError::Dap(DapError::NoSuchVariable(variable.to_string())))?;
        if !var.dims.iter().any(|(d, _)| d == dim) {
            return Err(SdlError::BadRequest(format!(
                "variable {variable} has no {dim} dimension"
            )));
        }
        let la = Self::nearest(Self::axis(&info, "lat")?, at.y)
            .ok_or_else(|| SdlError::BadRequest("empty lat axis".into()))?;
        let lo = Self::nearest(Self::axis(&info, "lon")?, at.x)
            .ok_or_else(|| SdlError::BadRequest("empty lon axis".into()))?;
        let mut fixed = HashMap::from([("lat", la), ("lon", lo)]);
        if !info.times.is_empty() {
            fixed.insert("time", Self::nearest_time(&info, t)?);
        }
        let slab = self.slab_for(&info, variable, &fixed, &[dim])?;
        let vars = self.fetch(dataset, &Constraint::variable(variable, slab))?;
        let coord_values: Vec<f64> = match info.coords.get(dim) {
            Some(v) => v.clone(),
            None => (0..vars[0].data.len()).map(|i| i as f64).collect(),
        };
        Ok(coord_values
            .into_iter()
            .zip(vars[0].data.data().iter().copied())
            .collect())
    }

    /// `getDerivedData`: run a RAMANI Cloud Analytics derivation.
    pub fn get_derived_data(
        &self,
        dataset: &str,
        variable: &str,
        at: Coord,
        derivation: &Derivation,
        t: i64,
    ) -> Result<DerivedData, SdlError> {
        match derivation {
            Derivation::MovingAverage { k } => {
                let series = self.get_timeseries_profile(dataset, variable, at)?;
                Ok(DerivedData::Series(analytics::moving_average(&series, *k)))
            }
            Derivation::SeasonalMovingAverage { k, months } => {
                let series = self.get_timeseries_profile(dataset, variable, at)?;
                let filtered = analytics::filter_months(&series, months);
                Ok(DerivedData::Series(analytics::moving_average(
                    &filtered, *k,
                )))
            }
            Derivation::Anomaly => {
                let series = self.get_timeseries_profile(dataset, variable, at)?;
                Ok(DerivedData::Series(analytics::anomalies(&series)))
            }
            Derivation::SpatialAggregate { envelope, how } => {
                let area = self.get_area(dataset, variable, envelope, t)?;
                Ok(DerivedData::Scalar(analytics::spatial_aggregate(
                    &area, *how,
                )))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use applab_dap::clock::ManualClock;
    use applab_dap::server::grid_dataset;
    use applab_dap::transport::Local;
    use applab_dap::DapServer;

    fn sdl() -> Sdl {
        let server = DapServer::new();
        let times: Vec<f64> = (0..12).map(|m| (m * 30 * 86_400) as f64).collect();
        let lats: Vec<f64> = (0..20).map(|i| 48.0 + i as f64 * 0.05).collect();
        let lons: Vec<f64> = (0..20).map(|i| 2.0 + i as f64 * 0.05).collect();
        // Value = month + lat index/100 + lon index/10000 for checkable math.
        server.publish(grid_dataset("lai", &times, &lats, &lons, |t, la, lo| {
            t as f64 + la as f64 / 100.0 + lo as f64 / 10_000.0
        }));
        let client = Arc::new(DapClient::new(Arc::new(server), Arc::new(Local::new())));
        Sdl::new(client, Duration::from_secs(600), ManualClock::new())
    }

    #[test]
    fn metadata() {
        let s = sdl();
        let m = s.get_metadata("lai").unwrap();
        assert_eq!(m.dds.dataset, "lai");
        assert!(m.das.contains_key("NC_GLOBAL"));
        let (t0, t1) = m.time_coverage.unwrap();
        assert_eq!(t0, 0);
        assert_eq!(t1, 11 * 30 * 86_400);
        let e = m.extent.unwrap();
        assert!((e.min_x - 2.0).abs() < 1e-9);
        assert!((e.max_y - 48.95).abs() < 1e-9);
    }

    #[test]
    fn point_requests() {
        let s = sdl();
        // Exactly on grid node (lat idx 2, lon idx 4), month 1.
        let v = s
            .get_point("lai", "LAI", Coord::new(2.2, 48.1), 30 * 86_400)
            .unwrap();
        assert!((v - (1.0 + 0.02 + 0.0004)).abs() < 1e-9);
        // Nearest snapping.
        let v2 = s
            .get_point("lai", "LAI", Coord::new(2.201, 48.099), 29 * 86_400)
            .unwrap();
        assert_eq!(v, v2);
        assert!(s
            .get_point("missing", "LAI", Coord::new(0.0, 0.0), 0)
            .is_err());
    }

    #[test]
    fn area_and_map() {
        let s = sdl();
        let env = Envelope::new(2.1, 48.1, 2.3, 48.3);
        let area = s.get_area("lai", "LAI", &env, 0).unwrap();
        assert_eq!(area.shape(), &[5, 5]); // 48.1..48.3 and 2.1..2.3 in 0.05 steps
        let map = s.get_map("lai", "LAI", &env, 0, 10, 8).unwrap();
        assert_eq!(map.shape(), &[10, 8]);
        // Out-of-domain area errors.
        assert!(s
            .get_area("lai", "LAI", &Envelope::new(50.0, 50.0, 51.0, 51.0), 0)
            .is_err());
    }

    #[test]
    fn timeseries_and_derived() {
        let s = sdl();
        let at = Coord::new(2.0, 48.0);
        let series = s.get_timeseries_profile("lai", "LAI", at).unwrap();
        assert_eq!(series.len(), 12);
        assert_eq!(series[0].1, 0.0);
        assert_eq!(series[11].1, 11.0);

        match s
            .get_derived_data("lai", "LAI", at, &Derivation::MovingAverage { k: 1 }, 0)
            .unwrap()
        {
            DerivedData::Series(ma) => {
                assert_eq!(ma.len(), 12);
                assert_eq!(ma[1].1, 1.0); // (0+1+2)/3
            }
            other => panic!("{other:?}"),
        }
        match s
            .get_derived_data("lai", "LAI", at, &Derivation::Anomaly, 0)
            .unwrap()
        {
            DerivedData::Series(an) => {
                let sum: f64 = an.iter().map(|(_, v)| v).sum();
                assert!(sum.abs() < 1e-9);
            }
            other => panic!("{other:?}"),
        }
        match s
            .get_derived_data(
                "lai",
                "LAI",
                at,
                &Derivation::SpatialAggregate {
                    envelope: Envelope::new(2.0, 48.0, 2.1, 48.1),
                    how: CentralTendency::Max,
                },
                0,
            )
            .unwrap()
        {
            DerivedData::Scalar(v) => assert!((v - 0.0202).abs() < 1e-9),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn transect_samples_line() {
        let s = sdl();
        let t = s
            .get_transect(
                "lai",
                "LAI",
                Coord::new(2.0, 48.0),
                Coord::new(2.95, 48.95),
                0,
                5,
            )
            .unwrap();
        assert_eq!(t.len(), 5);
        // Values increase along the diagonal.
        assert!(t.windows(2).all(|w| w[1].1 >= w[0].1));
        assert!(s
            .get_transect(
                "lai",
                "LAI",
                Coord::new(2.0, 48.0),
                Coord::new(2.1, 48.1),
                0,
                1
            )
            .is_err());
    }

    #[test]
    fn animation_parallel() {
        let s = sdl();
        let env = Envelope::new(2.0, 48.0, 2.5, 48.5);
        let times: Vec<i64> = (0..6).map(|m| m * 30 * 86_400).collect();
        let frames = s.get_animation("lai", "LAI", &env, &times, 4, 4).unwrap();
        assert_eq!(frames.len(), 6);
        // Later frames have larger values (value = month + ...).
        assert!(frames[5].mean() > frames[0].mean());
    }

    #[test]
    fn map_swipe() {
        let s = sdl();
        let env = Envelope::new(2.0, 48.0, 2.5, 48.5);
        let (a, b) = s
            .get_map_swipe(("lai", "LAI"), ("lai", "LAI"), &env, 0, 4, 4)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn caching_dedupes_identical_requests() {
        let s = sdl();
        let at = Coord::new(2.2, 48.2);
        s.get_point("lai", "LAI", at, 0).unwrap();
        s.get_point("lai", "LAI", at, 0).unwrap();
        s.get_point("lai", "LAI", at, 0).unwrap();
        let (hits, misses) = s.cache_stats();
        assert_eq!(misses, 1);
        assert_eq!(hits, 2);
    }

    #[test]
    fn profile_over_band_dimension() {
        // A multi-spectral dataset: (band, lat, lon).
        let server = DapServer::new();
        let mut ds = applab_array::Dataset::new("multispectral");
        ds.add_dim("band", 4).add_dim("lat", 2).add_dim("lon", 2);
        ds.add_variable(applab_array::Variable::new(
            "band",
            vec!["band".into()],
            NdArray::vector(vec![490.0, 560.0, 665.0, 842.0]),
        ))
        .unwrap();
        ds.add_variable(applab_array::Variable::new(
            "lat",
            vec!["lat".into()],
            NdArray::vector(vec![48.0, 48.5]),
        ))
        .unwrap();
        ds.add_variable(applab_array::Variable::new(
            "lon",
            vec!["lon".into()],
            NdArray::vector(vec![2.0, 2.5]),
        ))
        .unwrap();
        let mut data = NdArray::zeros(vec![4, 2, 2]);
        for b in 0..4 {
            data.set(&[b, 0, 0], b as f64 * 10.0).unwrap();
        }
        ds.add_variable(applab_array::Variable::new(
            "reflectance",
            vec!["band".into(), "lat".into(), "lon".into()],
            data,
        ))
        .unwrap();
        server.publish(ds);
        let client = Arc::new(DapClient::new(Arc::new(server), Arc::new(Local::new())));
        let s = Sdl::new(client, Duration::ZERO, ManualClock::new());
        let profile = s
            .get_spectral_profile("multispectral", "reflectance", Coord::new(2.0, 48.0), 0)
            .unwrap();
        assert_eq!(profile.len(), 4);
        assert_eq!(profile[0], (490.0, 0.0));
        assert_eq!(profile[3], (842.0, 30.0));
        // No vertical levels in this dataset.
        assert!(s
            .get_vertical_profile("multispectral", "reflectance", Coord::new(2.0, 48.0), 0)
            .is_err());
    }
}
