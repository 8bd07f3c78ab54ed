//! The DAP server: a catalog of datasets answering DDS/DAS/DODS requests.
//!
//! Mirrors the OPeNDAP deployment at VITO (Section 3.1): "Three different
//! services are exposed for each dataset: the OPeNDAP service, the
//! NetcdfSubset service and the NCML service." Here those are
//! [`DapServer::dds`]/[`DapServer::das`]/[`DapServer::dods`] (OPeNDAP),
//! [`DapServer::subset`] (NetcdfSubset-style, by coordinate values), and
//! [`crate::ncml_service`] (NCML). Access control reproduces the RAMANI
//! token scheme: "Without proper registration users will not have any
//! access to the datasets ... this will allow the tracking of which users
//! access which datasets."

use crate::constraint::Constraint;
use crate::{das, dds, dods, DapError};
use applab_array::{Dataset, NdArray, Range, Variable};
use std::collections::{BTreeMap, HashMap};
use std::sync::{PoisonError, RwLock};

/// Per-user access log entry counts (dataset → hits).
pub type AccessLog = BTreeMap<String, BTreeMap<String, u64>>;

/// A server-side fault hook: inspects `(request_kind, dataset)` before the
/// request is answered and may fail it with a typed error. `request_kind`
/// is one of `"dds"`, `"das"`, `"dods"`.
pub type FaultHook = Box<dyn Fn(&str, &str) -> Result<(), DapError> + Send + Sync>;

/// An in-process DAP server.
#[derive(Default)]
pub struct DapServer {
    catalog: RwLock<HashMap<String, Dataset>>,
    /// Registered access tokens → user names. Empty map = open server.
    tokens: RwLock<HashMap<String, String>>,
    access_log: RwLock<AccessLog>,
    /// Optional fault hook — lets chaos tests fail requests *server-side*
    /// (an unhealthy upstream, as opposed to [`crate::ChaosTransport`]'s
    /// wire faults).
    fault_hook: RwLock<Option<FaultHook>>,
}

impl DapServer {
    pub fn new() -> Self {
        DapServer::default()
    }

    /// Publish (or replace) a dataset under its name.
    pub fn publish(&self, dataset: Dataset) {
        self.catalog
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(dataset.name.clone(), dataset);
    }

    /// Register an access token for a user (RAMANI-style registration).
    pub fn register_token(&self, token: impl Into<String>, user: impl Into<String>) {
        self.tokens
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(token.into(), user.into());
    }

    /// Dataset names in the catalog.
    pub fn dataset_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .catalog
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }

    /// Check a token and log the access. An open server (no registered
    /// tokens) accepts everything.
    fn authorize(&self, token: Option<&str>, dataset: &str) -> Result<(), DapError> {
        let tokens = self.tokens.read().unwrap_or_else(PoisonError::into_inner);
        if tokens.is_empty() {
            return Ok(());
        }
        let user = token
            .and_then(|t| tokens.get(t))
            .ok_or_else(|| DapError::NoSuchDataset(format!("{dataset} (unauthorized)")))?;
        let mut log = self
            .access_log
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        *log.entry(user.clone())
            .or_default()
            .entry(dataset.to_string())
            .or_insert(0) += 1;
        Ok(())
    }

    /// The "which users access which datasets" report.
    pub fn access_log(&self) -> AccessLog {
        self.access_log
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Install a fault hook consulted before every DDS/DAS/DODS request.
    pub fn set_fault_hook(&self, hook: FaultHook) {
        *self
            .fault_hook
            .write()
            .unwrap_or_else(PoisonError::into_inner) = Some(hook);
    }

    /// Remove the fault hook, restoring a healthy server.
    pub fn clear_fault_hook(&self) {
        *self
            .fault_hook
            .write()
            .unwrap_or_else(PoisonError::into_inner) = None;
    }

    fn check_fault(&self, kind: &str, dataset: &str) -> Result<(), DapError> {
        match &*self
            .fault_hook
            .read()
            .unwrap_or_else(PoisonError::into_inner)
        {
            Some(hook) => hook(kind, dataset),
            None => Ok(()),
        }
    }

    fn with_dataset<T>(
        &self,
        name: &str,
        f: impl FnOnce(&Dataset) -> Result<T, DapError>,
    ) -> Result<T, DapError> {
        let catalog = self.catalog.read().unwrap_or_else(PoisonError::into_inner);
        let ds = catalog
            .get(name)
            .ok_or_else(|| DapError::NoSuchDataset(name.to_string()))?;
        f(ds)
    }

    /// The `.dds` response.
    pub fn dds(&self, name: &str, token: Option<&str>) -> Result<String, DapError> {
        self.check_fault("dds", name)?;
        self.authorize(token, name)?;
        self.with_dataset(name, |ds| Ok(dds::render(ds)))
    }

    /// The `.das` response.
    pub fn das(&self, name: &str, token: Option<&str>) -> Result<String, DapError> {
        self.check_fault("das", name)?;
        self.authorize(token, name)?;
        self.with_dataset(name, |ds| Ok(das::render(ds)))
    }

    /// The `.dods` (binary data) response for a constraint.
    pub fn dods(
        &self,
        name: &str,
        constraint: &Constraint,
        token: Option<&str>,
    ) -> Result<Vec<u8>, DapError> {
        self.check_fault("dods", name)?;
        self.authorize(token, name)?;
        self.with_dataset(name, |ds| {
            let mut out = Vec::new();
            if constraint.projections.is_empty() {
                for v in &ds.variables {
                    out.push(v.clone());
                }
            } else {
                for p in &constraint.projections {
                    let v = ds
                        .variable(&p.variable)
                        .ok_or_else(|| DapError::NoSuchVariable(p.variable.clone()))?;
                    if p.ranges.is_empty() {
                        out.push(v.clone());
                    } else {
                        let sliced = v
                            .data
                            .slice(&p.ranges)
                            .map_err(|e| DapError::Constraint(e.to_string()))?;
                        let mut nv = Variable::new(v.name.clone(), v.dims.clone(), sliced);
                        nv.attributes = v.attributes.clone();
                        out.push(nv);
                    }
                }
            }
            Ok(dods::encode(&out))
        })
    }

    /// NetcdfSubset-style request: select a variable by **coordinate**
    /// bounds rather than indexes. Returns the sliced variable plus its
    /// sliced coordinate variables.
    pub fn subset(
        &self,
        name: &str,
        variable: &str,
        bounds: &[(String, f64, f64)],
        token: Option<&str>,
    ) -> Result<Vec<Variable>, DapError> {
        self.authorize(token, name)?;
        self.with_dataset(name, |ds| {
            let v = ds
                .variable(variable)
                .ok_or_else(|| DapError::NoSuchVariable(variable.to_string()))?;
            let mut slab: Vec<Range> = Vec::with_capacity(v.dims.len());
            for (dim, &axis_len) in v.dims.iter().zip(v.data.shape()) {
                let range = match bounds.iter().find(|(d, _, _)| d == dim) {
                    Some((_, lo, hi)) => ds
                        .index_range(dim, *lo, *hi)
                        .ok_or_else(|| DapError::Constraint(format!("empty selection on {dim}")))?,
                    None => Range::all(axis_len),
                };
                slab.push(range);
            }
            let sliced = v
                .data
                .slice(&slab)
                .map_err(|e| DapError::Constraint(e.to_string()))?;
            let mut out = vec![Variable::new(v.name.clone(), v.dims.clone(), sliced)];
            // Attach sliced coordinates.
            for (dim, range) in v.dims.iter().zip(&slab) {
                if let Some(coord) = ds.coordinate(dim) {
                    let sliced = coord
                        .data
                        .slice(&[*range])
                        .map_err(|e| DapError::Constraint(e.to_string()))?;
                    let mut nv = Variable::new(coord.name.clone(), coord.dims.clone(), sliced);
                    nv.attributes = coord.attributes.clone();
                    out.push(nv);
                }
            }
            Ok(out)
        })
    }
}

/// Build the 3-D (time, lat, lon) dataset layout used across tests and
/// benches, with a caller-supplied value function.
pub fn grid_dataset(
    name: &str,
    times: &[f64],
    lats: &[f64],
    lons: &[f64],
    value: impl Fn(usize, usize, usize) -> f64,
) -> Dataset {
    let mut ds = Dataset::new(name);
    ds.add_dim("time", times.len())
        .add_dim("lat", lats.len())
        .add_dim("lon", lons.len());
    ds.set_attr("title", name);
    ds.set_attr("Conventions", "CF-1.6, ACDD-1.3");
    ds.add_variable(
        Variable::new("time", vec!["time".into()], NdArray::vector(times.to_vec()))
            .with_attr("units", "seconds since 1970-01-01"),
    )
    .expect("time axis");
    ds.add_variable(
        Variable::new("lat", vec!["lat".into()], NdArray::vector(lats.to_vec()))
            .with_attr("units", "degrees_north"),
    )
    .expect("lat axis");
    ds.add_variable(
        Variable::new("lon", vec!["lon".into()], NdArray::vector(lons.to_vec()))
            .with_attr("units", "degrees_east"),
    )
    .expect("lon axis");
    let mut data = NdArray::zeros(vec![times.len(), lats.len(), lons.len()]);
    for t in 0..times.len() {
        for la in 0..lats.len() {
            for lo in 0..lons.len() {
                data.set(&[t, la, lo], value(t, la, lo)).expect("in bounds");
            }
        }
    }
    ds.add_variable(
        Variable::new("LAI", vec!["time".into(), "lat".into(), "lon".into()], data)
            .with_attr("units", "m2/m2")
            .with_attr("long_name", "leaf area index"),
    )
    .expect("main variable");
    ds
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server() -> DapServer {
        let s = DapServer::new();
        s.publish(grid_dataset(
            "lai_300m",
            &[0.0, 86_400.0, 172_800.0],
            &[48.0, 48.5, 49.0],
            &[2.0, 2.5, 3.0, 3.5],
            |t, la, lo| (t * 100 + la * 10 + lo) as f64,
        ));
        s
    }

    #[test]
    fn dds_and_das_served() {
        let s = server();
        let dds_text = s.dds("lai_300m", None).unwrap();
        assert!(dds_text.contains("Float64 LAI[time = 3][lat = 3][lon = 4];"));
        let das_text = s.das("lai_300m", None).unwrap();
        assert!(das_text.contains("NC_GLOBAL"));
        assert!(das_text.contains("m2/m2"));
        assert!(matches!(
            s.dds("missing", None),
            Err(DapError::NoSuchDataset(_))
        ));
    }

    #[test]
    fn dods_subsetting() {
        let s = server();
        let c = Constraint::parse("LAI[1][0:1][2]").unwrap();
        let payload = s.dods("lai_300m", &c, None).unwrap();
        let vars = dods::decode(&payload).unwrap();
        assert_eq!(vars.len(), 1);
        assert_eq!(vars[0].data.shape(), &[1, 2, 1]);
        assert_eq!(vars[0].data.get(&[0, 0, 0]).unwrap(), 102.0);
        assert_eq!(vars[0].data.get(&[0, 1, 0]).unwrap(), 112.0);
    }

    #[test]
    fn dods_unconstrained_returns_everything() {
        let s = server();
        let payload = s.dods("lai_300m", &Constraint::all(), None).unwrap();
        let vars = dods::decode(&payload).unwrap();
        assert_eq!(vars.len(), 4); // time, lat, lon, LAI
    }

    #[test]
    fn dods_errors() {
        let s = server();
        let bad_var = Constraint::parse("NDVI[0]").unwrap();
        assert!(matches!(
            s.dods("lai_300m", &bad_var, None),
            Err(DapError::NoSuchVariable(_))
        ));
        let oob = Constraint::parse("LAI[9][0][0]").unwrap();
        assert!(matches!(
            s.dods("lai_300m", &oob, None),
            Err(DapError::Constraint(_))
        ));
    }

    #[test]
    fn coordinate_subset() {
        let s = server();
        let vars = s
            .subset(
                "lai_300m",
                "LAI",
                &[("lat".into(), 48.2, 49.0), ("lon".into(), 2.4, 3.1)],
                None,
            )
            .unwrap();
        let lai = &vars[0];
        assert_eq!(lai.data.shape(), &[3, 2, 2]); // all times, lat 48.5..49, lon 2.5..3
        let lat = vars.iter().find(|v| v.name == "lat").unwrap();
        assert_eq!(lat.data.data(), &[48.5, 49.0]);
        // Empty selection errors.
        assert!(s
            .subset("lai_300m", "LAI", &[("lat".into(), 60.0, 61.0)], None)
            .is_err());
    }

    #[test]
    fn token_auth_and_access_log() {
        let s = server();
        s.register_token("secret-1", "alice");
        // No token → denied.
        assert!(s.dds("lai_300m", None).is_err());
        assert!(s.dds("lai_300m", Some("wrong")).is_err());
        // Valid token → served + logged.
        assert!(s.dds("lai_300m", Some("secret-1")).is_ok());
        assert!(s.das("lai_300m", Some("secret-1")).is_ok());
        let log = s.access_log();
        assert_eq!(log["alice"]["lai_300m"], 2);
    }
}
