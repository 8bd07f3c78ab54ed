//! Datasets: named dimensions, variables and attributes (the NetCDF model).

use crate::array::{NdArray, Range, ShapeError};
use std::collections::BTreeMap;

/// An attribute value (NetCDF attributes are text, numbers or number lists).
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    Text(String),
    Number(f64),
    Numbers(Vec<f64>),
}

impl AttrValue {
    pub fn as_text(&self) -> Option<&str> {
        match self {
            AttrValue::Text(t) => Some(t),
            _ => None,
        }
    }

    pub fn as_number(&self) -> Option<f64> {
        match self {
            AttrValue::Number(n) => Some(*n),
            _ => None,
        }
    }
}

impl From<&str> for AttrValue {
    fn from(s: &str) -> Self {
        AttrValue::Text(s.to_string())
    }
}

impl From<String> for AttrValue {
    fn from(s: String) -> Self {
        AttrValue::Text(s)
    }
}

impl From<f64> for AttrValue {
    fn from(n: f64) -> Self {
        AttrValue::Number(n)
    }
}

/// Ordered attribute map (BTreeMap keeps DDS/DAS output deterministic).
pub type Attributes = BTreeMap<String, AttrValue>;

/// A variable: data over named dimensions plus attributes.
#[derive(Debug, Clone, PartialEq)]
pub struct Variable {
    pub name: String,
    /// Dimension names, one per array axis, in axis order.
    pub dims: Vec<String>,
    pub attributes: Attributes,
    pub data: NdArray,
}

impl Variable {
    pub fn new(name: impl Into<String>, dims: Vec<String>, data: NdArray) -> Self {
        Variable {
            name: name.into(),
            dims,
            attributes: Attributes::new(),
            data,
        }
    }

    pub fn with_attr(mut self, key: &str, value: impl Into<AttrValue>) -> Self {
        self.attributes.insert(key.to_string(), value.into());
        self
    }

    /// The CF `units` attribute.
    pub fn units(&self) -> Option<&str> {
        self.attributes.get("units").and_then(AttrValue::as_text)
    }
}

/// A dataset: dimensions, variables, global attributes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Dataset {
    pub name: String,
    /// Dimension name → length, in insertion order.
    pub dims: Vec<(String, usize)>,
    pub variables: Vec<Variable>,
    pub attributes: Attributes,
}

impl Dataset {
    pub fn new(name: impl Into<String>) -> Self {
        Dataset {
            name: name.into(),
            ..Dataset::default()
        }
    }

    pub fn add_dim(&mut self, name: impl Into<String>, len: usize) -> &mut Self {
        self.dims.push((name.into(), len));
        self
    }

    pub fn dim_len(&self, name: &str) -> Option<usize> {
        self.dims.iter().find(|(n, _)| n == name).map(|(_, l)| *l)
    }

    pub fn set_attr(&mut self, key: &str, value: impl Into<AttrValue>) -> &mut Self {
        self.attributes.insert(key.to_string(), value.into());
        self
    }

    /// Add a variable, validating that its dimensions exist and match the
    /// array shape.
    pub fn add_variable(&mut self, var: Variable) -> Result<(), ShapeError> {
        if var.dims.len() != var.data.ndim() {
            return Err(ShapeError(format!(
                "variable {} has {} dims but rank-{} data",
                var.name,
                var.dims.len(),
                var.data.ndim()
            )));
        }
        for (dim, &axis_len) in var.dims.iter().zip(var.data.shape()) {
            match self.dim_len(dim) {
                Some(len) if len == axis_len => {}
                Some(len) => {
                    return Err(ShapeError(format!(
                        "variable {}: dimension {dim} is {len} but axis is {axis_len}",
                        var.name
                    )))
                }
                None => {
                    return Err(ShapeError(format!(
                        "variable {}: unknown dimension {dim}",
                        var.name
                    )))
                }
            }
        }
        self.variables.push(var);
        Ok(())
    }

    pub fn variable(&self, name: &str) -> Option<&Variable> {
        self.variables.iter().find(|v| v.name == name)
    }

    pub fn variable_mut(&mut self, name: &str) -> Option<&mut Variable> {
        self.variables.iter_mut().find(|v| v.name == name)
    }

    /// A coordinate variable: 1-D, named after its dimension (CF).
    pub fn coordinate(&self, dim: &str) -> Option<&Variable> {
        self.variable(dim).filter(|v| v.dims == [dim.to_string()])
    }

    /// Index of the coordinate value nearest to `value` along `dim`.
    pub fn nearest_index(&self, dim: &str, value: f64) -> Option<usize> {
        let coord = self.coordinate(dim)?;
        coord
            .data
            .data()
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                (*a - value)
                    .abs()
                    .partial_cmp(&(*b - value).abs())
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|(i, _)| i)
    }

    /// Inclusive index range of coordinate values within `[lo, hi]` along
    /// `dim`, assuming a monotonic (increasing or decreasing) coordinate.
    /// `None` when the interval selects nothing.
    pub fn index_range(&self, dim: &str, lo: f64, hi: f64) -> Option<Range> {
        index_range(self.coordinate(dim)?.data.data(), lo, hi)
    }
}

/// Inclusive index range of the monotonic `values` within `[lo, hi]`.
/// The axis may increase or decrease (products often store latitude north
/// to south). `None` when the interval selects nothing. On a non-monotonic
/// axis the range spans the first to the last value inside, so it may hold
/// values outside `[lo, hi]`.
pub fn index_range(values: &[f64], lo: f64, hi: f64) -> Option<Range> {
    let inside = |&v: &f64| lo <= v && v <= hi;
    let start = values.iter().position(inside)?;
    let stop = values.iter().rposition(inside)?;
    Some(Range::new(start, 1, stop))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lai_like() -> Dataset {
        let mut ds = Dataset::new("lai_300m");
        ds.add_dim("time", 3).add_dim("lat", 4).add_dim("lon", 5);
        ds.set_attr("title", "Leaf Area Index");
        ds.add_variable(
            Variable::new(
                "time",
                vec!["time".into()],
                NdArray::vector(vec![0.0, 10.0, 20.0]),
            )
            .with_attr("units", "days since 2017-01-01"),
        )
        .unwrap();
        ds.add_variable(Variable::new(
            "lat",
            vec!["lat".into()],
            NdArray::vector(vec![48.0, 48.5, 49.0, 49.5]),
        ))
        .unwrap();
        ds.add_variable(Variable::new(
            "lon",
            vec!["lon".into()],
            NdArray::vector(vec![2.0, 2.25, 2.5, 2.75, 3.0]),
        ))
        .unwrap();
        ds.add_variable(
            Variable::new(
                "LAI",
                vec!["time".into(), "lat".into(), "lon".into()],
                NdArray::zeros(vec![3, 4, 5]),
            )
            .with_attr("units", "m2/m2")
            .with_attr("_FillValue", -999.0),
        )
        .unwrap();
        ds
    }

    #[test]
    fn build_and_lookup() {
        let ds = lai_like();
        assert_eq!(ds.dim_len("lat"), Some(4));
        assert_eq!(ds.variable("LAI").unwrap().units(), Some("m2/m2"));
        assert!(ds.coordinate("time").is_some());
        assert!(ds.coordinate("LAI").is_none()); // 3-D var is no coordinate
    }

    #[test]
    fn add_variable_validates_shape() {
        let mut ds = lai_like();
        let bad = Variable::new(
            "NDVI",
            vec!["time".into(), "lat".into()],
            NdArray::zeros(vec![3, 9]),
        );
        assert!(ds.add_variable(bad).is_err());
        let unknown_dim = Variable::new("X", vec!["depth".into()], NdArray::zeros(vec![2]));
        assert!(ds.add_variable(unknown_dim).is_err());
        let rank_mismatch = Variable::new("Y", vec!["time".into()], NdArray::zeros(vec![3, 1]));
        assert!(ds.add_variable(rank_mismatch).is_err());
    }

    #[test]
    fn nearest_index_lookup() {
        let ds = lai_like();
        assert_eq!(ds.nearest_index("lat", 48.6), Some(1));
        assert_eq!(ds.nearest_index("lon", 2.0), Some(0));
        assert_eq!(ds.nearest_index("lon", 99.0), Some(4));
        assert_eq!(ds.nearest_index("LAI", 1.0), None);
    }

    #[test]
    fn index_range_lookup() {
        let ds = lai_like();
        let r = ds.index_range("lon", 2.2, 2.8).unwrap();
        assert_eq!((r.start, r.stop), (1, 3));
        assert!(ds.index_range("lon", 3.5, 4.0).is_none());
        let all = ds.index_range("lat", 0.0, 100.0).unwrap();
        assert_eq!(all.count(), 4);
        let lons = [2.0, 2.25, 2.5, 2.75, 3.0];
        // Empty selection: the interval lies past the last coordinate.
        assert!(index_range(&lons, 3.5, 4.0).is_none());
        // The interval falls between two coordinates.
        assert!(index_range(&lons, 2.3, 2.4).is_none());
        // `lo == hi` exactly on a coordinate selects that one index.
        let r = index_range(&lons, 2.5, 2.5).unwrap();
        assert_eq!((r.start, r.stop), (2, 2));
        // An inverted interval selects nothing.
        assert!(index_range(&lons, 2.8, 2.2).is_none());
        // A single-element axis: in, on the edge, out.
        assert_eq!(index_range(&[48.0], 47.0, 49.0).unwrap().count(), 1);
        assert_eq!(index_range(&[48.0], 48.0, 48.0).unwrap().count(), 1);
        assert!(index_range(&[48.0], 48.1, 49.0).is_none());
        // A descending axis (latitude stored north to south).
        let lats = [49.5, 49.0, 48.5, 48.0];
        let r = index_range(&lats, 48.2, 49.2).unwrap();
        assert_eq!((r.start, r.stop), (1, 2));
        let r = index_range(&lats, 48.0, 49.0).unwrap();
        assert_eq!((r.start, r.stop), (1, 3), "both edges are inclusive");
        assert_eq!(index_range(&lats, 0.0, 100.0).unwrap().count(), 4);
        assert!(index_range(&lats, 48.6, 48.9).is_none());
        assert!(index_range(&lats, 50.0, 51.0).is_none());
    }

    #[test]
    fn attr_conversions() {
        assert_eq!(AttrValue::from("x").as_text(), Some("x"));
        assert_eq!(AttrValue::from(2.0).as_number(), Some(2.0));
        assert_eq!(AttrValue::from(2.0).as_text(), None);
    }
}
