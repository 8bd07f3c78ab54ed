//! Dense n-dimensional arrays with DAP hyperslab subsetting.

use std::fmt;

/// One dimension of a hyperslab: `start:stride:stop`, all inclusive, DAP
/// constraint-expression semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Range {
    pub start: usize,
    pub stride: usize,
    pub stop: usize,
}

impl Range {
    pub fn new(start: usize, stride: usize, stop: usize) -> Self {
        Range {
            start,
            stride: stride.max(1),
            stop,
        }
    }

    /// The whole extent of a dimension of length `len`.
    pub fn all(len: usize) -> Self {
        Range::new(0, 1, len.saturating_sub(1))
    }

    /// A single index.
    pub fn index(i: usize) -> Self {
        Range::new(i, 1, i)
    }

    /// Number of selected indices.
    pub fn count(&self) -> usize {
        if self.stop < self.start {
            0
        } else {
            (self.stop - self.start) / self.stride + 1
        }
    }

    /// Iterate the selected indices.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (self.start..=self.stop).step_by(self.stride)
    }
}

impl fmt::Display for Range {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.stride == 1 {
            write!(f, "[{}:{}]", self.start, self.stop)
        } else {
            write!(f, "[{}:{}:{}]", self.start, self.stride, self.stop)
        }
    }
}

/// A multi-dimensional selection, one [`Range`] per dimension.
pub type HyperSlab = Vec<Range>;

/// Error for shape mismatches and out-of-bounds access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeError(pub String);

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shape error: {}", self.0)
    }
}

impl std::error::Error for ShapeError {}

/// A dense, row-major f64 array. Missing values are NaN (the CF
/// `_FillValue` convention is applied on ingest).
#[derive(Debug, Clone, PartialEq)]
pub struct NdArray {
    shape: Vec<usize>,
    data: Vec<f64>,
}

impl NdArray {
    /// A zero-filled array.
    pub fn zeros(shape: Vec<usize>) -> Self {
        let len = shape.iter().product();
        NdArray {
            shape,
            data: vec![0.0; len],
        }
    }

    /// A NaN-filled (all-missing) array.
    pub fn filled_nan(shape: Vec<usize>) -> Self {
        let len = shape.iter().product();
        NdArray {
            shape,
            data: vec![f64::NAN; len],
        }
    }

    /// Wrap existing data; `data.len()` must equal the shape product.
    pub fn from_vec(shape: Vec<usize>, data: Vec<f64>) -> Result<Self, ShapeError> {
        // Checked: the shape may come off the wire.
        let expected = shape.iter().try_fold(1usize, |n, &d| n.checked_mul(d));
        if expected != Some(data.len()) {
            return Err(ShapeError(format!(
                "data length {} does not match shape {:?}",
                data.len(),
                shape
            )));
        }
        Ok(NdArray { shape, data })
    }

    /// A 1-D array.
    pub fn vector(data: Vec<f64>) -> Self {
        NdArray {
            shape: vec![data.len()],
            data,
        }
    }

    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn data(&self) -> &[f64] {
        &self.data
    }

    fn offset(&self, index: &[usize]) -> Result<usize, ShapeError> {
        if index.len() != self.shape.len() {
            return Err(ShapeError(format!(
                "index rank {} != array rank {}",
                index.len(),
                self.shape.len()
            )));
        }
        let mut off = 0usize;
        for (i, (&ix, &dim)) in index.iter().zip(&self.shape).enumerate() {
            if ix >= dim {
                return Err(ShapeError(format!(
                    "index {ix} out of bounds for dimension {i} (len {dim})"
                )));
            }
            off = off * dim + ix;
        }
        Ok(off)
    }

    pub fn get(&self, index: &[usize]) -> Result<f64, ShapeError> {
        Ok(self.data[self.offset(index)?])
    }

    pub fn set(&mut self, index: &[usize], value: f64) -> Result<(), ShapeError> {
        let off = self.offset(index)?;
        self.data[off] = value;
        Ok(())
    }

    /// Extract a hyperslab as a new (dense, row-major) array.
    pub fn slice(&self, slab: &[Range]) -> Result<NdArray, ShapeError> {
        if slab.len() != self.shape.len() {
            return Err(ShapeError(format!(
                "hyperslab rank {} != array rank {}",
                slab.len(),
                self.shape.len()
            )));
        }
        for (i, (r, &dim)) in slab.iter().zip(&self.shape).enumerate() {
            if r.stop >= dim || r.start > r.stop {
                return Err(ShapeError(format!(
                    "range {r} out of bounds for dimension {i} (len {dim})"
                )));
            }
        }
        let out_shape: Vec<usize> = slab.iter().map(Range::count).collect();
        let out_len: usize = out_shape.iter().product();
        let mut out = Vec::with_capacity(out_len);
        let mut index: Vec<usize> = slab.iter().map(|r| r.start).collect();
        'outer: loop {
            out.push(self.data[self.offset(&index).expect("validated above")]);
            // Odometer increment over the slab.
            for d in (0..slab.len()).rev() {
                index[d] += slab[d].stride;
                if index[d] <= slab[d].stop {
                    continue 'outer;
                }
                index[d] = slab[d].start;
            }
            break;
        }
        NdArray::from_vec(out_shape, out)
    }

    /// Mean of the non-NaN values, or NaN when all values are missing.
    pub fn mean(&self) -> f64 {
        let (sum, n) = self
            .data
            .iter()
            .filter(|v| !v.is_nan())
            .fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
        if n == 0 {
            f64::NAN
        } else {
            sum / n as f64
        }
    }

    /// Minimum of the non-NaN values.
    pub fn min(&self) -> f64 {
        self.data
            .iter()
            .copied()
            .filter(|v| !v.is_nan())
            .fold(f64::NAN, |a, b| if a.is_nan() || b < a { b } else { a })
    }

    /// Maximum of the non-NaN values.
    pub fn max(&self) -> f64 {
        self.data
            .iter()
            .copied()
            .filter(|v| !v.is_nan())
            .fold(f64::NAN, |a, b| if a.is_nan() || b > a { b } else { a })
    }

    /// Number of non-NaN values.
    pub fn valid_count(&self) -> usize {
        self.data.iter().filter(|v| !v.is_nan()).count()
    }

    /// Concatenate along axis 0. All other dimensions must agree.
    pub fn concat0(parts: &[&NdArray]) -> Result<NdArray, ShapeError> {
        let first = parts.first().ok_or(ShapeError("empty concat".into()))?;
        let tail_shape = &first.shape[1..];
        let mut total0 = 0usize;
        for p in parts {
            if p.shape.len() != first.shape.len() || &p.shape[1..] != tail_shape {
                return Err(ShapeError(format!(
                    "incompatible shapes in concat: {:?} vs {:?}",
                    first.shape, p.shape
                )));
            }
            total0 += p.shape[0];
        }
        let mut shape = first.shape.clone();
        shape[0] = total0;
        let mut data = Vec::with_capacity(shape.iter().product());
        for p in parts {
            data.extend_from_slice(&p.data);
        }
        NdArray::from_vec(shape, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arr234() -> NdArray {
        // shape (2,3,4), values 0..24
        NdArray::from_vec(vec![2, 3, 4], (0..24).map(f64::from).collect()).unwrap()
    }

    #[test]
    fn indexing_row_major() {
        let a = arr234();
        assert_eq!(a.get(&[0, 0, 0]).unwrap(), 0.0);
        assert_eq!(a.get(&[0, 0, 3]).unwrap(), 3.0);
        assert_eq!(a.get(&[0, 1, 0]).unwrap(), 4.0);
        assert_eq!(a.get(&[1, 0, 0]).unwrap(), 12.0);
        assert_eq!(a.get(&[1, 2, 3]).unwrap(), 23.0);
        assert!(a.get(&[2, 0, 0]).is_err());
        assert!(a.get(&[0, 0]).is_err());
    }

    #[test]
    fn set_and_get() {
        let mut a = NdArray::zeros(vec![3, 3]);
        a.set(&[1, 2], 7.5).unwrap();
        assert_eq!(a.get(&[1, 2]).unwrap(), 7.5);
        assert!(a.set(&[3, 0], 1.0).is_err());
    }

    #[test]
    fn slicing_matches_manual() {
        let a = arr234();
        // [0:1][1:2][1:2:3] → shape (2,2,2)
        let s = a
            .slice(&[
                Range::new(0, 1, 1),
                Range::new(1, 1, 2),
                Range::new(1, 2, 3),
            ])
            .unwrap();
        assert_eq!(s.shape(), &[2, 2, 2]);
        assert_eq!(s.data(), &[5.0, 7.0, 9.0, 11.0, 17.0, 19.0, 21.0, 23.0]);
    }

    #[test]
    fn single_index_slice() {
        let a = arr234();
        let s = a
            .slice(&[Range::index(1), Range::all(3), Range::all(4)])
            .unwrap();
        assert_eq!(s.shape(), &[1, 3, 4]);
        assert_eq!(s.get(&[0, 0, 0]).unwrap(), 12.0);
    }

    #[test]
    fn bad_slices_error() {
        let a = arr234();
        assert!(a.slice(&[Range::all(2)]).is_err()); // wrong rank
        assert!(a
            .slice(&[Range::new(0, 1, 2), Range::all(3), Range::all(4)])
            .is_err()); // stop out of bounds
    }

    #[test]
    fn statistics_ignore_nan() {
        let a = NdArray::from_vec(vec![4], vec![1.0, f64::NAN, 3.0, 5.0]).unwrap();
        assert_eq!(a.mean(), 3.0);
        assert_eq!(a.min(), 1.0);
        assert_eq!(a.max(), 5.0);
        assert_eq!(a.valid_count(), 3);
        let empty = NdArray::filled_nan(vec![3]);
        assert!(empty.mean().is_nan());
    }

    #[test]
    fn concat_along_time() {
        let a = NdArray::from_vec(vec![1, 2], vec![1.0, 2.0]).unwrap();
        let b = NdArray::from_vec(vec![2, 2], vec![3.0, 4.0, 5.0, 6.0]).unwrap();
        let c = NdArray::concat0(&[&a, &b]).unwrap();
        assert_eq!(c.shape(), &[3, 2]);
        assert_eq!(c.get(&[2, 1]).unwrap(), 6.0);
        let bad = NdArray::zeros(vec![1, 3]);
        assert!(NdArray::concat0(&[&a, &bad]).is_err());
    }

    #[test]
    fn range_display_and_count() {
        assert_eq!(Range::new(0, 1, 9).to_string(), "[0:9]");
        assert_eq!(Range::new(0, 2, 9).to_string(), "[0:2:9]");
        assert_eq!(Range::new(0, 2, 9).count(), 5);
        assert_eq!(Range::new(3, 1, 3).count(), 1);
        assert_eq!(Range::new(5, 1, 3).count(), 0);
    }

    #[test]
    fn from_vec_validates() {
        assert!(NdArray::from_vec(vec![2, 2], vec![0.0; 3]).is_err());
    }
}
