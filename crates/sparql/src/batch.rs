//! Columnar solution batches: the unit of data flow in the vectorized
//! evaluator.
//!
//! A [`Batch`] holds one fixed-width `u64` id column per variable slot
//! plus a validity bitmap per column, replacing the old row-at-a-time
//! `Vec<Option<u64>>` representation. Operators (scan, hash join, filter,
//! BIND, aggregate) consume and produce whole batches; per-row work in the
//! hot loops reduces to indexed loads and bit tests instead of `Option`
//! vectors allocated per solution.
//!
//! Two representation tricks keep batches cheap:
//!
//! * **lazy columns** — a column with no storage at all (`ids` and `valid`
//!   both empty) means *every row is unbound* for that slot, whatever the
//!   batch length. Scans produce batches that materialize only the slots
//!   the pattern binds; a join output materializes only the union of its
//!   inputs' bound slots. A column is backfilled with zero ids and zero
//!   validity words the first time a bound value lands in it.
//! * **word-packed validity** — validity is one bit per row in `u64`
//!   words, so "which rows bind this slot" checks are bit tests and
//!   "does this column bind anything" is a word-level `any`.
//!
//! Ordering is part of the contract: [`Batch::gather`],
//! [`Batch::append_gather`] and [`merge_gather`] preserve the order of
//! their selection/pair lists exactly, which is how the vectorized join
//! reproduces the row order of the sequential row-at-a-time engine
//! byte for byte (the QA differential harness depends on it).

/// One id column with a validity bitmap. The empty column (no storage)
/// represents "all rows unbound" for any batch length.
#[derive(Debug, Clone, Default)]
pub(crate) struct Column {
    /// Row ids; meaningful only where the validity bit is set. Either
    /// empty (lazy all-unbound column) or exactly `Batch::len` long.
    ids: Vec<u64>,
    /// One bit per row, little-endian within each word. Either empty or
    /// `Batch::len.div_ceil(64)` words.
    valid: Vec<u64>,
}

#[inline]
fn words(len: usize) -> usize {
    len.div_ceil(64)
}

impl Column {
    /// Whether this column has storage. An unmaterialized column is
    /// all-unbound by definition.
    #[inline]
    pub(crate) fn materialized(&self) -> bool {
        !self.valid.is_empty()
    }

    /// Whether this column binds any row at all.
    #[inline]
    pub(crate) fn any_valid(&self) -> bool {
        self.valid.iter().any(|w| *w != 0)
    }

    /// Whether row `i` binds this slot.
    #[inline]
    pub(crate) fn is_valid(&self, i: usize) -> bool {
        self.valid
            .get(i >> 6)
            .is_some_and(|w| w >> (i & 63) & 1 == 1)
    }

    /// The id bound at row `i`, if any.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> Option<u64> {
        if self.is_valid(i) {
            Some(self.ids[i])
        } else {
            None
        }
    }

    /// The id at row `i` without the validity check. Only correct when the
    /// caller has already established the row is valid (e.g. via the join
    /// group mask).
    #[inline]
    pub(crate) fn id_unchecked(&self, i: usize) -> u64 {
        self.ids[i]
    }

    /// Backfill storage for `len` all-unbound rows.
    fn materialize(&mut self, len: usize) {
        self.ids.resize(len, 0);
        self.valid.resize(words(len), 0);
    }

    /// Append one value to a column currently `len_before` rows long.
    /// Pushing `None` onto an unmaterialized column keeps it lazy.
    #[inline]
    fn push(&mut self, len_before: usize, v: Option<u64>) {
        match v {
            None if !self.materialized() && self.ids.is_empty() => {}
            None => {
                self.materialize(len_before);
                self.ids.push(0);
                if len_before & 63 == 0 {
                    self.valid.push(0);
                }
            }
            Some(id) => {
                self.materialize(len_before);
                self.ids.push(id);
                if len_before & 63 == 0 {
                    self.valid.push(1);
                } else {
                    *self.valid.last_mut().expect("materialized") |= 1 << (len_before & 63);
                }
            }
        }
    }

    /// Append `src[sel]` to a column currently `len_before` rows long.
    fn append_gather(&mut self, len_before: usize, src: &Column, sel: &[u32]) {
        if !src.materialized() {
            if self.materialized() {
                self.materialize(len_before + sel.len());
            }
            return;
        }
        for (off, &i) in sel.iter().enumerate() {
            self.push(len_before + off, src.get(i as usize));
        }
    }

    /// Append all of `other` (of length `other_len`) to a column currently
    /// `len_before` rows long.
    fn append(&mut self, len_before: usize, other: &Column, other_len: usize) {
        if !other.materialized() {
            if self.materialized() {
                self.materialize(len_before + other_len);
            }
            return;
        }
        for i in 0..other_len {
            self.push(len_before + i, other.get(i));
        }
    }
}

/// Incremental [`Column`] construction without knowing the length upfront.
/// Stays lazy (zero allocation) while only `None` values are pushed.
#[derive(Default)]
pub(crate) struct ColumnBuilder {
    col: Column,
    len: usize,
}

impl ColumnBuilder {
    pub(crate) fn new() -> Self {
        ColumnBuilder::default()
    }

    #[inline]
    pub(crate) fn push(&mut self, v: Option<u64>) {
        self.col.push(self.len, v);
        self.len += 1;
    }

    pub(crate) fn finish(self) -> Column {
        self.col
    }
}

/// A batch of solutions: `len` rows over one column per variable slot.
#[derive(Debug, Clone, Default)]
pub(crate) struct Batch {
    len: usize,
    cols: Vec<Column>,
}

impl Batch {
    /// An empty batch of the given width.
    pub(crate) fn new(width: usize) -> Batch {
        Batch {
            len: 0,
            cols: vec![Column::default(); width],
        }
    }

    /// A batch of `len` all-unbound rows (every column lazy).
    pub(crate) fn with_len(width: usize, len: usize) -> Batch {
        Batch {
            len,
            cols: vec![Column::default(); width],
        }
    }

    /// The evaluation entry state: one all-unbound row.
    pub(crate) fn seed(width: usize) -> Batch {
        Batch::with_len(width, 1)
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    pub(crate) fn width(&self) -> usize {
        self.cols.len()
    }

    /// Approximate in-memory size: id words plus validity words across
    /// the materialized columns (lazy columns hold nothing). Feeds the
    /// peak-batch-bytes query accounting.
    pub(crate) fn approx_bytes(&self) -> u64 {
        self.cols
            .iter()
            .map(|c| (c.ids.len() + c.valid.len()) as u64 * 8)
            .sum()
    }

    #[inline]
    pub(crate) fn col(&self, slot: usize) -> &Column {
        &self.cols[slot]
    }

    /// The id bound at (`row`, `slot`), if any.
    #[inline]
    pub(crate) fn get(&self, row: usize, slot: usize) -> Option<u64> {
        self.cols[slot].get(row)
    }

    /// Whether row `i` binds nothing at all (the pristine seed state).
    pub(crate) fn row_all_unbound(&self, i: usize) -> bool {
        self.cols.iter().all(|c| !c.is_valid(i))
    }

    /// Copy row `i` out as an option-per-slot row (boundary interop with
    /// the row-wise helpers: VALUES substitution, decoded scans).
    pub(crate) fn row(&self, i: usize) -> Vec<Option<u64>> {
        self.cols.iter().map(|c| c.get(i)).collect()
    }

    /// Append one option-per-slot row.
    pub(crate) fn push_row(&mut self, row: &[Option<u64>]) {
        debug_assert_eq!(row.len(), self.cols.len());
        for (col, v) in self.cols.iter_mut().zip(row) {
            col.push(self.len, *v);
        }
        self.len += 1;
    }

    /// Install a fully-valid id column at `slot` (scan output). The vector
    /// length must equal the batch length.
    pub(crate) fn set_column(&mut self, slot: usize, ids: Vec<u64>) {
        debug_assert_eq!(ids.len(), self.len);
        let mut valid = vec![u64::MAX; words(self.len)];
        if self.len & 63 != 0 {
            if let Some(last) = valid.last_mut() {
                *last = (1u64 << (self.len & 63)) - 1;
            }
        }
        self.cols[slot] = Column { ids, valid };
    }

    /// Replace the column at `slot` wholesale (BIND output).
    pub(crate) fn set_col(&mut self, slot: usize, col: Column) {
        self.cols[slot] = col;
    }

    /// Bind `slot` to the row index in every row (LeftJoin provenance tag).
    pub(crate) fn fill_iota(&mut self, slot: usize) {
        let ids: Vec<u64> = (0..self.len as u64).collect();
        self.set_column(slot, ids);
    }

    /// Reset `slot` to all-unbound.
    pub(crate) fn clear_column(&mut self, slot: usize) {
        self.cols[slot] = Column::default();
    }

    /// Which slots are bound in at least one row.
    pub(crate) fn bound_slots(&self) -> Vec<bool> {
        self.cols.iter().map(Column::any_valid).collect()
    }

    /// Whether every row binds `slot` (word-level; `false` when empty).
    pub(crate) fn binds_every_row(&self, slot: usize) -> bool {
        let valid = &self.cols[slot].valid;
        let full = self.len / 64;
        let tail = self.len & 63;
        self.len > 0
            && valid.len() == words(self.len)
            && valid[..full].iter().all(|w| *w == u64::MAX)
            && (tail == 0 || valid[full] | !((1u64 << tail) - 1) == u64::MAX)
    }

    /// The batch containing exactly the selected rows, in selection order.
    pub(crate) fn gather(&self, sel: &[u32]) -> Batch {
        let mut out = Batch::new(self.width());
        out.append_gather(self, sel);
        out
    }

    /// Append the selected rows of `src`, in selection order.
    pub(crate) fn append_gather(&mut self, src: &Batch, sel: &[u32]) {
        debug_assert_eq!(self.width(), src.width());
        for (col, s) in self.cols.iter_mut().zip(&src.cols) {
            col.append_gather(self.len, s, sel);
        }
        self.len += sel.len();
    }

    /// Append all rows of `other` (UNION / OPTIONAL concatenation).
    pub(crate) fn append(&mut self, other: &Batch) {
        debug_assert_eq!(self.width(), other.width());
        for (col, o) in self.cols.iter_mut().zip(&other.cols) {
            col.append(self.len, o, other.len);
        }
        self.len += other.len;
    }
}

/// The join merge: one output row per `(probe row, build row)` pair, in
/// pair order. Per slot, the probe value wins where bound; otherwise the
/// build value fills in — exactly the row-at-a-time `if slot.is_none()
/// { *slot = *v }` merge, vectorized per column.
pub(crate) fn merge_gather(probe: &Batch, build: &Batch, pairs: &[(u32, u32)]) -> Batch {
    debug_assert_eq!(probe.width(), build.width());
    let mut out = Batch::with_len(probe.width(), pairs.len());
    for slot in 0..probe.width() {
        let p = probe.col(slot);
        let b = build.col(slot);
        match (p.materialized(), b.materialized()) {
            (false, false) => {}
            (true, false) => {
                let mut col = ColumnBuilder::new();
                for &(pi, _) in pairs {
                    col.push(p.get(pi as usize));
                }
                out.set_col(slot, col.finish());
            }
            (false, true) => {
                let mut col = ColumnBuilder::new();
                for &(_, bi) in pairs {
                    col.push(b.get(bi as usize));
                }
                out.set_col(slot, col.finish());
            }
            (true, true) => {
                let mut col = ColumnBuilder::new();
                for &(pi, bi) in pairs {
                    col.push(p.get(pi as usize).or_else(|| b.get(bi as usize)));
                }
                out.set_col(slot, col.finish());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch_rows(b: &Batch) -> Vec<Vec<Option<u64>>> {
        (0..b.len()).map(|i| b.row(i)).collect()
    }

    #[test]
    fn seed_is_one_unbound_row() {
        let b = Batch::seed(3);
        assert_eq!(b.len(), 1);
        assert!(b.row_all_unbound(0));
        assert_eq!(b.row(0), vec![None, None, None]);
        assert!(!b.col(0).materialized());
    }

    #[test]
    fn push_row_materializes_lazily() {
        let mut b = Batch::new(3);
        b.push_row(&[None, None, None]);
        b.push_row(&[None, Some(7), None]);
        b.push_row(&[None, None, None]);
        assert!(!b.col(0).materialized(), "untouched column stays lazy");
        assert!(b.col(1).materialized());
        assert_eq!(b.get(0, 1), None, "backfilled rows read as unbound");
        assert_eq!(b.get(1, 1), Some(7));
        assert_eq!(b.get(2, 1), None);
        assert_eq!(b.bound_slots(), vec![false, true, false]);
    }

    #[test]
    fn validity_crosses_word_boundaries() {
        let mut b = Batch::new(1);
        for i in 0..130u64 {
            let v = if i % 3 == 0 { Some(i) } else { None };
            b.push_row(&[v]);
        }
        for i in 0..130 {
            let expected = (i % 3 == 0).then_some(i as u64);
            assert_eq!(b.get(i, 0), expected, "row {i}");
        }
    }

    #[test]
    fn set_column_is_fully_valid() {
        let mut b = Batch::with_len(2, 70);
        b.set_column(1, (0..70).collect());
        assert!(b.col(1).is_valid(69));
        assert!(!b.col(1).is_valid(70), "past-the-end bit stays clear");
        assert_eq!(b.get(69, 1), Some(69));
        assert_eq!(b.get(3, 0), None);
    }

    #[test]
    fn gather_preserves_order_and_laziness() {
        let mut b = Batch::new(2);
        for i in 0..10u64 {
            b.push_row(&[Some(i), None]);
        }
        let g = b.gather(&[7, 1, 1, 4]);
        assert_eq!(
            batch_rows(&g),
            vec![
                vec![Some(7), None],
                vec![Some(1), None],
                vec![Some(1), None],
                vec![Some(4), None]
            ]
        );
        assert!(!g.col(1).materialized());
    }

    #[test]
    fn append_mixes_lazy_and_materialized() {
        let mut a = Batch::new(2);
        a.push_row(&[Some(1), None]);
        let mut b = Batch::new(2);
        b.push_row(&[None, Some(2)]);
        a.append(&b);
        assert_eq!(
            batch_rows(&a),
            vec![vec![Some(1), None], vec![None, Some(2)]]
        );
    }

    #[test]
    fn fill_iota_and_clear() {
        let mut b = Batch::with_len(2, 4);
        b.fill_iota(1);
        assert_eq!(b.get(3, 1), Some(3));
        b.clear_column(1);
        assert_eq!(b.get(3, 1), None);
        assert!(!b.col(1).materialized());
    }

    #[test]
    fn merge_gather_probe_wins() {
        // probe binds slot 0 (and slot 1 on row 0 only); build binds slot 1.
        let mut probe = Batch::new(3);
        probe.push_row(&[Some(10), Some(99), None]);
        probe.push_row(&[Some(11), None, None]);
        let mut build = Batch::new(3);
        build.push_row(&[None, Some(20), None]);
        build.push_row(&[None, Some(21), None]);
        let out = merge_gather(&probe, &build, &[(0, 1), (1, 0), (1, 1)]);
        assert_eq!(
            batch_rows(&out),
            vec![
                vec![Some(10), Some(99), None], // probe value wins
                vec![Some(11), Some(20), None], // filled from build
                vec![Some(11), Some(21), None],
            ]
        );
        assert!(!out.col(2).materialized());
    }

    #[test]
    fn binds_every_row_checks_each_word() {
        for len in [1usize, 63, 64, 65, 130] {
            let mut b = Batch::with_len(2, len);
            assert!(!b.binds_every_row(0), "len {len}: lazy column");
            b.fill_iota(0);
            assert!(b.binds_every_row(0), "len {len}");
            for hole in [0, len / 2, len - 1] {
                let mut c = Batch::new(2);
                for i in 0..len {
                    c.push_row(&[(i != hole).then_some(i as u64), None]);
                }
                assert!(!c.binds_every_row(0), "len {len}, hole {hole}");
            }
        }
        assert!(!Batch::new(1).binds_every_row(0));
    }
}
