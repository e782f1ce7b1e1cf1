//! Time discretization (§III-C).
//!
//! Grade10 discretizes time into fixed-length timeslices, assuming the system
//! is in steady state within a slice: resource consumption is constant and
//! phases start/end only at slice boundaries. The slice duration is the key
//! knob trading analysis granularity against data volume; the paper uses
//! 10 ms in practice.

use serde::{Deserialize, Serialize};

/// A point in time, nanoseconds since the start of the analyzed execution.
pub type Nanos = u64;

/// Nanoseconds per millisecond, handy for building test times.
pub const MILLIS: Nanos = 1_000_000;

/// A uniform grid of timeslices covering `[origin, origin + n * slice)`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimesliceGrid {
    origin: Nanos,
    slice: Nanos,
    num_slices: usize,
}

impl TimesliceGrid {
    /// Builds a grid of `slice`-length slices from `origin` that covers
    /// through `end` (at least one slice).
    pub fn covering(origin: Nanos, end: Nanos, slice: Nanos) -> Self {
        assert!(slice > 0, "slice duration must be positive");
        assert!(end >= origin, "grid end before origin");
        let span = end - origin;
        let num_slices = (span.div_ceil(slice)).max(1) as usize;
        TimesliceGrid {
            origin,
            slice,
            num_slices,
        }
    }

    /// Slice duration in nanoseconds.
    pub fn slice_nanos(&self) -> Nanos {
        self.slice
    }

    /// Slice duration in seconds.
    pub fn slice_secs(&self) -> f64 {
        self.slice as f64 / 1e9
    }

    /// Number of slices.
    pub fn num_slices(&self) -> usize {
        self.num_slices
    }

    /// Grid origin.
    pub fn origin(&self) -> Nanos {
        self.origin
    }

    /// Index of the slice containing `t`, clamped to the grid.
    pub fn slice_of(&self, t: Nanos) -> usize {
        if t <= self.origin {
            return 0;
        }
        (((t - self.origin) / self.slice) as usize).min(self.num_slices - 1)
    }

    /// Nearest slice *boundary* index for `t` (0 ..= num_slices). Phase
    /// start/ends snap to boundaries per the steady-state assumption.
    pub fn snap(&self, t: Nanos) -> usize {
        if t <= self.origin {
            return 0;
        }
        let idx = ((t - self.origin + self.slice / 2) / self.slice) as usize;
        idx.min(self.num_slices)
    }

    /// `[start, end)` of slice `i` in nanoseconds.
    pub fn bounds(&self, i: usize) -> (Nanos, Nanos) {
        assert!(i < self.num_slices, "slice {i} out of range");
        let s = self.origin + self.slice * i as Nanos;
        (s, s + self.slice)
    }

    /// Fraction of slice `i` overlapped by the interval `[a, b)`.
    pub fn overlap_fraction(&self, i: usize, a: Nanos, b: Nanos) -> f64 {
        let (s, e) = self.bounds(i);
        let lo = a.max(s);
        let hi = b.min(e);
        if hi <= lo {
            0.0
        } else {
            (hi - lo) as f64 / self.slice as f64
        }
    }

    /// The slice-index range `[first, last)` a `[a, b)` interval overlaps,
    /// clamped to the grid. Empty range if the interval is empty.
    pub fn slice_range(&self, a: Nanos, b: Nanos) -> (usize, usize) {
        if b <= a {
            return (0, 0);
        }
        let first = self.slice_of(a);
        let last = if b <= self.origin {
            0
        } else {
            ((b - self.origin).div_ceil(self.slice) as usize).min(self.num_slices)
        };
        (first, last.max(first))
    }
}

/// A dense per-metric matrix over the timeslice grid: `rows × num_slices`
/// `f64` cells in **one contiguous buffer**, row-major. This is the
/// struct-of-arrays layout the columnar attribution core computes in: each
/// metric (consumption, exact demand, variable demand, unattributed) is one
/// `MetricGrid` whose row index is the resource (or phase) and whose rows
/// are contiguous `&[f64]` slices, so the per-slice kernels (`waterfill`,
/// upsampling, attribution) run as tight branch-light loops with no pointer
/// chasing between slices of the same metric.
///
/// `grid[r]` indexes a whole row as `&[f64]`, so consumers written against
/// the historical `Vec<Vec<f64>>` layout (`grid[r][s]`, `grid[r].iter()`)
/// compile unchanged. `Debug` renders exactly like the nested layout
/// (`[[a, b], [c, d]]`): determinism suites and goldens that dump profiles
/// byte-compare across the layout migration.
#[derive(Clone, PartialEq)]
pub struct MetricGrid {
    data: Vec<f64>,
    num_slices: usize,
}

impl MetricGrid {
    /// An all-zero matrix of `rows × num_slices` cells.
    pub fn zeros(rows: usize, num_slices: usize) -> Self {
        MetricGrid {
            data: vec![0.0; rows * num_slices],
            num_slices,
        }
    }

    /// A matrix with no rows (the empty-profile fallback).
    pub fn empty() -> Self {
        MetricGrid {
            data: Vec::new(),
            num_slices: 0,
        }
    }

    /// Converts the historical nested layout; every row must have the same
    /// length.
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Self {
        let num_slices = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(rows.len() * num_slices);
        for row in rows {
            assert_eq!(row.len(), num_slices, "ragged rows in MetricGrid");
            data.extend_from_slice(&row);
        }
        MetricGrid { data, num_slices }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.data.len().checked_div(self.num_slices).unwrap_or(0)
    }

    /// Number of slices (columns) per row.
    pub fn num_slices(&self) -> usize {
        self.num_slices
    }

    /// One row as a contiguous slice.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.num_slices..(r + 1) * self.num_slices]
    }

    /// One row as a mutable contiguous slice.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.num_slices..(r + 1) * self.num_slices]
    }

    /// Iterates rows in order.
    pub fn rows(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.num_slices.max(1)).take(self.num_rows())
    }

    /// Mutable row iterator (disjoint rows, suitable for fan-out).
    pub fn rows_mut(&mut self) -> impl Iterator<Item = &mut [f64]> {
        let ns = self.num_slices.max(1);
        let n = self.num_rows();
        self.data.chunks_exact_mut(ns).take(n)
    }

    /// Appends the rows of `other` (row-axis concatenation, used when
    /// merging per-machine profiles). Slice counts must agree unless one
    /// side has no rows.
    pub fn extend_rows(&mut self, other: MetricGrid) {
        if other.num_rows() == 0 {
            return;
        }
        if self.num_rows() == 0 {
            *self = other;
            return;
        }
        assert_eq!(
            self.num_slices, other.num_slices,
            "merged MetricGrids must share a slice count"
        );
        self.data.extend_from_slice(&other.data);
    }
}

impl std::ops::Index<usize> for MetricGrid {
    type Output = [f64];
    fn index(&self, r: usize) -> &[f64] {
        self.row(r)
    }
}

impl std::ops::IndexMut<usize> for MetricGrid {
    fn index_mut(&mut self, r: usize) -> &mut [f64] {
        self.row_mut(r)
    }
}

impl std::fmt::Debug for MetricGrid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.rows()).finish()
    }
}

/// A dense `rows × num_slices` flag matrix in one contiguous buffer — the
/// boolean companion of [`MetricGrid`], used for the per-cell "consumption
/// is an estimate" flags. Same indexing and `Debug` contract.
#[derive(Clone, PartialEq, Eq)]
pub struct BoolGrid {
    data: Vec<bool>,
    num_slices: usize,
}

impl BoolGrid {
    /// An all-false matrix of `rows × num_slices` cells.
    pub fn falses(rows: usize, num_slices: usize) -> Self {
        BoolGrid {
            data: vec![false; rows * num_slices],
            num_slices,
        }
    }

    /// A matrix with no rows.
    pub fn empty() -> Self {
        BoolGrid {
            data: Vec::new(),
            num_slices: 0,
        }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.data.len().checked_div(self.num_slices).unwrap_or(0)
    }

    /// Number of slices (columns) per row.
    pub fn num_slices(&self) -> usize {
        self.num_slices
    }

    /// One row as a contiguous slice.
    pub fn row(&self, r: usize) -> &[bool] {
        &self.data[r * self.num_slices..(r + 1) * self.num_slices]
    }

    /// One row as a mutable contiguous slice.
    pub fn row_mut(&mut self, r: usize) -> &mut [bool] {
        &mut self.data[r * self.num_slices..(r + 1) * self.num_slices]
    }

    /// Iterates rows in order.
    pub fn rows(&self) -> impl Iterator<Item = &[bool]> {
        self.data.chunks_exact(self.num_slices.max(1)).take(self.num_rows())
    }

    /// Number of `true` cells.
    pub fn count_set(&self) -> usize {
        self.data.iter().filter(|&&b| b).count()
    }

    /// Appends the rows of `other` (row-axis concatenation).
    pub fn extend_rows(&mut self, other: BoolGrid) {
        if other.num_rows() == 0 {
            return;
        }
        if self.num_rows() == 0 {
            *self = other;
            return;
        }
        assert_eq!(
            self.num_slices, other.num_slices,
            "merged BoolGrids must share a slice count"
        );
        self.data.extend_from_slice(&other.data);
    }
}

impl std::ops::Index<usize> for BoolGrid {
    type Output = [bool];
    fn index(&self, r: usize) -> &[bool] {
        self.row(r)
    }
}

impl std::ops::IndexMut<usize> for BoolGrid {
    fn index_mut(&mut self, r: usize) -> &mut [bool] {
        self.row_mut(r)
    }
}

impl std::fmt::Debug for BoolGrid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.rows()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_100ms_10ms() -> TimesliceGrid {
        TimesliceGrid::covering(0, 100 * MILLIS, 10 * MILLIS)
    }

    #[test]
    fn covering_counts_slices() {
        let g = grid_100ms_10ms();
        assert_eq!(g.num_slices(), 10);
        // Non-multiple span rounds up.
        let g2 = TimesliceGrid::covering(0, 95 * MILLIS, 10 * MILLIS);
        assert_eq!(g2.num_slices(), 10);
        // Degenerate span still has a slice.
        let g3 = TimesliceGrid::covering(5, 5, 10);
        assert_eq!(g3.num_slices(), 1);
    }

    #[test]
    fn slice_of_and_bounds() {
        let g = grid_100ms_10ms();
        assert_eq!(g.slice_of(0), 0);
        assert_eq!(g.slice_of(10 * MILLIS), 1);
        assert_eq!(g.slice_of(99 * MILLIS), 9);
        assert_eq!(g.slice_of(1000 * MILLIS), 9); // clamped
        assert_eq!(g.bounds(3), (30 * MILLIS, 40 * MILLIS));
    }

    #[test]
    fn snap_rounds_to_nearest_boundary() {
        let g = grid_100ms_10ms();
        assert_eq!(g.snap(14 * MILLIS), 1);
        assert_eq!(g.snap(15 * MILLIS), 2);
        assert_eq!(g.snap(16 * MILLIS), 2);
        assert_eq!(g.snap(100 * MILLIS), 10);
        assert_eq!(g.snap(9999 * MILLIS), 10); // clamped to boundary count
    }

    #[test]
    fn overlap_fraction_partial() {
        let g = grid_100ms_10ms();
        assert_eq!(g.overlap_fraction(0, 0, 10 * MILLIS), 1.0);
        assert_eq!(g.overlap_fraction(0, 5 * MILLIS, 20 * MILLIS), 0.5);
        assert_eq!(g.overlap_fraction(1, 5 * MILLIS, 12 * MILLIS), 0.2);
        assert_eq!(g.overlap_fraction(5, 0, 10 * MILLIS), 0.0);
    }

    #[test]
    fn slice_range_clamps() {
        let g = grid_100ms_10ms();
        assert_eq!(g.slice_range(0, 30 * MILLIS), (0, 3));
        assert_eq!(g.slice_range(25 * MILLIS, 45 * MILLIS), (2, 5));
        assert_eq!(g.slice_range(95 * MILLIS, 500 * MILLIS), (9, 10));
        assert_eq!(g.slice_range(50 * MILLIS, 50 * MILLIS), (0, 0));
    }

    #[test]
    fn metric_grid_debug_matches_nested_layout() {
        let nested = vec![vec![1.0, 2.5], vec![0.0, -3.0]];
        let grid = MetricGrid::from_rows(nested.clone());
        assert_eq!(format!("{grid:?}"), format!("{nested:?}"));
        assert_eq!(format!("{:?}", MetricGrid::empty()), "[]");
        let empty_rows: Vec<Vec<f64>> = Vec::new();
        assert_eq!(format!("{:?}", MetricGrid::empty()), format!("{empty_rows:?}"));
    }

    #[test]
    fn metric_grid_indexing_and_rows() {
        let mut g = MetricGrid::zeros(3, 4);
        g[1][2] = 7.0;
        assert_eq!(g.num_rows(), 3);
        assert_eq!(g.num_slices(), 4);
        assert_eq!(g.row(1), &[0.0, 0.0, 7.0, 0.0]);
        assert_eq!(g.rows().count(), 3);
    }

    #[test]
    fn metric_grid_extend_rows_concatenates() {
        let mut a = MetricGrid::from_rows(vec![vec![1.0, 2.0]]);
        a.extend_rows(MetricGrid::from_rows(vec![vec![3.0, 4.0]]));
        assert_eq!(a.num_rows(), 2);
        assert_eq!(a.row(1), &[3.0, 4.0]);
        // Extending an empty grid adopts the other's shape.
        let mut e = MetricGrid::empty();
        e.extend_rows(a.clone());
        assert_eq!(e, a);
        a.extend_rows(MetricGrid::empty());
        assert_eq!(a.num_rows(), 2);
    }

    #[test]
    fn bool_grid_counts_and_debug() {
        let mut b = BoolGrid::falses(2, 3);
        b[0][1] = true;
        b[1][2] = true;
        assert_eq!(b.count_set(), 2);
        let nested = vec![vec![false, true, false], vec![false, false, true]];
        assert_eq!(format!("{b:?}"), format!("{nested:?}"));
    }

    #[test]
    fn nonzero_origin() {
        let g = TimesliceGrid::covering(100 * MILLIS, 200 * MILLIS, 10 * MILLIS);
        assert_eq!(g.num_slices(), 10);
        assert_eq!(g.slice_of(105 * MILLIS), 0);
        assert_eq!(g.slice_of(50 * MILLIS), 0); // clamped below origin
        assert_eq!(g.bounds(0).0, 100 * MILLIS);
    }
}
