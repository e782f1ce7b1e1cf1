//! Time discretization (§III-C).
//!
//! Grade10 discretizes time into fixed-length timeslices, assuming the system
//! is in steady state within a slice: resource consumption is constant and
//! phases start/end only at slice boundaries. The slice duration is the key
//! knob trading analysis granularity against data volume; the paper uses
//! 10 ms in practice.

use std::marker::PhantomData;

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

/// A dense matrix over the timeslice grid: `rows × num_slices` cells in
/// **one contiguous buffer**, row-major. This is the struct-of-arrays
/// layout the columnar attribution core computes in: each metric
/// (consumption, exact demand, variable demand, unattributed) is one
/// [`MetricGrid`] whose row index is the resource (or phase) and whose rows
/// are contiguous `&[f64]` slices, so the per-slice kernels (`waterfill`,
/// upsampling, attribution) run as tight branch-light loops with no pointer
/// chasing between slices of the same metric.
///
/// `S` is the storage: an owned `Vec<T>` ([`MetricGrid`], [`BoolGrid`]), or a
/// borrowed run of consecutive rows of one ([`Rows`], [`RowsMut`]), so a
/// kernel can fill one block of a larger grid in place.
///
/// `grid[r]` indexes a whole row as `&[T]`, so consumers written against
/// the historical `Vec<Vec<f64>>` layout (`grid[r][s]`, `grid[r].iter()`)
/// compile unchanged. `Debug` renders exactly like the nested layout
/// (`[[a, b], [c, d]]`): determinism suites and goldens that dump profiles
/// byte-compare across the layout migration.
#[derive(Clone, PartialEq, Eq)]
pub struct Grid<T, S = Vec<T>> {
    data: S,
    num_slices: usize,
    cell: PhantomData<T>,
}

/// Per-metric `f64` cells: consumption, demand, unattributed.
pub type MetricGrid = Grid<f64>;

/// Per-cell flags: the boolean companion of [`MetricGrid`], used for the
/// "consumption is an estimate" flags.
pub type BoolGrid = Grid<bool>;

/// Consecutive rows of a grid, borrowed.
pub type Rows<'g, T> = Grid<T, &'g [T]>;

/// Consecutive rows of a grid, borrowed mutably.
pub type RowsMut<'g, T> = Grid<T, &'g mut [T]>;

impl<T, S> Grid<T, S> {
    fn new(data: S, num_slices: usize) -> Self {
        Grid {
            data,
            num_slices,
            cell: PhantomData,
        }
    }

    /// Number of slices (columns) per row.
    pub fn num_slices(&self) -> usize {
        self.num_slices
    }
}

impl<T, S: AsRef<[T]>> Grid<T, S> {
    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.data
            .as_ref()
            .len()
            .checked_div(self.num_slices)
            .unwrap_or(0)
    }

    /// One row as a contiguous slice.
    pub fn row(&self, r: usize) -> &[T] {
        &self.data.as_ref()[r * self.num_slices..(r + 1) * self.num_slices]
    }

    /// Iterates rows in order.
    pub fn rows(&self) -> impl Iterator<Item = &[T]> {
        let n = self.num_rows();
        self.data
            .as_ref()
            .chunks_exact(self.num_slices.max(1))
            .take(n)
    }

    /// The same rows, borrowed.
    pub fn view(&self) -> Rows<'_, T> {
        Grid::new(self.data.as_ref(), self.num_slices)
    }
}

impl<T, S: AsRef<[T]> + AsMut<[T]>> Grid<T, S> {
    /// One row as a mutable contiguous slice.
    pub fn row_mut(&mut self, r: usize) -> &mut [T] {
        let ns = self.num_slices;
        &mut self.data.as_mut()[r * ns..(r + 1) * ns]
    }

    /// Mutable row iterator (disjoint rows, suitable for fan-out).
    pub fn rows_mut(&mut self) -> impl Iterator<Item = &mut [T]> {
        let (ns, n) = (self.num_slices.max(1), self.num_rows());
        self.data.as_mut().chunks_exact_mut(ns).take(n)
    }

    /// The same rows, borrowed mutably.
    pub fn view_mut(&mut self) -> RowsMut<'_, T> {
        Grid::new(self.data.as_mut(), self.num_slices)
    }

    /// Sets every cell to `value`.
    pub fn fill(&mut self, value: T)
    where
        T: Clone,
    {
        self.data.as_mut().fill(value);
    }

    /// Splits the rows into consecutive blocks of `sizes` rows each, which
    /// must add up to at most [`num_rows`](Self::num_rows).
    pub fn blocks_mut(&mut self, sizes: impl IntoIterator<Item = usize>) -> Vec<RowsMut<'_, T>> {
        let ns = self.num_slices;
        let mut rest = self.data.as_mut();
        let split = |n: usize| {
            let (block, tail) = std::mem::take(&mut rest).split_at_mut(n * ns);
            rest = tail;
            Grid::new(block, ns)
        };
        sizes.into_iter().map(split).collect()
    }
}

impl<T: Clone> Grid<T> {
    fn filled(rows: usize, num_slices: usize, value: T) -> Self {
        Grid::new(vec![value; rows * num_slices], num_slices)
    }

    /// A matrix with no rows (the empty-profile fallback).
    pub fn empty() -> Self {
        Grid::new(Vec::new(), 0)
    }

    /// Converts the historical nested layout; every row must have the same
    /// length.
    pub fn from_rows(rows: Vec<Vec<T>>) -> Self {
        let num_slices = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(rows.len() * num_slices);
        for row in rows {
            assert_eq!(row.len(), num_slices, "ragged rows in a grid");
            data.extend_from_slice(&row);
        }
        Grid::new(data, num_slices)
    }

    /// Keeps the rows `keep` accepts, in order, moving them up in place.
    pub fn retain_rows(&mut self, mut keep: impl FnMut(usize) -> bool)
    where
        T: Copy,
    {
        let ns = self.num_slices;
        let mut kept = 0;
        for r in 0..self.num_rows() {
            if keep(r) {
                self.data.copy_within(r * ns..(r + 1) * ns, kept * ns);
                kept += 1;
            }
        }
        self.data.truncate(kept * ns);
    }
}

impl MetricGrid {
    /// An all-zero matrix of `rows × num_slices` cells.
    pub fn zeros(rows: usize, num_slices: usize) -> Self {
        Grid::filled(rows, num_slices, 0.0)
    }
}

impl BoolGrid {
    /// An all-false matrix of `rows × num_slices` cells.
    pub fn falses(rows: usize, num_slices: usize) -> Self {
        Grid::filled(rows, num_slices, false)
    }
}

impl<S: AsRef<[bool]>> Grid<bool, S> {
    /// Number of `true` cells.
    pub fn count_set(&self) -> usize {
        self.data.as_ref().iter().filter(|&&b| b).count()
    }
}

impl<T, S: AsRef<[T]>> std::ops::Index<usize> for Grid<T, S> {
    type Output = [T];
    fn index(&self, r: usize) -> &[T] {
        self.row(r)
    }
}

impl<T, S: AsRef<[T]> + AsMut<[T]>> std::ops::IndexMut<usize> for Grid<T, S> {
    fn index_mut(&mut self, r: usize) -> &mut [T] {
        self.row_mut(r)
    }
}

impl<T: std::fmt::Debug, S: AsRef<[T]>> std::fmt::Debug for Grid<T, S> {
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
        assert_eq!(
            format!("{:?}", MetricGrid::empty()),
            format!("{empty_rows:?}")
        );
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
    fn blocks_fill_their_own_rows_and_dropped_rows_close_up() {
        let mut g = MetricGrid::zeros(4, 2);
        for (k, mut block) in g.blocks_mut([1, 2, 1]).into_iter().enumerate() {
            block.fill(k as f64 + 1.0);
            assert_eq!(block.num_slices(), 2);
        }
        assert_eq!(
            format!("{g:?}"),
            "[[1.0, 1.0], [2.0, 2.0], [2.0, 2.0], [3.0, 3.0]]"
        );
        g.retain_rows(|r| r != 1 && r != 2);
        assert_eq!(
            g,
            MetricGrid::from_rows(vec![vec![1.0, 1.0], vec![3.0, 3.0]])
        );
        g.retain_rows(|_| false);
        assert_eq!(g.num_rows(), 0);
        assert_eq!(format!("{g:?}"), "[]");
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
