//! Step 2 of resource attribution: upsampling coarse measurements to
//! timeslice granularity (§III-D2).
//!
//! Each measurement reports the *average* usage over a multi-slice window.
//! The measured total is split over the window's slices by superimposing the
//! estimated demand: first proportionally to known (Exact) demand without
//! exceeding demand or capacity, then the remainder proportionally to
//! variable demand capped by capacity, then any residue proportionally to
//! remaining capacity. Anything that still cannot be placed (measurement
//! exceeding capacity × window) is reported back as overflow.

use crate::trace::resource::Measurement;
use crate::trace::timeslice::TimesliceGrid;

/// Distributes `amount` over `out` proportionally to `weights`, never
/// pushing `out[i]` above `caps[i]`. Returns the undistributable remainder.
/// Exact water-filling: at most `n` rounds, each freezing one capped slot.
///
/// Convergence tolerances are *relative* to the problem's magnitude (the
/// larger of `amount` and the largest cap): an absolute `1e-12` would spin
/// on inputs measured in units of 1e12 (nanosecond totals) and would treat
/// everything as converged on inputs of order 1e-12 (fractions of a
/// second), leaking the whole amount back as remainder.
pub fn waterfill(weights: &[f64], caps: &[f64], amount: f64, out: &mut [f64]) -> f64 {
    waterfill_into(weights, caps, amount, out, &mut Vec::new())
}

/// [`waterfill`] with a caller-provided scratch buffer for the active-slot
/// set, so hot loops (one call per measurement) do not allocate per call.
/// Identical arithmetic — the buffer only changes where the index list
/// lives, never its contents.
pub fn waterfill_into(
    weights: &[f64],
    caps: &[f64],
    amount: f64,
    out: &mut [f64],
    active: &mut Vec<usize>,
) -> f64 {
    debug_assert_eq!(weights.len(), caps.len());
    debug_assert_eq!(weights.len(), out.len());
    let max_cap = caps.iter().copied().fold(0.0f64, f64::max);
    let eps = 1e-12 * amount.abs().max(max_cap).max(1e-300);
    let mut remaining = amount;
    // One predicate decides slot liveness everywhere — seeding, the
    // stalled-scale retry, and the per-round retain. Mixing thresholds
    // (`out[i] < caps[i]` to seed, an epsilon gap to retain) let a slot
    // within epsilon of its cap enter the active set only to stall the
    // first round on a zero scale.
    let live = |out: &[f64], i: usize| caps[i] - out[i] > eps;
    active.clear();
    active.extend((0..weights.len()).filter(|&i| weights[i] > 0.0 && live(out, i)));
    while remaining > eps && !active.is_empty() {
        let wsum: f64 = active.iter().map(|&i| weights[i]).sum();
        if wsum <= 0.0 {
            break;
        }
        // Largest uniform scale before some slot hits its cap.
        let mut scale = remaining / wsum;
        for &i in active.iter() {
            let headroom = caps[i] - out[i];
            scale = scale.min(headroom / weights[i]);
        }
        if scale <= 0.0 {
            // All remaining slots are at cap within epsilon.
            active.retain(|&i| live(out, i));
            if active.is_empty() {
                break;
            }
            continue;
        }
        for &i in active.iter() {
            out[i] += scale * weights[i];
        }
        remaining -= scale * wsum;
        active.retain(|&i| live(out, i));
    }
    remaining.max(0.0)
}

/// Upsamples one measurement into per-slice usage, writing into
/// `out[ws..we]` (slice indices of the window). `exact` and `variable` are
/// the demand rows of this resource over all slices. Returns the overflow
/// that could not be placed under `capacity`.
///
/// The mass to place is `avg × true duration` (in units × slices), *not*
/// `avg × snapped slice count`: a window whose bounds sit off the slice
/// boundaries (`[0, 14 ms)` on a 10 ms grid) snaps to one slice, and
/// pricing it by the snapped count would silently drop 40 % of what the
/// monitor measured. The snapped range still decides *where* the mass
/// lands; only the amount comes from the true extent.
pub fn upsample_measurement(
    m: &Measurement,
    grid: &TimesliceGrid,
    exact: &[f64],
    variable: &[f64],
    capacity: f64,
    out: &mut [f64],
) -> f64 {
    let mut scratch = UpsampleScratch::default();
    upsample_measurement_scratch(m, grid, exact, variable, capacity, out, &mut scratch)
}

/// Reusable buffers for the columnar upsampling path: one allocation per
/// worker instead of ~five per measurement. The buffers never outlive a
/// call's arithmetic — they only move where the temporaries live.
#[derive(Default)]
pub struct UpsampleScratch {
    targets: Vec<f64>,
    weights: Vec<f64>,
    caps: Vec<f64>,
    headroom: Vec<f64>,
    active: Vec<usize>,
}

/// Scratch-buffer form of [`upsample_measurement`]: identical arithmetic
/// (same three placement steps, same water-filling, same epsilons), but
/// temporaries come from `scratch` — one allocation per resource row
/// instead of ~five per measurement — and the window is computed **in place** in
/// `out[ws..we]`. The retired allocating path built the window in a fresh
/// zeroed buffer and copied it back, so zeroing the window first is
/// bit-identical; `tests/columnar_equivalence.rs` pins the end-to-end
/// profiles against committed goldens.
pub fn upsample_measurement_scratch(
    m: &Measurement,
    grid: &TimesliceGrid,
    exact: &[f64],
    variable: &[f64],
    capacity: f64,
    out: &mut [f64],
    scratch: &mut UpsampleScratch,
) -> f64 {
    let ws = grid.snap(m.start);
    let we = grid.snap(m.end).max(ws + 1).min(grid.num_slices());
    let n = we - ws;
    let total = m.avg * duration_slices(m, grid); // in (units × slices)

    let x = &mut out[ws..we];
    x.fill(0.0);

    // Step 1: proportional to known demand, capped by min(demand, capacity).
    scratch.targets.clear();
    scratch
        .targets
        .extend(exact[ws..we].iter().map(|&e| e.min(capacity)));
    let tsum: f64 = scratch.targets.iter().sum();
    let mut rem = total;
    if tsum > 0.0 {
        let placed = total.min(tsum);
        for i in 0..n {
            x[i] = placed * scratch.targets[i] / tsum;
        }
        rem = total - placed;
    }

    // Step 2: remainder proportional to variable demand, capped by capacity.
    if rem > 1e-12 {
        scratch.weights.clear();
        scratch.weights.extend_from_slice(&variable[ws..we]);
        scratch.caps.clear();
        scratch.caps.resize(n, capacity);
        rem = waterfill_into(&scratch.weights, &scratch.caps, rem, x, &mut scratch.active);
    }

    // Step 3: residue proportional to remaining headroom (covers system
    // activity no modeled phase demanded).
    if rem > 1e-12 {
        scratch.headroom.clear();
        scratch
            .headroom
            .extend(x.iter().map(|&v| (capacity - v).max(0.0)));
        scratch.caps.clear();
        scratch.caps.resize(n, capacity);
        rem = waterfill_into(
            &scratch.headroom,
            &scratch.caps,
            rem,
            x,
            &mut scratch.active,
        );
    }

    rem
}

/// Measured window extent in units of grid slices — the true duration, not
/// the snapped slice count, so mass conservation survives windows whose
/// bounds are off the slice boundaries.
fn duration_slices(m: &Measurement, grid: &TimesliceGrid) -> f64 {
    m.end.saturating_sub(m.start) as f64 / grid.slice_nanos() as f64
}

/// The strawman the paper compares against: assume constant usage over the
/// measurement window. Like [`upsample_measurement`], the placed mass is
/// `avg × true duration`, spread evenly over the snapped slices.
pub fn upsample_constant(m: &Measurement, grid: &TimesliceGrid, out: &mut [f64]) {
    let ws = grid.snap(m.start);
    let we = grid.snap(m.end).max(ws + 1).min(grid.num_slices());
    let n = we - ws;
    let level = m.avg * duration_slices(m, grid) / n as f64;
    for slot in &mut out[ws..we] {
        *slot = level;
    }
}

/// The paper's Table II metric: sum of absolute differences between the
/// upsampled series and the ground truth, as a fraction of total ground
/// truth consumption. Both series must share the same granularity.
///
/// When the truth sums to zero the ratio is degenerate: zero-vs-zero is a
/// perfect reconstruction (0.0), but *nonzero*-vs-zero is unboundedly
/// wrong and returns [`f64::INFINITY`] — returning 0.0 there would score
/// phantom mass as a perfect match.
pub fn relative_sampling_error(upsampled: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(
        upsampled.len(),
        truth.len(),
        "series lengths differ: {} vs {}",
        upsampled.len(),
        truth.len()
    );
    let total: f64 = truth.iter().sum();
    let abs_diff: f64 = upsampled
        .iter()
        .zip(truth)
        .map(|(u, t)| (u - t).abs())
        .sum();
    if total <= 0.0 {
        return if abs_diff > 0.0 { f64::INFINITY } else { 0.0 };
    }
    abs_diff / total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::timeslice::MILLIS;

    fn grid(n: usize) -> TimesliceGrid {
        TimesliceGrid::covering(0, n as u64 * 10 * MILLIS, 10 * MILLIS)
    }

    #[test]
    fn waterfill_proportional_within_caps() {
        let mut out = vec![0.0; 3];
        let left = waterfill(&[1.0, 2.0, 1.0], &[10.0, 10.0, 10.0], 8.0, &mut out);
        assert!(left < 1e-12);
        assert!((out[0] - 2.0).abs() < 1e-9);
        assert!((out[1] - 4.0).abs() < 1e-9);
        assert!((out[2] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn waterfill_respects_caps_and_returns_leftover() {
        let mut out = vec![0.0; 2];
        let left = waterfill(&[1.0, 1.0], &[1.0, 2.0], 5.0, &mut out);
        assert!((out[0] - 1.0).abs() < 1e-9);
        assert!((out[1] - 2.0).abs() < 1e-9);
        assert!((left - 2.0).abs() < 1e-9);
    }

    #[test]
    fn waterfill_zero_weights_distribute_nothing() {
        let mut out = vec![0.0; 2];
        let left = waterfill(&[0.0, 0.0], &[5.0, 5.0], 3.0, &mut out);
        assert_eq!(out, vec![0.0, 0.0]);
        assert!((left - 3.0).abs() < 1e-12);
    }

    /// The worked example of Figure 2: resource R2, timeslices 2–3
    /// (0-indexed 1 and 2 here), measured at 40 % over two slices; exact
    /// demand 50 % in the second slice only, variable weight 1 in both.
    #[test]
    fn figure2_r2_example() {
        let g = grid(2);
        let exact = vec![0.0, 50.0];
        let variable = vec![1.0, 1.0];
        let m = Measurement {
            start: 0,
            end: 20 * MILLIS,
            avg: 40.0,
        };
        let mut out = vec![0.0; 2];
        let overflow = upsample_measurement(&m, &g, &exact, &variable, 100.0, &mut out);
        assert!(overflow < 1e-9);
        assert!(
            (out[0] - 15.0).abs() < 1e-9,
            "slice 2 should be 15%, got {}",
            out[0]
        );
        assert!(
            (out[1] - 65.0).abs() < 1e-9,
            "slice 3 should be 65%, got {}",
            out[1]
        );
    }

    #[test]
    fn conservation_of_total() {
        let g = grid(4);
        let exact = vec![1.0, 0.0, 2.0, 0.5];
        let variable = vec![0.0, 3.0, 1.0, 0.0];
        let m = Measurement {
            start: 0,
            end: 40 * MILLIS,
            avg: 2.0,
        };
        let mut out = vec![0.0; 4];
        let overflow = upsample_measurement(&m, &g, &exact, &variable, 4.0, &mut out);
        let placed: f64 = out.iter().sum();
        assert!((placed + overflow - 8.0).abs() < 1e-9);
        assert!(out.iter().all(|&v| v <= 4.0 + 1e-9));
    }

    #[test]
    fn no_demand_spreads_by_headroom() {
        let g = grid(2);
        let m = Measurement {
            start: 0,
            end: 20 * MILLIS,
            avg: 3.0,
        };
        let mut out = vec![0.0; 2];
        let overflow = upsample_measurement(&m, &g, &[0.0, 0.0], &[0.0, 0.0], 4.0, &mut out);
        assert!(overflow < 1e-9);
        // Uniform headroom: spread evenly (matches the constant strawman
        // when the model knows nothing).
        assert!((out[0] - 3.0).abs() < 1e-9);
        assert!((out[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn over_capacity_measurement_reports_overflow() {
        let g = grid(2);
        let m = Measurement {
            start: 0,
            end: 20 * MILLIS,
            avg: 5.0, // above the capacity of 4
        };
        let mut out = vec![0.0; 2];
        let overflow = upsample_measurement(&m, &g, &[0.0, 0.0], &[1.0, 1.0], 4.0, &mut out);
        assert!((overflow - 2.0).abs() < 1e-9);
        assert!((out[0] - 4.0).abs() < 1e-9);
    }

    #[test]
    fn exact_demand_concentrates_usage() {
        // All demand sits in slice 0; the measurement should follow it.
        let g = grid(4);
        let m = Measurement {
            start: 0,
            end: 40 * MILLIS,
            avg: 0.5,
        };
        let mut out = vec![0.0; 4];
        upsample_measurement(&m, &g, &[2.0, 0.0, 0.0, 0.0], &[0.0; 4], 4.0, &mut out);
        assert!((out[0] - 2.0).abs() < 1e-9);
        assert!(out[1..].iter().all(|&v| v < 1e-9));
    }

    #[test]
    fn constant_strawman_is_flat() {
        let g = grid(3);
        let m = Measurement {
            start: 0,
            end: 30 * MILLIS,
            avg: 1.5,
        };
        let mut out = vec![0.0; 3];
        upsample_constant(&m, &g, &mut out);
        assert_eq!(out, vec![1.5, 1.5, 1.5]);
    }

    #[test]
    fn error_metric_basics() {
        assert_eq!(relative_sampling_error(&[1.0, 1.0], &[1.0, 1.0]), 0.0);
        assert!((relative_sampling_error(&[2.0, 0.0], &[1.0, 1.0]) - 1.0).abs() < 1e-12);
        // Zero-vs-zero is a perfect reconstruction ...
        assert_eq!(relative_sampling_error(&[0.0, 0.0], &[0.0, 0.0]), 0.0);
        // ... but phantom mass against a zero truth is unboundedly wrong,
        // not a perfect score.
        assert_eq!(relative_sampling_error(&[5.0], &[0.0]), f64::INFINITY);
    }

    /// Off-boundary regression: `[0, 14 ms)` on a 10 ms grid snaps to one
    /// slice. The mass placed must be `avg × 1.4 slices`, not `avg × 1` —
    /// the snapped-count pricing silently dropped 40 % of the measurement.
    #[test]
    fn off_boundary_window_conserves_true_mass() {
        for (start_ms, end_ms) in [(0u64, 14u64), (3, 14), (0, 6), (7, 33)] {
            let g = grid(4);
            let m = Measurement {
                start: start_ms * MILLIS,
                end: end_ms * MILLIS,
                avg: 2.0,
            };
            let dur_slices = (end_ms - start_ms) as f64 / 10.0;
            let mut out = vec![0.0; 4];
            let overflow = upsample_measurement(&m, &g, &[0.0; 4], &[1.0; 4], 100.0, &mut out);
            let placed: f64 = out.iter().sum();
            assert!(
                (placed + overflow - 2.0 * dur_slices).abs() < 1e-9,
                "[{start_ms},{end_ms}) ms: placed {placed} + overflow {overflow} \
                 != avg × {dur_slices} slices"
            );
        }
    }

    /// The constant strawman conserves the same true mass: a 14 ms window
    /// snapped to one 10 ms slice reads 2.8 units there, not 2.0.
    #[test]
    fn off_boundary_constant_conserves_true_mass() {
        let g = grid(4);
        let m = Measurement {
            start: 0,
            end: 14 * MILLIS,
            avg: 2.0,
        };
        let mut out = vec![0.0; 4];
        upsample_constant(&m, &g, &mut out);
        assert!((out[0] - 2.8).abs() < 1e-9, "got {}", out[0]);
        assert!(out[1..].iter().all(|&v| v == 0.0));
    }

    /// Waterfill's tolerances are relative: the same shape must fill at
    /// 1e±15 scales without leaking the amount back as remainder.
    #[test]
    fn waterfill_handles_extreme_magnitudes() {
        for scale in [1e-15f64, 1.0, 1e15] {
            let weights = [1.0, 2.0, 1.0];
            let caps = [10.0 * scale, 10.0 * scale, 10.0 * scale];
            let amount = 8.0 * scale;
            let mut out = vec![0.0; 3];
            let left = waterfill(&weights, &caps, amount, &mut out);
            assert!(left <= 1e-9 * scale, "scale {scale}: leftover {left}");
            assert!((out[1] - 4.0 * scale).abs() < 1e-9 * scale, "scale {scale}");
        }
    }

    /// A slot already within rounding of its cap must not stall the fill:
    /// the unified liveness predicate excludes it from the first round.
    #[test]
    fn waterfill_skips_slots_at_cap_within_epsilon() {
        let caps = [1.0, 5.0];
        let mut out = vec![1.0 - 1e-16, 0.0];
        let left = waterfill(&[1.0, 1.0], &caps, 3.0, &mut out);
        assert!(left < 1e-9, "leftover {left}");
        assert!((out[1] - 3.0).abs() < 1e-9, "got {}", out[1]);
    }
}
