//! The self-profile table: where Grade10's own pipeline spent its time,
//! rendered from a [`MetaCharacterization`].

use crate::obs::Stage;
use crate::pipeline::MetaCharacterization;
use crate::report::summary::usage_by_type;
use crate::report::table::{pct, Table};

/// Adaptive duration rendering for span-scale times (the `secs` helper
/// rounds to 10 ms, which flattens every pipeline stage to `0.00s`).
fn dur(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Renders the per-stage self-profile: recorded wall time, attributed CPU
/// (from the meta characterization, i.e. after the full demand → upsample
/// → attribute round trip), the stage's share of all attributed CPU, and
/// — when the binary installed the counting allocator — allocation counts.
///
/// One row per pipeline stage that actually ran, in pipeline order, plus a
/// `total` row. Worker rows aggregate the upsampling fan-out across
/// threads; their wall time can exceed the `upsample` row's on multi-core
/// runs (that is the point).
pub fn self_profile_table(meta: &MetaCharacterization) -> Table {
    let usage = usage_by_type(&meta.result.profile, &meta.trace);
    let cpu_of = |stage: Stage| -> f64 {
        meta.model
            .find_by_name(stage.name())
            .and_then(|ty| usage.get(&(ty, crate::obs::META_CPU.to_string())))
            .copied()
            .unwrap_or(0.0)
    };
    let total_cpu: f64 = Stage::ALL.iter().map(|&s| cpu_of(s)).sum();
    let any_allocs = meta.raw.spans.iter().any(|s| s.allocs > 0);

    let mut headers = vec!["stage", "spans", "wall", "cpu (unit-s)", "cpu share"];
    if any_allocs {
        headers.push("allocs");
        headers.push("alloc bytes");
    }
    let mut table = Table::new(&headers);
    let mut tot_spans = 0usize;
    let mut tot_wall = 0u64;
    let (mut tot_allocs, mut tot_bytes) = (0u64, 0u64);
    for stage in Stage::ALL {
        let spans: Vec<_> = meta.raw.spans.iter().filter(|s| s.stage == stage).collect();
        if spans.is_empty() {
            continue;
        }
        let wall: u64 = spans.iter().map(|s| s.end - s.start).sum();
        let allocs: u64 = spans.iter().map(|s| s.allocs).sum();
        let bytes: u64 = spans.iter().map(|s| s.alloc_bytes).sum();
        tot_spans += spans.len();
        tot_wall += wall;
        tot_allocs += allocs;
        tot_bytes += bytes;
        let cpu = cpu_of(stage);
        let mut row = vec![
            stage.name().to_string(),
            spans.len().to_string(),
            dur(wall),
            format!("{:.6}", cpu),
            if total_cpu > 0.0 {
                pct(cpu / total_cpu)
            } else {
                "-".to_string()
            },
        ];
        if any_allocs {
            row.push(allocs.to_string());
            row.push(bytes.to_string());
        }
        table.row(&row);
    }
    let mut row = vec![
        "total".to_string(),
        tot_spans.to_string(),
        dur(tot_wall),
        format!("{:.6}", total_cpu),
        if total_cpu > 0.0 {
            pct(1.0)
        } else {
            "-".to_string()
        },
    ];
    if any_allocs {
        row.push(tot_allocs.to_string());
        row.push(tot_bytes.to_string());
    }
    table.row(&row);
    table
}

/// One-line stage-cache summary printed after cached campaign runs: how
/// many ladder rungs were answered by their record, how many were not, and
/// how many records were written.
pub fn stage_cache_line(stats: &crate::cache::StageCacheStats) -> String {
    format!(
        "stage cache: {} hits, {} misses, {} stored ({:.1}% hit rate)",
        stats.hits,
        stats.misses,
        stats.stores,
        stats.hit_rate()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::{MetaTrace, SpanRecord};
    use crate::pipeline::characterize_meta;

    #[test]
    fn table_has_row_per_stage_plus_total() {
        let spans = vec![
            SpanRecord {
                stage: Stage::Demand,
                thread: 0,
                start: 0,
                end: 400_000,
                allocs: 0,
                alloc_bytes: 0,
            },
            SpanRecord {
                stage: Stage::Upsample,
                thread: 0,
                start: 400_000,
                end: 2_000_000,
                allocs: 0,
                alloc_bytes: 0,
            },
            SpanRecord {
                stage: Stage::Attribute,
                thread: 0,
                start: 2_000_000,
                end: 2_600_000,
                allocs: 0,
                alloc_bytes: 0,
            },
        ];
        let raw = MetaTrace {
            spans,
            end: 2_600_000,
        };
        let meta = characterize_meta(&raw).expect("meta characterization");
        let table = self_profile_table(&meta);
        let out = table.render();
        assert!(out.contains("demand"), "{out}");
        assert!(out.contains("upsample"), "{out}");
        assert!(out.contains("attribute"), "{out}");
        assert!(out.contains("total"), "{out}");
        // Stages that never ran are omitted: 3 stage rows + total.
        assert_eq!(table.len(), 4, "{out}");
        // No allocation columns when nothing was counted.
        assert!(!out.contains("allocs"), "{out}");
    }

    #[test]
    fn stage_cache_line_reports_counters_and_rate() {
        let line = stage_cache_line(&crate::cache::StageCacheStats {
            hits: 9,
            misses: 1,
            stores: 1,
        });
        assert_eq!(
            line,
            "stage cache: 9 hits, 1 misses, 1 stored (90.0% hit rate)"
        );
        let idle = stage_cache_line(&crate::cache::StageCacheStats::default());
        assert!(idle.contains("(0.0% hit rate)"), "{idle}");
    }

    #[test]
    fn alloc_columns_appear_when_counted() {
        let spans = vec![SpanRecord {
            stage: Stage::Demand,
            thread: 0,
            start: 0,
            end: 1_000_000,
            allocs: 42,
            alloc_bytes: 4096,
        }];
        let raw = MetaTrace {
            spans,
            end: 1_000_000,
        };
        let meta = characterize_meta(&raw).expect("meta characterization");
        let out = self_profile_table(&meta).render();
        assert!(out.contains("allocs"), "{out}");
        assert!(out.contains("42"), "{out}");
        assert!(out.contains("4096"), "{out}");
    }
}
