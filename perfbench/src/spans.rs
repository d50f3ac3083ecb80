//! In-memory wall-clock spans recorded by the harness around its own
//! calls into each crate, with per-layer self times and Chrome export.
//!
//! A span's name is its layer-qualified label (`ocl.session`,
//! `core.price_call`, …). Spans are kept in memory while the run lasts
//! and written once at the end, so recording costs two clock reads and one
//! push under a mutex per span.

use bop_obs::{SpanCategory, TraceLog, TraceSpan};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Where a new span hangs: its parent span (if any) and its track (one
/// track per harness thread, so spans on one track nest and never
/// overlap).
#[derive(Debug, Clone, Copy)]
pub struct Parent {
    id: Option<u64>,
    track: &'static str,
}

impl Parent {
    /// A top-level span on `track`.
    pub fn root(track: &'static str) -> Parent {
        Parent { id: None, track }
    }
}

#[derive(Debug, Clone)]
struct Span {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    track: &'static str,
    /// Batch, call or request index the span worked on.
    key: u64,
    start_s: f64,
    end_s: f64,
}

/// A span recorder; inert (no clock reads, no storage) when disabled.
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// Self time and span count of one layer label.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    /// Summed self time (duration minus time covered by children), s.
    pub self_s: f64,
    /// Number of spans with this label.
    pub count: u64,
}

impl Spans {
    /// A recorder that stores spans only when `enabled`.
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Run `f` inside a span named `name` under `parent`; `f` receives
    /// the parent handle for its own children.
    pub fn span<T>(
        &self,
        parent: Parent,
        name: &'static str,
        key: u64,
        f: impl FnOnce(Parent) -> T,
    ) -> T {
        if !self.enabled {
            return f(parent);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_s = self.epoch.elapsed().as_secs_f64();
        let out = f(Parent { id: Some(id), track: parent.track });
        let end_s = self.epoch.elapsed().as_secs_f64();
        let span = Span { id, parent: parent.id, name, track: parent.track, key, start_s, end_s };
        self.spans.lock().expect("span store lock").push(span);
        out
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span store lock").len()
    }

    /// Total duration of the spans named `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        let spans = self.spans.lock().expect("span store lock");
        spans.iter().filter(|s| s.name == name).map(|s| s.end_s - s.start_s).sum()
    }

    /// Per-label self time and count. A span's self time is its duration
    /// minus the union of the intervals its direct children cover.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let spans = self.spans.lock().expect("span store lock");
        let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_s, s.end_s));
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for s in spans.iter() {
            let covered = children.get_mut(&s.id).map_or(0.0, |c| union_len(c, s.start_s, s.end_s));
            let entry = out.entry(s.name).or_default();
            entry.self_s += (s.end_s - s.start_s) - covered;
            entry.count += 1;
        }
        out
    }

    /// The share of the top-level spans on `track` that none of their
    /// children covers: harness time no layer accounts for.
    pub fn unattributed_share(&self, track: &str) -> f64 {
        let spans = self.spans.lock().expect("span store lock");
        let (mut wall, mut covered) = (0.0, 0.0);
        for root in spans.iter().filter(|s| s.parent.is_none() && s.track == track) {
            let mut kids: Vec<(f64, f64)> = spans
                .iter()
                .filter(|s| s.parent == Some(root.id))
                .map(|s| (s.start_s, s.end_s))
                .collect();
            wall += root.end_s - root.start_s;
            covered += union_len(&mut kids, root.start_s, root.end_s);
        }
        if wall > 0.0 {
            (wall - covered) / wall
        } else {
            1.0
        }
    }

    /// The recorded spans as a Chrome trace-event document (wall-clock
    /// seconds since the recorder was created).
    pub fn to_chrome_json(&self) -> String {
        let spans = self.spans.lock().expect("span store lock");
        let mut log = TraceLog::new();
        for s in spans.iter() {
            log.push(TraceSpan {
                id: s.id,
                parent: s.parent,
                name: s.name.to_string(),
                category: SpanCategory::Host,
                track: s.track.to_string(),
                queued_s: s.start_s,
                start_s: s.start_s,
                end_s: s.end_s,
                args: vec![("key".into(), s.key.to_string()), ("clock".into(), "wall".into())],
            });
        }
        log.to_chrome_json().to_string()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_len(intervals: &mut [(f64, f64)], lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_shares_add_up() {
        let spans = Spans::new(true);
        spans.span(Parent::root("main"), "root", 0, |p| {
            spans.span(p, "child", 0, |_| std::thread::sleep(std::time::Duration::from_millis(5)));
            spans.span(p, "child", 1, |_| std::thread::sleep(std::time::Duration::from_millis(5)));
        });
        let layers = spans.layer_times();
        assert_eq!(layers["child"].count, 2);
        assert!(layers["child"].self_s >= 0.010);
        let share = spans.unattributed_share("main");
        assert!((0.0..0.5).contains(&share), "{share}");
        assert!(layers["root"].self_s < layers["child"].self_s);
    }

    #[test]
    fn union_clips_and_merges() {
        let mut iv = [(0.0, 2.0), (1.0, 3.0), (5.0, 9.0)];
        assert_eq!(union_len(&mut iv, 0.0, 6.0), 4.0);
    }
}
