//! Shared observability plumbing for the reproduction binaries: attaching
//! an [`InMemoryRecorder`] to resilient runs when `--trace` /
//! `--metrics-out` ask for one, and rendering timelines, hottest-chunk
//! tables, counter summaries, and the measured-vs-model report.

use crate::cli::Opts;
use crate::table::Table;
use std::sync::Arc;
use trilist_core::{
    ChunkSpan, Counter, InMemoryRecorder, MeasuredVsModel, MethodMeasurement, ResilientOpts,
};

/// One binary's recording session: present only when the flags asked for
/// it, so uninstrumented invocations pay nothing.
pub struct ObsSession {
    /// The shared recorder every instrumented run writes into.
    pub recorder: Arc<InMemoryRecorder>,
    /// Echo the timeline/counters to stdout (`--trace`)?
    trace: bool,
    /// Where to write the measured-vs-model JSON (`--metrics-out`).
    metrics_out: Option<std::path::PathBuf>,
    /// Rows accumulated by [`ObsSession::measure`].
    report: MeasuredVsModel,
}

impl ObsSession {
    /// A session per the CLI flags; `None` when neither observability flag
    /// was given.
    pub fn from_opts(opts: &Opts) -> Option<ObsSession> {
        if !opts.wants_recording() {
            return None;
        }
        Some(ObsSession {
            recorder: Arc::new(InMemoryRecorder::new()),
            trace: opts.trace,
            metrics_out: opts.metrics_out.clone(),
            report: MeasuredVsModel::default(),
        })
    }

    /// Attaches the session's recorder to a run's options.
    pub fn attach(&self, ropts: &mut ResilientOpts) {
        ropts.recorder = Some(self.recorder.clone() as Arc<dyn trilist_core::Recorder>);
    }

    /// Folds one completed run into the measured-vs-model report. `spans`
    /// should be the recorder's spans *for this run only* — call
    /// [`ObsSession::take_run`] to drain them between runs.
    #[allow(clippy::too_many_arguments)]
    pub fn measure(
        &mut self,
        method: &str,
        policy: &str,
        modeled_ops: u64,
        wall_ns: u64,
        triangles: u64,
        threads: usize,
        spans: &[ChunkSpan],
    ) {
        let measured_ns = spans.iter().fold(0u64, |a, s| a.saturating_add(s.dur_ns));
        let efficiency = span_efficiency(spans, threads);
        self.report.entries.push(MethodMeasurement::derive(
            method,
            policy,
            modeled_ops,
            measured_ns,
            wall_ns,
            spans.len() as u64,
            triangles,
            efficiency,
        ));
    }

    /// The spans recorded since the last call (a fresh recorder replaces
    /// the shared one, so per-run reports don't bleed into each other,
    /// while counters/histograms keep accumulating on the returned
    /// recorder's predecessor only if you keep it — the simple protocol:
    /// attach, run, `take_run`).
    pub fn take_run(&mut self) -> (Arc<InMemoryRecorder>, Vec<ChunkSpan>) {
        let finished = std::mem::replace(&mut self.recorder, Arc::new(InMemoryRecorder::new()));
        let spans = finished.spans();
        (finished, spans)
    }

    /// The accumulated measured-vs-model report.
    pub fn report(&self) -> &MeasuredVsModel {
        &self.report
    }

    /// Prints the per-run trace (timeline + counters) when `--trace` is
    /// set.
    pub fn trace_run(&self, label: &str, rec: &InMemoryRecorder, spans: &[ChunkSpan]) {
        if !self.trace {
            return;
        }
        println!();
        render_timeline(label, spans, 20).print();
        render_counters(label, rec).print();
    }

    /// Writes the JSON report (when `--metrics-out` is set) and prints the
    /// measured-vs-model table. Returns the path written, if any.
    pub fn finish(&self) -> std::io::Result<Option<std::path::PathBuf>> {
        if !self.report.entries.is_empty() {
            println!();
            render_measured_vs_model(&self.report).print();
        }
        if let Some(path) = &self.metrics_out {
            if let Some(dir) = path.parent() {
                if !dir.as_os_str().is_empty() {
                    std::fs::create_dir_all(dir)?;
                }
            }
            std::fs::write(path, self.report.to_json())?;
            println!("metrics written to {}", path.display());
            return Ok(Some(path.clone()));
        }
        Ok(None)
    }
}

/// Load-balance efficiency from a span list: mean/max per-worker busy time
/// across `threads` workers, counting chunk spans only (1.0 when nothing
/// ran).
pub fn span_efficiency(spans: &[ChunkSpan], threads: usize) -> f64 {
    let mut busy = vec![0u64; threads.max(1)];
    for s in spans {
        if s.is_setup() {
            continue;
        }
        if s.worker >= busy.len() {
            busy.resize(s.worker + 1, 0);
        }
        busy[s.worker] = busy[s.worker].saturating_add(s.dur_ns);
    }
    let max = busy.iter().copied().max().unwrap_or(0);
    if max == 0 {
        return 1.0;
    }
    busy.iter().map(|&b| b as f64).sum::<f64>() / busy.len() as f64 / max as f64
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// The run reconstructed as a timeline: one row per span in start order,
/// truncated to `max_rows` (the longest-running spans are what
/// [`render_hottest`] is for).
pub fn render_timeline(label: &str, spans: &[ChunkSpan], max_rows: usize) -> Table {
    let mut t = Table::new(
        format!("{label}: span timeline ({} spans)", spans.len()),
        &[
            "start", "dur", "worker", "chunk", "attempt", "range", "ops", "policy", "ok",
        ],
    );
    let mut ordered: Vec<&ChunkSpan> = spans.iter().collect();
    ordered.sort_by_key(|s| (s.start_ns, s.chunk, s.attempt));
    for s in ordered.iter().take(max_rows) {
        t.row(vec![
            fmt_ns(s.start_ns),
            fmt_ns(s.dur_ns),
            s.worker.to_string(),
            if s.is_setup() {
                "setup".to_string()
            } else {
                s.chunk.to_string()
            },
            s.attempt.to_string(),
            if s.is_setup() {
                "-".to_string()
            } else {
                format!("{}..{}", s.range.start, s.range.end)
            },
            s.ops.to_string(),
            s.policy.to_string(),
            if s.ok { "ok" } else { "FAULT" }.to_string(),
        ]);
    }
    if spans.len() > max_rows {
        t.row(vec![
            "...".into(),
            "...".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            format!("({} more)", spans.len() - max_rows),
            "-".into(),
            "-".into(),
            "-".into(),
        ]);
    }
    t
}

/// The top-`k` hottest chunks by duration.
pub fn render_hottest(label: &str, rec: &InMemoryRecorder, k: usize) -> Table {
    let mut t = Table::new(
        format!("{label}: top-{k} hottest chunks"),
        &[
            "dur", "chunk", "attempt", "worker", "range", "ops", "policy",
        ],
    );
    for s in rec.hottest(k) {
        t.row(vec![
            fmt_ns(s.dur_ns),
            s.chunk.to_string(),
            s.attempt.to_string(),
            s.worker.to_string(),
            format!("{}..{}", s.range.start, s.range.end),
            s.ops.to_string(),
            s.policy.to_string(),
        ]);
    }
    t
}

/// The non-zero counters of a recorder.
pub fn render_counters(label: &str, rec: &InMemoryRecorder) -> Table {
    let mut t = Table::new(format!("{label}: counters"), &["counter", "value"]);
    for c in Counter::ALL {
        let v = rec.counter(c);
        if v > 0 {
            t.row(vec![c.name().to_string(), v.to_string()]);
        }
    }
    t
}

/// The measured-vs-model table: span totals joined against the paper-side
/// operation model, per method × kernel policy.
pub fn render_measured_vs_model(report: &MeasuredVsModel) -> Table {
    let mut t = Table::new(
        "measured vs model",
        &[
            "method",
            "policy",
            "model ops",
            "measured",
            "wall",
            "ns/op",
            "spans",
            "tri",
            "balance",
        ],
    );
    for e in &report.entries {
        t.row(vec![
            e.method.clone(),
            e.policy.clone(),
            e.modeled_ops.to_string(),
            fmt_ns(e.measured_ns),
            fmt_ns(e.wall_ns),
            format!("{:.2}", e.ns_per_op),
            e.spans.to_string(),
            e.triangles.to_string(),
            format!("{:.2}", e.load_balance_efficiency),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use trilist_core::{Method, WorkDomain};

    fn span(worker: usize, chunk: u32, start: u64, dur: u64) -> ChunkSpan {
        ChunkSpan {
            domain: WorkDomain::Listing(Method::T1),
            policy: "paper",
            chunk,
            attempt: 0,
            worker,
            range: chunk * 5..(chunk + 1) * 5,
            start_ns: start,
            dur_ns: dur,
            ops: dur,
            ok: true,
        }
    }

    #[test]
    fn session_only_exists_when_flags_ask() {
        assert!(ObsSession::from_opts(&Opts::default()).is_none());
        let opts = Opts {
            trace: true,
            ..Opts::default()
        };
        let mut session = ObsSession::from_opts(&opts).expect("--trace implies a session");
        let mut ropts = ResilientOpts::default();
        assert!(ropts.recorder.is_none());
        session.attach(&mut ropts);
        assert!(ropts.recorder.is_some());
        // the attached recorder is the session's
        use trilist_core::HistKind;
        ropts
            .recorder
            .as_ref()
            .unwrap()
            .observe(HistKind::ChunkOps, 9);
        let (rec, spans) = session.take_run();
        assert!(spans.is_empty());
        assert_eq!(rec.histogram(HistKind::ChunkOps).iter().sum::<u64>(), 1);
        // after take_run the session holds a fresh recorder
        assert_eq!(
            session
                .recorder
                .histogram(HistKind::ChunkOps)
                .iter()
                .sum::<u64>(),
            0
        );
    }

    #[test]
    fn measure_accumulates_report_rows() {
        let opts = Opts {
            trace: true,
            ..Opts::default()
        };
        let mut session = ObsSession::from_opts(&opts).unwrap();
        let spans = [span(0, 0, 0, 600), span(1, 1, 0, 400)];
        session.measure("T1", "paper", 500, 1_100, 7, 2, &spans);
        let e = &session.report().entries[0];
        assert_eq!(e.measured_ns, 1_000);
        assert_eq!(e.spans, 2);
        assert!((e.ns_per_op - 2.0).abs() < 1e-12);
        assert!((e.load_balance_efficiency - (500.0 / 600.0)).abs() < 1e-12);
    }

    #[test]
    fn renderers_cover_spans_and_counters() {
        let rec = InMemoryRecorder::new();
        use trilist_core::Recorder;
        rec.add(Counter::Steals, 3);
        rec.span(span(0, 0, 0, 100));
        rec.span(span(1, 1, 50, 900));
        let spans = rec.spans();
        let tl = render_timeline("demo", &spans, 1).render();
        assert!(tl.contains("2 spans"));
        assert!(tl.contains("(1 more)"));
        let hot = render_hottest("demo", &rec, 2).render();
        assert!(hot.lines().count() >= 5, "{hot}");
        let counters = render_counters("demo", &rec).render();
        assert!(counters.contains("steals"));
        assert!(!counters.contains("budget_checks"), "zero counters hidden");
        assert_eq!(fmt_ns(999), "999ns");
        assert_eq!(fmt_ns(1_500), "1.5us");
        assert_eq!(fmt_ns(2_500_000), "2.50ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.00s");
    }

    #[test]
    fn span_efficiency_matches_recorder() {
        let rec = InMemoryRecorder::new();
        use trilist_core::Recorder;
        rec.span(span(0, 0, 0, 300));
        rec.span(span(1, 1, 0, 100));
        let spans = rec.spans();
        assert_eq!(span_efficiency(&spans, 2), rec.load_balance_efficiency(2));
        assert_eq!(span_efficiency(&[], 4), 1.0);
    }
}
