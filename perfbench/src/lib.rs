//! The repository benchmark: end-to-end metrics of the solve daemon and of
//! in-process `Solver::solve`, and (with tracing on) a per-layer breakdown
//! timed from outside each layer's public functions. See `README.md`.

pub mod check;
pub mod corpus;
pub mod daemon;
pub mod inproc;
pub mod trace;

use bisched_core::{Method, SolveReport};
use bisched_service::{AttemptData, Response};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Set-ups per run; `setup_s` is their median and the last one is
/// measured.
pub const SETUP_REPS: usize = 3;

/// Trials an untraced daemon run measures, each `seconds / TRIALS` long
/// over fresh client connections (so the daemon serves them on fresh
/// threads); the metrics pool every trial's requests.
pub const TRIALS: usize = 5;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    DaemonHit,
    DaemonMiss,
    SolveRace,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::DaemonHit,
        Workload::DaemonMiss,
        Workload::SolveRace,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DaemonHit => "daemon-hit",
            Workload::DaemonMiss => "daemon-miss",
            Workload::SolveRace => "solve-race",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The percentile `latency_tail_ms` reports; each leaves at least ten
    /// samples beyond it at the committed run length. `daemon-hit` could
    /// afford p99.9 but reports p95: its p99 already varied too much
    /// between seeds (interquartile range up to a third of the median).
    pub fn tail_percentile(self) -> f64 {
        match self {
            Workload::DaemonHit | Workload::SolveRace => 0.95,
            Workload::DaemonMiss => 0.99,
        }
    }
}

/// One benchmark run's settings.
#[derive(Clone, Debug)]
pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured phase(s), seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Smoke-test sizes: tiny instances, two set-ups, one trial.
    pub tiny: bool,
    /// Where a traced run writes its spans.
    pub trace_dir: Option<PathBuf>,
}

impl Opts {
    fn setup_reps(&self) -> usize {
        if self.tiny {
            2
        } else {
            SETUP_REPS
        }
    }

    fn trials(&self) -> usize {
        if self.tiny {
            1
        } else {
            TRIALS
        }
    }
}

/// How an op reached the layer under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Framing {
    Json,
    Binary,
    InProcess,
}

/// One measured request or solve.
#[derive(Clone, Debug)]
pub struct Op {
    /// Client-observed time (daemon) or `Solver::solve` call time.
    pub lat_ms: f64,
    pub framing: Framing,
    /// In-process only: the JSON and binary round trip of the result.
    pub codec_ms: Option<(f64, f64)>,
    /// Daemon only: the server-reported `time_ms`.
    pub server_ms: Option<f64>,
    pub result: Result<check::Checked, String>,
}

/// Winners, attempts and engine counters over a phase.
#[derive(Debug, Default)]
pub struct EngineTally {
    solves: u64,
    with_attempts: u64,
    attempts: u64,
    cancelled: u64,
    attempt_wall_ms: f64,
    loser_wall_ms: f64,
    wins: BTreeMap<String, u64>,
    /// `(engine, counter)` → sum.
    counters: BTreeMap<(String, String), u64>,
}

impl EngineTally {
    fn add<'a>(
        &mut self,
        winner: &str,
        attempts: impl Iterator<Item = (&'a str, bool, f64, Vec<(&'a str, u64)>)>,
    ) {
        self.solves += 1;
        *self.wins.entry(winner.to_string()).or_default() += 1;
        let mut any = false;
        let mut winner_seen = false;
        for (method, cancelled, wall_ms, stats) in attempts {
            any = true;
            self.attempts += 1;
            self.cancelled += cancelled as u64;
            self.attempt_wall_ms += wall_ms;
            if method == winner && !cancelled && !winner_seen {
                winner_seen = true;
            } else {
                self.loser_wall_ms += wall_ms;
            }
            for (name, v) in stats {
                *self
                    .counters
                    .entry((method.to_string(), name.to_string()))
                    .or_default() += v;
            }
        }
        self.with_attempts += any as u64;
    }

    pub fn add_report(&mut self, report: &SolveReport) {
        self.add(
            report.method.name(),
            report.attempts.iter().map(|a| {
                (
                    a.method.name(),
                    a.cancelled,
                    a.wall_time.as_secs_f64() * 1e3,
                    a.stats.iter().collect(),
                )
            }),
        );
    }

    pub fn add_response(&mut self, resp: &Response) {
        let Some(method) = resp.method.as_deref() else {
            return;
        };
        let attempts: &[AttemptData] = resp.attempts.as_deref().unwrap_or(&[]);
        self.add(
            method,
            attempts.iter().map(|a| {
                (
                    a.method.as_str(),
                    a.cancelled,
                    a.wall_ms,
                    a.stats.iter().map(|(n, v)| (n.as_str(), *v)).collect(),
                )
            }),
        );
    }

    pub fn merge(&mut self, other: EngineTally) {
        self.solves += other.solves;
        self.with_attempts += other.with_attempts;
        self.attempts += other.attempts;
        self.cancelled += other.cancelled;
        self.attempt_wall_ms += other.attempt_wall_ms;
        self.loser_wall_ms += other.loser_wall_ms;
        for (k, v) in other.wins {
            *self.wins.entry(k).or_default() += v;
        }
        for (k, v) in other.counters {
            *self.counters.entry(k).or_default() += v;
        }
    }

    /// Per-solve mean of one engine counter.
    fn per_solve(&self, engine: &str, counter: &str) -> f64 {
        let sum = self
            .counters
            .get(&(engine.to_string(), counter.to_string()))
            .copied()
            .unwrap_or(0);
        ratio(sum as f64, self.with_attempts as f64)
    }

    /// The `solver.*`, engine and race metrics.
    fn metrics(&self, m: &mut Metrics) {
        m.set(
            "solver.attempts_per_solve",
            ratio(self.attempts as f64, self.with_attempts as f64),
        );
        m.set(
            "solver.wasted_frac",
            ratio(self.loser_wall_ms, self.attempt_wall_ms),
        );
        for method in Method::ALL {
            let wins = self.wins.get(method.name()).copied().unwrap_or(0);
            m.set(
                &format!("solver.win_share.{}", method.name()),
                ratio(wins as f64, self.solves as f64),
            );
        }
        m.set("exact.nodes", self.per_solve("branch-and-bound", "nodes"));
        m.set(
            "exact.prunes_incumbent",
            self.per_solve("branch-and-bound", "prunes_incumbent"),
        );
        m.set("cp.nodes", self.per_solve("cp", "nodes"));
        m.set("cp.propagations", self.per_solve("cp", "propagations"));
        m.set("cp.restarts", self.per_solve("cp", "restarts"));
        m.set("fptas.expanded", self.per_solve("fptas", "expanded"));
        m.set("fptas.peak_states", self.per_solve("fptas", "peak_states"));
        m.set(
            "race.cancelled_frac",
            ratio(self.cancelled as f64, self.attempts as f64),
        );
        m.set(
            "race.loser_wall_ms",
            ratio(self.loser_wall_ms, self.with_attempts as f64),
        );
    }
}

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Nearest-rank percentile of unsorted samples (0 when empty).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The end-to-end metrics, in `BENCHMARK.json` order, with their units.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("latency_p50_json_ms", "ms"),
    ("latency_p50_binary_ms", "ms"),
    ("ok_frac", "share"),
    ("makespan_ratio_lb", "ratio"),
    ("optimal_frac", "share"),
    ("peak_rss_mib", "MiB"),
];

/// The per-layer metrics with their units. Per-size and per-method
/// families are expanded here so the list is complete.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("wire.json_decode_us", "us"),
        ("wire.json_encode_us", "us"),
        ("wire.binary_decode_us", "us"),
        ("wire.binary_encode_us", "us"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for layer in ["into_instance", "canonicalize", "translate_back"] {
        for n in corpus::DAEMON_SIZES {
            out.push((format!("model.{layer}_us.n{n}"), "us"));
        }
    }
    for (n, u) in [
        ("cache.get_us", "us"),
        ("cache.insert_us", "us"),
        ("cache.hit_ratio", "share"),
        ("cache.evictions", "1/op"),
        ("queue.wait_p50_ms", "ms"),
        ("queue.busy", "1/op"),
        ("worker.batch_size_mean", "jobs"),
        ("worker.solve_p50_ms", "ms"),
        ("transport.overhead_p50_us.json", "us"),
        ("transport.overhead_p50_us.binary", "us"),
        ("trace.closure_frac", "share"),
        ("trace.overhead_p50_ms", "ms"),
        ("solver.solve_p50_us.P", "us"),
        ("solver.solve_p50_us.Q", "us"),
        ("solver.solve_p50_us.R", "us"),
        ("solver.attempts_per_solve", "count"),
        ("solver.wasted_frac", "share"),
    ] {
        out.push((n.to_string(), u));
    }
    for method in Method::ALL {
        out.push((format!("solver.win_share.{}", method.name()), "share"));
    }
    for (n, u) in [
        ("exact.nodes", "count"),
        ("exact.prunes_incumbent", "count"),
        ("cp.nodes", "count"),
        ("cp.propagations", "count"),
        ("cp.restarts", "count"),
        ("race.cancelled_frac", "share"),
        ("race.loser_wall_ms", "ms"),
        ("fptas.expanded", "count"),
        ("fptas.peak_states", "count"),
        ("repeat.counter_mismatches", "count"),
    ] {
        out.push((n.to_string(), u));
    }
    out
}

/// Named metric values; `set` only accepts names declared above, and
/// every declared name starts at 0 (a layer the workload never enters).
#[derive(Clone, Debug)]
pub struct Metrics {
    values: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    fn new(names: Vec<(String, &'static str)>) -> Metrics {
        Metrics {
            values: names.into_iter().map(|(n, u)| (n, 0.0, u)).collect(),
        }
    }

    pub fn end_to_end() -> Metrics {
        Metrics::new(
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect(),
        )
    }

    pub fn per_layer() -> Metrics {
        Metrics::new(per_layer_names())
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .values
            .iter_mut()
            .find(|(n, _, _)| n == name)
            .unwrap_or_else(|| panic!("undeclared metric {name}"));
        slot.1 = if value.is_finite() { value } else { 0.0 };
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, f64, &'static str)> {
        self.values.iter().map(|(n, v, u)| (n.as_str(), *v, *u))
    }
}

/// A finished run.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// First few failure and mismatch descriptions.
    pub failures: Vec<String>,
    /// Daemon warm-up solves whose engine counters differed from the first
    /// set-up's solve of the same instance.
    pub mismatched: u64,
    /// Requests sent with a benchmark-only protocol knob set.
    pub hooks_sent: u64,
    pub metrics: Metrics,
    pub spans: Option<trace::Tracer>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.mismatched == 0 && self.hooks_sent == 0
    }

    /// The result object printed as the run's last line.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Counts failures among ops (first few described).
fn tally_failures(ops: &[Op], failures: &mut Vec<String>) -> u64 {
    let mut failed = 0;
    for op in ops {
        if let Err(e) = &op.result {
            failed += 1;
            if failures.len() < 8 {
                failures.push(e.clone());
            }
        }
    }
    failed
}

/// Peak resident memory of this process, MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// The end-to-end metrics of the measured ops. `wall_s` is the measured
/// wall time for throughput (daemon); without it throughput is over the
/// summed op times (in-process solves).
pub fn end_to_end(workload: Workload, ops: &[Op], wall_s: Option<f64>, setups: &[f64]) -> Metrics {
    let mut m = Metrics::end_to_end();
    let latencies =
        |pick: fn(&Op) -> Option<f64>| -> Vec<f64> { ops.iter().filter_map(pick).collect() };
    let ok: Vec<&check::Checked> = ops.iter().filter_map(|o| o.result.as_ref().ok()).collect();
    m.set("setup_s", median(setups));
    let busy_s = wall_s.unwrap_or_else(|| ops.iter().map(|o| o.lat_ms / 1e3).sum());
    m.set("ops_per_s", ratio(ok.len() as f64, busy_s));
    let lat = latencies(|o| Some(o.lat_ms));
    m.set("latency_p50_ms", median(&lat));
    m.set(
        "latency_tail_ms",
        percentile(&lat, workload.tail_percentile()),
    );
    let json = latencies(|o| match (o.framing, o.codec_ms) {
        (Framing::InProcess, Some(c)) => Some(o.lat_ms + c.0),
        (Framing::Json, _) => Some(o.lat_ms),
        _ => None,
    });
    m.set("latency_p50_json_ms", median(&json));
    let binary = latencies(|o| match (o.framing, o.codec_ms) {
        (Framing::InProcess, Some(c)) => Some(o.lat_ms + c.1),
        (Framing::Binary, _) => Some(o.lat_ms),
        _ => None,
    });
    m.set("latency_p50_binary_ms", median(&binary));
    m.set("ok_frac", ratio(ok.len() as f64, ops.len() as f64));
    let log_sum: f64 = ok.iter().map(|c| c.ratio_lb.ln()).sum();
    m.set("makespan_ratio_lb", ratio(log_sum, ok.len() as f64).exp());
    let optimal = ok.iter().filter(|c| c.optimal).count();
    m.set("optimal_frac", ratio(optimal as f64, ops.len() as f64));
    m.set("peak_rss_mib", peak_rss_mib());
    m
}

/// Runs one workload as `opts` describe.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let outcome = match opts.workload {
        Workload::DaemonHit | Workload::DaemonMiss => daemon::run(opts)?,
        Workload::SolveRace => inproc::run(opts)?,
    };
    if let (Some(dir), Some(spans)) = (&opts.trace_dir, &outcome.spans) {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let path = dir.join(format!("trace-{}-{}.json", opts.workload.name(), opts.seed));
        std::fs::write(&path, spans.to_json())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(outcome)
}
