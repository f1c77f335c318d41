//! The `solve-race` workload: `Solver::solve` under the lab `race`
//! portfolio, called in-process one solve at a time over the lab `quick`
//! scenarios reseeded from the workload seed.

use crate::check::check_report;
use crate::corpus::{quick_cases, quick_config, Case};
use crate::trace::Tracer;
use crate::{
    end_to_end, median, ratio, tally_failures, EngineTally, Framing, Metrics, Op, Opts, Outcome,
};
use bisched_core::{SolveReport, Solver};
use bisched_service::{frame, AttemptData, Response};
use std::time::{Duration, Instant};

/// Reseeded copies of each quick scenario: the race's per-solve times are
/// bimodal (sub-millisecond proofs, 100 ms budget exhaustions), so the
/// median needs many cells to sit still.
const VARIANTS: usize = 16;

/// The daemon's `ok` response for a report (what a client of the
/// service receives for the same solve).
fn response_of(report: &SolveReport) -> Response {
    let mut r = Response::ok(None);
    r.method = Some(report.method.name().to_string());
    r.guarantee = Some(report.guarantee.to_string());
    r.makespan_num = Some(report.makespan.num());
    r.makespan_den = Some(report.makespan.den());
    r.lower_bound_num = Some(report.lower_bound.num());
    r.lower_bound_den = Some(report.lower_bound.den());
    r.assignment = Some(report.schedule.assignment().to_vec());
    r.cached = Some(false);
    r.time_ms = Some(report.total_time.as_secs_f64() * 1e3);
    r.attempts = Some(report.attempts.iter().map(AttemptData::from_run).collect());
    r
}

/// Times `f`, inside a span when tracing.
fn timed<T>(
    tracer: &mut Option<Tracer>,
    name: &'static str,
    rid: u64,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    let t1 = Instant::now();
    if let Some(t) = tracer {
        t.record(name, rid, None, t0, t1);
    }
    (out, (t1 - t0).as_secs_f64() * 1e3)
}

/// Encodes and decodes the response in both framings; returns the JSON
/// and binary round-trip times in milliseconds.
fn codec(resp: &Response, tracer: &mut Option<Tracer>, rid: u64) -> Result<(f64, f64), String> {
    let (text, a) = timed(tracer, "wire.json_encode", rid, || {
        serde_json::to_string(resp)
    });
    let text = text.map_err(|e| e.to_string())?;
    let (back, b) = timed(tracer, "wire.json_decode", rid, || {
        serde_json::from_str::<Response>(&text)
    });
    back.map_err(|e| e.to_string())?;
    let (payload, c) = timed(tracer, "wire.binary_encode", rid, || {
        let mut out = Vec::new();
        serde_json::to_value(resp).map(|v| frame::encode_value(&v, &mut out))?;
        Ok::<_, serde_json::Error>(out)
    });
    let payload = payload.map_err(|e| e.to_string())?;
    let (back, d) = timed(tracer, "wire.binary_decode", rid, || {
        serde_json::from_value::<Response>(frame::decode_value(&payload)?)
            .map_err(|e| e.to_string())
    });
    back?;
    Ok((a + b, c + d))
}

struct Phase {
    ops: Vec<Op>,
    models: Vec<(u64, char)>,
    tally: EngineTally,
    tracer: Option<Tracer>,
}

/// Solves the corpus round-robin from position `*next` until `seconds`
/// have passed, checking every report; leaves `*next` where it stopped.
fn drive(
    solver: &Solver,
    cases: &[Case],
    next: &mut u64,
    phase: u64,
    seconds: f64,
    mut tracer: Option<Tracer>,
) -> Phase {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut out = Phase {
        ops: Vec::new(),
        models: Vec::new(),
        tally: EngineTally::default(),
        tracer: None,
    };
    while Instant::now() < deadline {
        let case = &cases[(*next % cases.len() as u64) as usize];
        let rid = (phase << 40) | *next;
        let (solved, ms) = timed(&mut tracer, "solver.solve", rid, || {
            solver.solve(&case.instance)
        });
        let (result, codec_ms) = match solved {
            Ok(report) => {
                out.tally.add_report(&report);
                match codec(&response_of(&report), &mut tracer, rid) {
                    Ok(c) => (check_report(&case.data, &report), Some(c)),
                    Err(e) => (Err(format!("codec: {e}")), None),
                }
            }
            Err(e) => (Err(e.to_string()), None),
        };
        out.ops.push(Op {
            lat_ms: ms,
            framing: Framing::InProcess,
            codec_ms,
            server_ms: None,
            result: result.map_err(|e| format!("{}: {e}", case.name)),
        });
        out.models.push((rid, case.model()));
        *next += 1;
    }
    out.tracer = tracer;
    out
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let solver = quick_config("race")
        .config
        .build()
        .map_err(|e| e.to_string())?;
    let max_jobs = opts.tiny.then_some(20);
    // Set-up: build the corpus and solve one copy of each scenario, which
    // warms lazy state. Repeated; the last corpus is measured.
    let mut setups = Vec::new();
    let mut cases = Vec::new();
    for _ in 0..opts.setup_reps() {
        let t0 = Instant::now();
        cases = quick_cases(opts.seed, VARIANTS, max_jobs);
        for case in &cases[..cases.len() / VARIANTS] {
            let report = solver
                .solve(&case.instance)
                .map_err(|e| format!("warm-up {}: {e}", case.name))?;
            check_report(&case.data, &report).map_err(|e| format!("warm-up {}: {e}", case.name))?;
        }
        setups.push(t0.elapsed().as_secs_f64());
    }
    if cases.is_empty() {
        return Err("empty corpus".into());
    }
    let mut failures = Vec::new();
    let mut next = 0;

    if !opts.trace {
        let ops = drive(&solver, &cases, &mut next, 0, opts.seconds, None).ops;
        return Ok(Outcome {
            attempted: ops.len() as u64,
            failed: tally_failures(&ops, &mut failures),
            failures,
            mismatched: 0,
            hooks_sent: 0,
            metrics: end_to_end(opts.workload, &ops, None, &setups),
            spans: None,
        });
    }

    let half = opts.seconds / 2.0;
    let plain = drive(&solver, &cases, &mut next, 8, half, None);
    let tracer = Some(Tracer::new(Instant::now()));
    let traced = drive(&solver, &cases, &mut next, 9, half, tracer);
    let mut failed = tally_failures(&plain.ops, &mut failures);
    failed += tally_failures(&traced.ops, &mut failures);
    let tracer = traced.tracer.expect("traced phase keeps its tracer");

    let mut m = Metrics::per_layer();
    let layers = tracer.layer_us_by_request();
    let layer = |name: &str| -> Vec<f64> {
        layers
            .values()
            .filter_map(|l| l.get(name).copied())
            .collect()
    };
    for name in [
        "json_decode",
        "json_encode",
        "binary_decode",
        "binary_encode",
    ] {
        m.set(
            &format!("wire.{name}_us"),
            median(&layer(&format!("wire.{name}"))),
        );
    }
    for model in ['P', 'Q', 'R'] {
        let v: Vec<f64> = traced
            .models
            .iter()
            .filter(|(_, m)| *m == model)
            .filter_map(|(rid, _)| layers.get(rid).and_then(|l| l.get("solver.solve").copied()))
            .collect();
        m.set(&format!("solver.solve_p50_us.{model}"), median(&v));
    }
    let lat: Vec<f64> = traced.ops.iter().map(|o| o.lat_ms).collect();
    let plain_lat: Vec<f64> = plain.ops.iter().map(|o| o.lat_ms).collect();
    m.set(
        "trace.closure_frac",
        ratio(median(&layer("solver.solve")) / 1e3, median(&lat)),
    );
    m.set("trace.overhead_p50_ms", median(&lat) - median(&plain_lat));
    traced.tally.metrics(&mut m);

    Ok(Outcome {
        attempted: (plain.ops.len() + traced.ops.len()) as u64,
        failed,
        failures,
        mismatched: 0,
        hooks_sent: 0,
        metrics: m,
        spans: Some(tracer),
    })
}
