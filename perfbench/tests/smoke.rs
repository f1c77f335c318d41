//! The benchmark's own checks: every workload at a tiny size prints every
//! metric `BENCHMARK.json` declares, with its unit; the daemon is driven
//! with default options and no benchmark-only protocol knobs; and the
//! schedule check rejects corrupted answers.

use bisched_model::Schedule;
use bisched_perfbench::check::check_response;
use bisched_perfbench::daemon::{serve_options, solve_request, MISS_CACHE_CAP};
use bisched_perfbench::{corpus, run, Opts, Workload};
use bisched_service::{Client, ServeOptions, Service};
use serde_json::Value;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::parse_value(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.as_object().and_then(|o| o.get(key)) {
        Some(Value::Array(items)) => items,
        other => panic!("`{key}` is not an array: {other:?}"),
    }
}

fn field<'a>(v: &'a Value, key: &str) -> &'a str {
    v.as_object()
        .and_then(|o| o.get(key))
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("missing string `{key}` in {v}"))
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    list(&benchmark_json(), section)
        .iter()
        .map(|m| (field(m, "name").to_string(), field(m, "unit").to_string()))
        .collect()
}

fn tiny(workload: Workload, trace: bool) -> Opts {
    Opts {
        workload,
        seed: 7,
        seconds: 0.3,
        trace,
        tiny: true,
        trace_dir: None,
    }
}

#[test]
fn every_workload_prints_every_declared_metric_with_its_unit() {
    let json = benchmark_json();
    let names: Vec<&str> = list(&json, "workloads")
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    assert_eq!(names, Workload::ALL.map(Workload::name));
    for workload in Workload::ALL {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let outcome = run(&tiny(workload, trace)).expect("tiny run completes");
            assert!(
                outcome.correct(),
                "{} (trace {trace}) failed: {:?}",
                workload.name(),
                outcome.failures
            );
            assert!(outcome.attempted >= 1);
            let line = serde_json::parse_value(&outcome.result_line()).expect("result line parses");
            let metrics = line
                .as_object()
                .and_then(|o| o.get("metrics"))
                .and_then(Value::as_object)
                .expect("metrics object");
            let printed: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    assert!(
                        m.as_object()
                            .and_then(|o| o.get("value"))
                            .and_then(Value::as_f64)
                            .is_some(),
                        "{name} has no numeric value"
                    );
                    (name.clone(), field(m, "unit").to_string())
                })
                .collect();
            assert_eq!(
                printed,
                declared(section),
                "{} trace {trace}",
                workload.name()
            );
        }
    }
}

#[test]
fn daemon_runs_with_default_options_and_no_benchmark_hooks() {
    let default = format!("{:?}", ServeOptions::default());
    assert_eq!(format!("{:?}", serve_options(Workload::DaemonHit)), default);
    let miss = ServeOptions {
        cache_cap: MISS_CACHE_CAP,
        ..ServeOptions::default()
    };
    assert_eq!(
        format!("{:?}", serve_options(Workload::DaemonMiss)),
        format!("{miss:?}")
    );
    let item = &corpus::daemon_items(1, corpus::TINY_SIZES, 1)[0];
    let req = solve_request(item.data.clone(), 1);
    assert!(req.stall_us.is_none() && req.no_cache.is_none());
    for workload in [Workload::DaemonHit, Workload::DaemonMiss] {
        let outcome = run(&tiny(workload, false)).expect("tiny run completes");
        assert_eq!(outcome.hooks_sent, 0, "{}", workload.name());
    }
}

#[test]
fn schedule_check_rejects_corrupted_answers() {
    let service = Service::start(ServeOptions::default()).expect("boot");
    let mut client = Client::connect(service.local_addr()).expect("connect");
    let item = corpus::daemon_items(3, corpus::TINY_SIZES, 1)
        .into_iter()
        .find(|i| i.data.env == "Q" && !i.data.edges.is_empty())
        .expect("a Q item with edges");
    let resp = client
        .request(&solve_request(item.data.clone(), 1))
        .expect("solve");
    check_response(&item.data, &resp).expect("the daemon's own answer is valid");

    // Two incompatible jobs on one machine, with the makespan restated so
    // that only the conflict is wrong.
    let (u, v) = item.data.edges[0];
    let mut conflict = resp.clone();
    let mut assignment = resp.assignment.clone().unwrap();
    assignment[u as usize] = assignment[v as usize];
    let inst = item.data.clone().into_instance().expect("valid instance");
    let c_max = Schedule::new(assignment.clone()).makespan(&inst);
    conflict.assignment = Some(assignment);
    conflict.makespan_num = Some(c_max.num());
    conflict.makespan_den = Some(c_max.den());
    let mut short = resp.clone();
    short.assignment.as_mut().unwrap().pop();
    let mut makespan = resp.clone();
    makespan.makespan_num = makespan.makespan_num.map(|n| n + 1);
    let mut bound = resp.clone();
    bound.lower_bound_num = Some(resp.makespan_num.unwrap() * resp.lower_bound_den.unwrap() + 1);
    bound.lower_bound_den = resp.makespan_den;
    let mut busy = resp.clone();
    busy.status = "busy".into();
    for (what, bad) in [
        ("conflicting pair", conflict),
        ("short assignment", short),
        ("wrong makespan", makespan),
        ("makespan below the lower bound", bound),
        ("busy", busy),
    ] {
        assert!(
            check_response(&item.data, &bad).is_err(),
            "{what} passed the check"
        );
    }
    client.shutdown_server().expect("shutdown");
    drop(client);
    service.join();
}
