//! The `daemon-hit` and `daemon-miss` workloads: an in-process
//! `bisched-service` daemon under a closed loop of one client per core
//! (one speaking JSON lines, one the binary framing).

use crate::check::check_response;
use crate::corpus::{self, mix, DaemonItem};
use crate::trace::Tracer;
use crate::{
    end_to_end, median, ratio, tally_failures, EngineTally, Framing, Metrics, Op, Opts, Outcome,
    Workload,
};
use bisched_core::{SolveReport, Solver};
use bisched_model::{canonicalize, Canonical, InstanceData, Schedule};
use bisched_service::{
    frame, Client, LruCache, Request, Response, ServeOptions, Service, StatsData,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `daemon-miss`'s per-shard cache capacity: far below the number of
/// distinct instances a run sends, so every solve inserts and evicts.
pub const MISS_CACHE_CAP: usize = 64;

/// Graphs per family and model in the working set: enough distinct
/// instances that per-seed instance costs average out.
const GRAPHS_PER_FAMILY: usize = 12;

/// Responses a traced run keeps per client for the layer replay.
const REPLAY_KEEP: usize = 4000;

/// The daemon's options: the defaults, except `daemon-miss`'s cache cap.
pub fn serve_options(workload: Workload) -> ServeOptions {
    let mut opts = ServeOptions::default();
    if workload == Workload::DaemonMiss {
        opts.cache_cap = MISS_CACHE_CAP;
    }
    opts
}

/// The only way the benchmark builds a solve request: the instance and a
/// correlation id, no benchmark-only knobs.
pub fn solve_request(data: InstanceData, id: u64) -> Request {
    let mut req = Request::solve(data);
    req.id = Some(id);
    req
}

fn uses_hooks(req: &Request) -> bool {
    req.stall_us.is_some() || req.no_cache.is_some()
}

/// How op `k` of a client derives its instance from the working-set item:
/// `None` sends the item byte-identically, `Some(seed)` a relabeling
/// (hit) or a resampled, never-seen instance (miss).
fn variant(workload: Workload, seed: u64, rid: u64, k: u64) -> Option<u64> {
    let repeat = workload == Workload::DaemonHit && k.is_multiple_of(2);
    (!repeat).then(|| mix(seed, rid))
}

fn instance_for(workload: Workload, item: &DaemonItem, variant: Option<u64>) -> InstanceData {
    match (workload, variant) {
        (_, None) => item.data.clone(),
        (Workload::DaemonMiss, Some(s)) => corpus::resample(item, s),
        (_, Some(s)) => corpus::relabel(&item.data, s),
    }
}

struct Daemon {
    service: Service,
    clients: Vec<(Client, Framing)>,
    control: Client,
}

/// The engine counters of one solve, per attempt (wall times excluded).
type Counters = Vec<(String, Vec<(String, u64)>)>;

impl Daemon {
    /// Boots the daemon, connects the load clients, and sends every
    /// working-set item once (checked), which fills the cache. Returns the
    /// engine counters of each of those solves.
    fn boot(workload: Workload, items: &[DaemonItem]) -> Result<(Daemon, Vec<Counters>), String> {
        let service = Service::start(serve_options(workload)).map_err(|e| format!("boot: {e}"))?;
        let mut control =
            Client::connect(service.local_addr()).map_err(|e| format!("connect: {e}"))?;
        let mut counters = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            let resp = control
                .request(&solve_request(item.data.clone(), i as u64))
                .map_err(|e| format!("warm-up: {e}"))?;
            check_response(&item.data, &resp)
                .map_err(|e| format!("warm-up {}: {e}", item.scenario.name))?;
            let attempts = resp.attempts.unwrap_or_default();
            counters.push(attempts.into_iter().map(|a| (a.method, a.stats)).collect());
        }
        let mut daemon = Daemon {
            service,
            clients: Vec::new(),
            control,
        };
        daemon.reconnect()?;
        Ok((daemon, counters))
    }

    /// Replaces the load clients with fresh connections (one JSON lines,
    /// one binary framing), which the daemon serves on fresh threads.
    fn reconnect(&mut self) -> Result<(), String> {
        let addr = self.service.local_addr();
        let connect = || Client::connect(addr).map_err(|e| format!("connect: {e}"));
        let json = connect()?;
        let mut binary = connect()?;
        binary
            .upgrade_binary()
            .map_err(|e| format!("upgrade: {e}"))?;
        self.clients = vec![(json, Framing::Json), (binary, Framing::Binary)];
        Ok(())
    }

    fn stats(&mut self) -> Result<StatsData, String> {
        self.control.stats().map_err(|e| format!("stats: {e}"))
    }

    fn stop(self) {
        let Daemon {
            service,
            clients,
            control,
        } = self;
        drop((clients, control));
        service.shutdown();
        service.join();
    }
}

/// What a traced run keeps of one op for the replay.
struct Record {
    rid: u64,
    item: usize,
    variant: Option<u64>,
    framing: Framing,
    response: Response,
}

#[derive(Default)]
struct ClientRun {
    ops: Vec<Op>,
    /// Traced requests' working-set items.
    items: Vec<(u64, usize)>,
    records: Vec<Record>,
    tally: EngineTally,
    hooks: u64,
    tracer: Option<Tracer>,
}

/// One client's closed loop until `deadline`.
#[allow(clippy::too_many_arguments)]
fn client_loop(
    client: &mut Client,
    framing: Framing,
    ci: u64,
    workload: Workload,
    seed: u64,
    items: &[DaemonItem],
    phase: u64,
    deadline: Instant,
    tracer: Option<Tracer>,
) -> ClientRun {
    let mut run = ClientRun {
        tracer,
        ..ClientRun::default()
    };
    let len = items.len() as u64;
    let mut order = Vec::new();
    let mut k = 0u64;
    while Instant::now() < deadline {
        let rid = (phase << 40) | (ci << 32) | k;
        if k.is_multiple_of(len) {
            // Each client walks the working set in its own order, shuffled
            // anew every pass, so which requests meet in the daemon varies.
            let mut rng = StdRng::seed_from_u64(mix(seed, rid));
            order = corpus::permutation(items.len(), &mut rng);
        }
        let idx = order[(k % len) as usize] as usize;
        let variant = variant(workload, seed, rid, k);
        let req = solve_request(instance_for(workload, &items[idx], variant), rid);
        run.hooks += uses_hooks(&req) as u64;
        let t0 = Instant::now();
        let reply = client.request(&req);
        let t1 = Instant::now();
        let data = req
            .instance
            .as_ref()
            .expect("solve requests carry an instance");
        let (result, server_ms, broken) = match &reply {
            Ok(resp) => {
                let mut result = check_response(data, resp);
                if workload == Workload::DaemonMiss && resp.cached == Some(true) {
                    result = Err(format!("request {rid}: cache hit on a never-seen instance"));
                }
                (result, resp.time_ms, false)
            }
            Err(e) => (Err(format!("request {rid}: {e}")), None, true),
        };
        let answered = result.is_ok();
        run.ops.push(Op {
            lat_ms: (t1 - t0).as_secs_f64() * 1e3,
            framing,
            codec_ms: None,
            server_ms,
            result,
        });
        if let (Some(tracer), Ok(resp), true) = (run.tracer.as_mut(), reply, answered) {
            tracer.record("client.request", rid, None, t0, t1);
            run.items.push((rid, idx));
            run.tally.add_response(&resp);
            if run.records.len() < REPLAY_KEEP {
                run.records.push(Record {
                    rid,
                    item: idx,
                    variant,
                    framing,
                    response: resp,
                });
            }
        }
        if broken {
            break;
        }
        k += 1;
    }
    run
}

/// Runs every load client concurrently for `seconds`.
fn drive(
    daemon: &mut Daemon,
    opts: &Opts,
    items: &[DaemonItem],
    phase: u64,
    seconds: f64,
) -> Vec<ClientRun> {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let runs = std::thread::scope(|scope| {
        let handles: Vec<_> = daemon
            .clients
            .iter_mut()
            .enumerate()
            .map(|(ci, (client, framing))| {
                let framing = *framing;
                let tracer = opts.trace.then(|| Tracer::new(start));
                scope.spawn(move || {
                    client_loop(
                        client,
                        framing,
                        ci as u64,
                        opts.workload,
                        opts.seed,
                        items,
                        phase,
                        deadline,
                        tracer,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    runs
}

/// Shadow of the daemon's cache for the replay: an `LruCache` of the
/// daemon's capacity, fed the same stream.
struct Shadow {
    cache: LruCache,
    /// Stored on shadow inserts; the replay never reads it back.
    filler: Arc<SolveReport>,
}

impl Shadow {
    fn new(workload: Workload, items: &[DaemonItem]) -> Result<Shadow, String> {
        let mut cache = LruCache::new(serve_options(workload).cache_cap);
        let solver = Solver::new();
        let mut filler = None;
        // Hit: warm with the working set, as the daemon was. Miss: one
        // solve gives the filler.
        let warm = if workload == Workload::DaemonHit {
            items.len()
        } else {
            1
        };
        for item in &items[..warm] {
            let inst = item
                .data
                .clone()
                .into_instance()
                .map_err(|e| e.to_string())?;
            let canon = canonicalize(&inst);
            let report = Arc::new(
                solver
                    .solve(&canon.instance)
                    .map_err(|e| format!("shadow solve: {e}"))?,
            );
            filler.get_or_insert_with(|| Arc::clone(&report));
            if workload == Workload::DaemonHit {
                cache.insert(canon.fingerprint, canon.certificate.clone(), report);
            }
        }
        Ok(Shadow {
            cache,
            filler: filler.ok_or("empty working set")?,
        })
    }
}

/// The response's schedule in the canonical labeling of `canon`.
fn canonical_schedule(canon: &Canonical, assignment: &[u32]) -> Schedule {
    let mut inverse = vec![0u32; canon.machine_perm.len()];
    for (c, &orig) in canon.machine_perm.iter().enumerate() {
        if let Some(slot) = inverse.get_mut(orig as usize) {
            *slot = c as u32;
        }
    }
    Schedule::new(
        canon
            .job_perm
            .iter()
            .map(|&orig| inverse[assignment[orig as usize] as usize])
            .collect(),
    )
}

/// Replays the daemon's per-request layers for one recorded op, timing
/// each call: request encode/decode, instance build, canonicalize, cache
/// lookup (and insert on a miss), translate-back, response encode/decode.
fn replay(
    rec: &Record,
    data: InstanceData,
    shadow: &mut Shadow,
    t: &mut Tracer,
) -> Result<(), String> {
    let rid = rec.rid;
    let root = t.open("server.replay", rid, None);
    let p = Some(root);
    let req = solve_request(data, rid);
    let decoded: Request = match rec.framing {
        Framing::Binary => {
            let payload = t.time("wire.binary_encode", rid, p, || {
                let mut out = Vec::new();
                serde_json::to_value(&req).map(|v| frame::encode_value(&v, &mut out))?;
                Ok::<_, serde_json::Error>(out)
            });
            let payload = payload.map_err(|e| e.to_string())?;
            t.time("wire.binary_decode", rid, p, || {
                serde_json::from_value(frame::decode_value(&payload)?).map_err(|e| e.to_string())
            })?
        }
        _ => {
            let text = t.time("wire.json_encode", rid, p, || serde_json::to_string(&req));
            let text = text.map_err(|e| e.to_string())?;
            t.time("wire.json_decode", rid, p, || serde_json::from_str(&text))
                .map_err(|e| e.to_string())?
        }
    };
    let data = decoded
        .instance
        .ok_or("decoded request lost its instance")?;
    let inst = t
        .time("model.into_instance", rid, p, || data.into_instance())
        .map_err(|e| e.to_string())?;
    let canon = t.time("model.canonicalize", rid, p, || canonicalize(&inst));
    let hit = t.time("cache.get", rid, p, || {
        let certificate = canon.certificate.clone();
        shadow.cache.get(canon.fingerprint, &certificate)
    });
    let schedule = match hit {
        Some(report) => report.schedule.clone(),
        None => {
            let filler = Arc::clone(&shadow.filler);
            t.time("cache.insert", rid, p, || {
                shadow
                    .cache
                    .insert(canon.fingerprint, canon.certificate.clone(), filler)
            });
            let assignment = rec.response.assignment.as_deref().unwrap_or(&[]);
            canonical_schedule(&canon, assignment)
        }
    };
    t.time("model.translate_back", rid, p, || {
        canon.schedule_to_original(&schedule)
    });
    match rec.framing {
        Framing::Binary => {
            let payload = t.time("wire.binary_encode", rid, p, || {
                let mut out = Vec::new();
                serde_json::to_value(&rec.response).map(|v| frame::encode_value(&v, &mut out))?;
                Ok::<_, serde_json::Error>(out)
            });
            let payload = payload.map_err(|e| e.to_string())?;
            t.time("wire.binary_decode", rid, p, || {
                serde_json::from_value::<Response>(frame::decode_value(&payload)?)
                    .map_err(|e| e.to_string())
            })?;
        }
        _ => {
            let text = t.time("wire.json_encode", rid, p, || {
                serde_json::to_string(&rec.response)
            });
            let text = text.map_err(|e| e.to_string())?;
            t.time("wire.json_decode", rid, p, || {
                serde_json::from_str::<Response>(&text)
            })
            .map_err(|e| e.to_string())?;
        }
    }
    t.close(root);
    Ok(())
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let (sizes, per_graph) = if opts.tiny {
        (corpus::TINY_SIZES, 1)
    } else {
        (corpus::DAEMON_SIZES, GRAPHS_PER_FAMILY)
    };
    // Set-up: build the working set, boot, connect, warm. Repeated; the
    // last daemon is measured. Every set-up solves the same instances, so
    // their engine counters must repeat exactly.
    let mut setups = Vec::new();
    let mut failures = Vec::new();
    let mut mismatched = 0;
    let mut first: Option<Vec<Counters>> = None;
    let mut booted = None;
    for _ in 0..opts.setup_reps() {
        if let Some((daemon, _)) = booted.take() {
            Daemon::stop(daemon);
        }
        let t0 = Instant::now();
        let items = corpus::daemon_items(opts.seed, sizes, per_graph);
        let (daemon, counters) = Daemon::boot(opts.workload, &items)?;
        setups.push(t0.elapsed().as_secs_f64());
        match &first {
            None => first = Some(counters),
            Some(first) => {
                for ((item, want), got) in items.iter().zip(first).zip(&counters) {
                    if want != got {
                        mismatched += 1;
                        if failures.len() < 8 {
                            failures.push(format!(
                                "{}: engine counters {got:?} differ from the first set-up's {want:?}",
                                item.scenario.name
                            ));
                        }
                    }
                }
            }
        }
        booted = Some((daemon, items));
    }
    let (mut daemon, items) = booted.ok_or("no set-up ran")?;
    if opts.trace {
        return traced(opts, daemon, &items, sizes, mismatched, failures);
    }
    let (mut ops, mut hooks) = (Vec::new(), 0);
    let seconds = opts.seconds / opts.trials() as f64;
    for trial in 0..opts.trials() {
        if trial > 0 {
            daemon.reconnect()?;
        }
        let runs = drive(&mut daemon, opts, &items, trial as u64, seconds);
        hooks += runs.iter().map(|r| r.hooks).sum::<u64>();
        ops.extend(runs.into_iter().flat_map(|r| r.ops));
    }
    daemon.stop();
    Ok(Outcome {
        attempted: ops.len() as u64,
        failed: tally_failures(&ops, &mut failures),
        failures,
        mismatched,
        hooks_sent: hooks,
        metrics: end_to_end(opts.workload, &ops, Some(opts.seconds), &setups),
        spans: None,
    })
}

/// A traced run: an untraced half, then a traced half whose spans and
/// responses feed the layer replay.
fn traced(
    opts: &Opts,
    mut daemon: Daemon,
    items: &[DaemonItem],
    sizes: [usize; 3],
    mismatched: u64,
    mut failures: Vec<String>,
) -> Result<Outcome, String> {
    let shadow = Shadow::new(opts.workload, items);
    let plain_opts = Opts {
        trace: false,
        ..opts.clone()
    };
    let plain = drive(&mut daemon, &plain_opts, items, 8, opts.seconds / 2.0);
    let mut tracer = Tracer::new(Instant::now());
    let before = daemon.stats()?;
    let runs = drive(&mut daemon, opts, items, 9, opts.seconds / 2.0);
    let after = daemon.stats()?;
    daemon.stop();
    let mut shadow = shadow?;

    let plain_ops: Vec<Op> = plain.iter().flat_map(|r| r.ops.iter().cloned()).collect();
    let ops: Vec<Op> = runs.iter().flat_map(|r| r.ops.iter().cloned()).collect();
    let mut failed = tally_failures(&plain_ops, &mut failures);
    failed += tally_failures(&ops, &mut failures);
    let mut item_of: BTreeMap<u64, usize> = BTreeMap::new();
    let mut tally = EngineTally::default();
    let mut hooks = plain.iter().map(|r| r.hooks).sum::<u64>();
    let mut records = Vec::new();
    for mut run in runs {
        hooks += run.hooks;
        item_of.extend(run.items);
        tally.merge(run.tally);
        if let Some(t) = run.tracer.take() {
            tracer.merge(t);
        }
        records.push(run.records);
    }

    // Replay, alternating clients, within a time budget.
    let budget = Instant::now() + Duration::from_secs_f64((opts.seconds * 0.3).max(0.2));
    let longest = records.iter().map(Vec::len).max().unwrap_or(0);
    'replay: for i in 0..longest {
        for recs in &records {
            if Instant::now() > budget {
                break 'replay;
            }
            if let Some(rec) = recs.get(i) {
                let data = instance_for(opts.workload, &items[rec.item], rec.variant);
                replay(rec, data, &mut shadow, &mut tracer)?;
            }
        }
    }

    let mut m = Metrics::per_layer();
    let layers = tracer.layer_us_by_request();
    // Median over replayed requests (of items passing `keep`) of one
    // layer's self time.
    let layer = |name: &str, keep: &dyn Fn(usize) -> bool| -> f64 {
        let v: Vec<f64> = layers
            .iter()
            .filter(|(rid, _)| item_of.get(rid).is_some_and(|&i| keep(i)))
            .filter_map(|(_, l)| l.get(name).copied())
            .collect();
        median(&v)
    };
    for name in [
        "json_decode",
        "json_encode",
        "binary_decode",
        "binary_encode",
    ] {
        m.set(
            &format!("wire.{name}_us"),
            layer(&format!("wire.{name}"), &|_| true),
        );
    }
    for name in ["into_instance", "canonicalize", "translate_back"] {
        for (&n, &size) in corpus::DAEMON_SIZES.iter().zip(&sizes) {
            let v = layer(&format!("model.{name}"), &|i| items[i].jobs == size);
            m.set(&format!("model.{name}_us.n{n}"), v);
        }
    }
    m.set("cache.get_us", layer("cache.get", &|_| true));
    m.set("cache.insert_us", layer("cache.insert", &|_| true));

    let d = |f: fn(&StatsData) -> u64| f(&after).saturating_sub(f(&before)) as f64;
    let lookups = d(|s| s.cache_hits + s.cache_misses);
    m.set("cache.hit_ratio", ratio(d(|s| s.cache_hits), lookups));
    m.set(
        "cache.evictions",
        ratio(d(|s| s.cache_evictions), ops.len() as f64),
    );
    m.set("queue.busy", ratio(d(|s| s.busy), ops.len() as f64));
    let batches = d(|s| s.batches);
    m.set(
        "worker.batch_size_mean",
        ratio(d(|s| s.batched_jobs), batches),
    );
    // The latency histograms are cumulative since boot: with no batch in
    // the traced phase, the warm-up solves are all they hold.
    let (queue_ms, solve_ms) = if batches > 0.0 {
        (after.queue_p50_ms, after.solve_p50_ms)
    } else {
        (0.0, 0.0)
    };
    m.set("queue.wait_p50_ms", queue_ms);
    m.set("worker.solve_p50_ms", solve_ms);

    for (framing, name) in [(Framing::Json, "json"), (Framing::Binary, "binary")] {
        let v: Vec<f64> = ops
            .iter()
            .filter(|o| o.framing == framing)
            .filter_map(|o| o.server_ms.map(|s| (o.lat_ms - s) * 1e3))
            .collect();
        m.set(&format!("transport.overhead_p50_us.{name}"), median(&v));
    }
    let lat: Vec<f64> = ops.iter().map(|o| o.lat_ms).collect();
    let plain_lat: Vec<f64> = plain_ops.iter().map(|o| o.lat_ms).collect();
    let per_request: Vec<f64> = layers
        .values()
        .filter(|l| l.contains_key("server.replay"))
        .map(|l| {
            l.iter()
                .filter(|(name, _)| !matches!(**name, "server.replay" | "client.request"))
                .map(|(_, us)| us)
                .sum::<f64>()
        })
        .collect();
    let accounted_ms = median(&per_request) / 1e3 + queue_ms + solve_ms;
    m.set("trace.closure_frac", ratio(accounted_ms, median(&lat)));
    m.set("trace.overhead_p50_ms", median(&lat) - median(&plain_lat));
    m.set("repeat.counter_mismatches", mismatched as f64);
    tally.metrics(&mut m);

    Ok(Outcome {
        attempted: (plain_ops.len() + ops.len()) as u64,
        failed,
        failures,
        mismatched,
        hooks_sent: hooks,
        metrics: m,
        spans: Some(tracer),
    })
}
