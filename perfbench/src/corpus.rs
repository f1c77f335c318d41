//! Benchmark inputs. Every instance comes from the lab's [`Scenario`]
//! registry types (reseeded from the workload seed) and the model's
//! generators; this module only chooses shapes and seeds, relabels, and
//! resamples job sizes.

use bisched_graph::EdgeProbability;
use bisched_lab::scenarios::{suite, GraphFamily, ModelSpec, NamedConfig, Scenario};
use bisched_model::{Instance, InstanceData, JobSizes, SpeedProfile, UnrelatedFamily};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Job counts of the daemon workloads' size classes.
pub const DAEMON_SIZES: [usize; 3] = [50, 200, 800];
/// Job counts used by the smoke test in place of [`DAEMON_SIZES`].
pub const TINY_SIZES: [usize; 3] = [10, 20, 40];

/// Mixes a workload seed with a stream tag into an independent seed.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One daemon working-set instance and the scenario that generated it.
#[derive(Clone, Debug)]
pub struct DaemonItem {
    pub scenario: Scenario,
    pub data: InstanceData,
    pub jobs: usize,
}

/// The machine models every daemon size class carries: `P4` and `Q3`
/// reach Algorithm 1 / BJW, `Q2` and small-time `R2` the exact
/// two-machine DPs (so some answers are `optimal`), large-time `R2` the
/// FPTAS (every job takes at least 10^5 on machine 1, so the row mass of
/// even 50 jobs exceeds Auto's exact-DP budget), and `R3` the greedy
/// incumbent.
fn daemon_models() -> [ModelSpec; 6] {
    [
        ModelSpec::P { m: 4 },
        ModelSpec::Q {
            m: 3,
            profile: SpeedProfile::Geometric { ratio: 2 },
        },
        ModelSpec::Q {
            m: 2,
            profile: SpeedProfile::OneFast { factor: 3 },
        },
        ModelSpec::R {
            m: 2,
            family: UnrelatedFamily::Uncorrelated { lo: 1, hi: 40 },
        },
        ModelSpec::R {
            m: 2,
            family: UnrelatedFamily::Uncorrelated {
                lo: 100_000,
                hi: 1_000_000,
            },
        },
        ModelSpec::R {
            m: 3,
            family: UnrelatedFamily::Uncorrelated { lo: 1, hi: 40 },
        },
    ]
}

/// The daemon working set: every model of [`daemon_models`] at every size,
/// over `per_graph` critical-window Gilbert graphs and as many
/// bounded-degree graphs.
pub fn daemon_items(seed: u64, sizes: [usize; 3], per_graph: usize) -> Vec<DaemonItem> {
    let mut items = Vec::new();
    for (si, &n) in sizes.iter().enumerate() {
        for ((mi, model), copy) in daemon_models()
            .into_iter()
            .enumerate()
            .flat_map(|m| (0..per_graph).map(move |c| (m, c)))
        {
            let graphs = [
                GraphFamily::Gilbert {
                    n: n / 2,
                    regime: EdgeProbability::Critical { a: 2.0 },
                },
                GraphFamily::BoundedDegree {
                    n: n / 2,
                    max_deg: 4,
                },
            ];
            for (gi, graph) in graphs.into_iter().enumerate() {
                let tag = ((((si * 8 + mi) * 4 + gi) * 64) + copy) as u64;
                let scenario = Scenario {
                    name: format!(
                        "daemon-{}{}-n{n}-g{gi}-{copy}",
                        model.alpha(),
                        model.machines()
                    ),
                    model,
                    graph,
                    sizes: JobSizes::Uniform { lo: 1, hi: 30 },
                    seed: mix(seed, tag),
                };
                let inst = scenario.build();
                items.push(DaemonItem {
                    jobs: inst.num_jobs(),
                    data: InstanceData::from_instance(&inst),
                    scenario,
                });
            }
        }
    }
    items
}

/// Fisher–Yates shuffle of `0..n`.
pub fn permutation(n: usize, rng: &mut StdRng) -> Vec<u32> {
    let mut p: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        p.swap(i, j);
    }
    p
}

/// The same instance under a fresh job labeling and, for `Q` and `R`, a
/// fresh machine labeling: old job `j` becomes `perm[j]`.
pub fn relabel(data: &InstanceData, seed: u64) -> InstanceData {
    let mut rng = StdRng::seed_from_u64(seed);
    let jp = permutation(data.jobs, &mut rng);
    let permute_jobs = |v: &[u64]| {
        let mut out = vec![0; v.len()];
        for (j, &x) in v.iter().enumerate() {
            out[jp[j] as usize] = x;
        }
        out
    };
    let mut out = data.clone();
    out.edges = data
        .edges
        .iter()
        .map(|&(u, v)| (jp[u as usize], jp[v as usize]))
        .collect();
    out.processing = data.processing.as_deref().map(permute_jobs);
    if let Some(speeds) = &data.speeds {
        let mp = permutation(speeds.len(), &mut rng);
        let mut s = vec![0; speeds.len()];
        for (i, &x) in speeds.iter().enumerate() {
            s[mp[i] as usize] = x;
        }
        out.speeds = Some(s);
    }
    if let Some(times) = &data.times {
        let mp = permutation(times.len(), &mut rng);
        let mut t = vec![Vec::new(); times.len()];
        for (i, row) in times.iter().enumerate() {
            t[mp[i] as usize] = permute_jobs(row);
        }
        out.times = Some(t);
    }
    out
}

/// A new instance on the item's graph and machines with job sizes (or
/// the `R` time matrix) resampled from the item's distribution, so the
/// daemon has never seen it.
pub fn resample(item: &DaemonItem, seed: u64) -> InstanceData {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = item.data.clone();
    match item.scenario.model {
        ModelSpec::R { m, family } => out.times = Some(family.sample(m, item.jobs, &mut rng)),
        _ => out.processing = Some(item.scenario.sizes.sample(item.jobs, &mut rng)),
    }
    out
}

/// One in-process corpus entry.
#[derive(Clone, Debug)]
pub struct Case {
    pub name: String,
    pub instance: Instance,
    pub data: InstanceData,
}

impl Case {
    /// `'P'`, `'Q'`, or `'R'`.
    pub fn model(&self) -> char {
        self.data.env.chars().next().unwrap_or('?')
    }
}

/// The lab `quick` scenarios, each reseeded `variants` times from `seed`.
/// `max_jobs` drops larger scenarios (the smoke test's tiny corpus).
pub fn quick_cases(seed: u64, variants: usize, max_jobs: Option<usize>) -> Vec<Case> {
    let quick = suite("quick").expect("the lab registers the quick suite");
    let mut cases = Vec::new();
    for v in 0..variants {
        for sc in &quick.scenarios {
            let mut sc = sc.clone();
            sc.seed = mix(seed, (sc.seed << 8) | v as u64);
            let instance = sc.build();
            if max_jobs.is_some_and(|cap| instance.num_jobs() > cap) {
                continue;
            }
            cases.push(Case {
                name: format!("{}#{v}", sc.name),
                data: InstanceData::from_instance(&instance),
                instance,
            });
        }
    }
    cases
}

/// A named solver configuration of the lab `quick` suite (`auto`, `race`).
pub fn quick_config(name: &str) -> NamedConfig {
    suite("quick")
        .expect("the lab registers the quick suite")
        .configs
        .into_iter()
        .find(|c| c.name == name)
        .unwrap_or_else(|| panic!("the quick suite has no `{name}` config"))
}
