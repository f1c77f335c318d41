//! Property tests for the model substrate: exact rational arithmetic,
//! serialization roundtrips, bound monotonicity, list-scheduling safety.

use bisched_graph::Graph;
use bisched_model::{
    assign_min_completion_uniform, capacity_lower_bound, floor_capacities, from_text, gcd,
    lpt_order, min_time_to_cover, to_text, Instance, InstanceData, Rat, Schedule,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn rat_ordering_is_total_and_consistent(
        (a, b, c, d, e, f) in (1u64..1000, 1u64..1000, 1u64..1000, 1u64..1000, 1u64..1000, 1u64..1000)
    ) {
        let x = Rat::new(a, b);
        let y = Rat::new(c, d);
        let z = Rat::new(e, f);
        // Antisymmetry via exact values.
        prop_assert_eq!(x == y, a * d == c * b);
        // Transitivity (sampled).
        if x <= y && y <= z {
            prop_assert!(x <= z);
        }
        // Cross-check against f64 when far from ties.
        let fx = a as f64 / b as f64;
        let fy = c as f64 / d as f64;
        if (fx - fy).abs() > 1e-6 {
            prop_assert_eq!(x < y, fx < fy);
        }
    }

    #[test]
    fn rat_arithmetic_laws((a, b, c, d) in (0u64..500, 1u64..500, 0u64..500, 1u64..500)) {
        let x = Rat::new(a, b);
        let y = Rat::new(c, d);
        // Commutativity.
        prop_assert_eq!(x.add(&y), y.add(&x));
        prop_assert_eq!(x.mul(&y), y.mul(&x));
        // Identity elements.
        prop_assert_eq!(x.add(&Rat::ZERO), x);
        prop_assert_eq!(x.mul(&Rat::integer(1)), x);
        prop_assert_eq!(x.mul_int(0), Rat::ZERO);
        // floor <= value <= ceil, tight within 1.
        prop_assert!(Rat::integer(x.floor()) <= x);
        prop_assert!(x <= Rat::integer(x.ceil()));
        prop_assert!(x.ceil() - x.floor() <= 1);
        // gcd normalization: num/den coprime.
        prop_assert_eq!(gcd(x.num().max(1), x.den()), if x.num() == 0 { x.den() } else { 1 });
    }

    #[test]
    fn min_cover_scales_with_speed(
        speeds in proptest::collection::vec(1u64..30, 1..8),
        demand in 1u64..500,
        factor in 1u64..5,
    ) {
        // Scaling every speed by `factor` divides the cover time exactly.
        let t1 = min_time_to_cover(&speeds, demand);
        let fast: Vec<u64> = speeds.iter().map(|&s| s * factor).collect();
        let t2 = min_time_to_cover(&fast, demand);
        prop_assert_eq!(t2.mul_int(factor), t1);
        // Capacities at the cover time meet the demand exactly enough.
        let caps: u64 = floor_capacities(&speeds, &t1).iter().sum();
        prop_assert!(caps >= demand);
    }

    #[test]
    fn capacity_lb_never_exceeds_any_schedule(
        speeds in proptest::collection::vec(1u64..10, 1..5),
        processing in proptest::collection::vec(1u64..20, 1..10),
        seed in 0u64..1000,
    ) {
        let n = processing.len();
        let inst = Instance::uniform(speeds.clone(), processing.clone(), Graph::empty(n)).unwrap();
        let lb = capacity_lower_bound(&inst.speeds(), &processing);
        // Any assignment whatsoever has makespan >= lb.
        let assignment: Vec<u32> =
            (0..n).map(|j| ((seed + j as u64) % speeds.len() as u64) as u32).collect();
        let s = Schedule::new(assignment);
        prop_assert!(s.makespan(&inst) >= lb);
    }

    #[test]
    fn text_roundtrip_arbitrary_q(
        speeds in proptest::collection::vec(1u64..50, 1..6),
        processing in proptest::collection::vec(1u64..99, 0..12),
        edge_mask in proptest::collection::vec(any::<bool>(), 66),
    ) {
        let n = processing.len();
        let mut edges = Vec::new();
        let mut idx = 0;
        for u in 0..n {
            for v in u + 1..n {
                if idx < edge_mask.len() && edge_mask[idx] {
                    edges.push((u as u32, v as u32));
                }
                idx += 1;
            }
        }
        let inst = Instance::uniform(speeds, processing, Graph::from_edges(n, &edges)).unwrap();
        let back = from_text(&to_text(&inst)).unwrap();
        prop_assert_eq!(back.speeds(), inst.speeds());
        prop_assert_eq!(back.processing_all(), inst.processing_all());
        prop_assert_eq!(back.graph(), inst.graph());
        // And through the serde mirror.
        let data = InstanceData::from_instance(&inst);
        let back2 = data.into_instance().unwrap();
        prop_assert_eq!(back2.graph(), inst.graph());
    }

    #[test]
    fn list_scheduling_conserves_work(
        speeds in proptest::collection::vec(1u64..8, 2..5),
        processing in proptest::collection::vec(1u64..20, 1..15),
    ) {
        let n = processing.len();
        let jobs: Vec<u32> = (0..n as u32).collect();
        let order = lpt_order(&processing, &jobs);
        // LPT order is a permutation sorted by size.
        prop_assert_eq!(order.len(), n);
        for w in order.windows(2) {
            prop_assert!(processing[w[0] as usize] >= processing[w[1] as usize]);
        }
        let group: Vec<u32> = (0..speeds.len() as u32).collect();
        let mut loads = vec![0u64; speeds.len()];
        let mut out = vec![u32::MAX; n];
        assign_min_completion_uniform(&speeds, &processing, &order, &group, &mut loads, &mut out);
        prop_assert_eq!(loads.iter().sum::<u64>(), processing.iter().sum::<u64>());
        prop_assert!(out.iter().all(|&i| (i as usize) < speeds.len()));
    }
}

/// Deterministic Fisher–Yates driven by a splitmix64 stream, so the
/// relabeling proptests need no extra dependencies.
fn shuffled(n: usize, seed: u64) -> Vec<u32> {
    let mut state = seed.wrapping_add(0x9e3779b97f4a7c15);
    let mut next = move || {
        state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    };
    let mut perm: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let k = (next() % (i as u64 + 1)) as usize;
        perm.swap(i, k);
    }
    perm
}

/// Builds the edge list selected by `mask` over all pairs of `n` jobs.
fn edges_from_mask(n: usize, mask: &[bool]) -> Vec<(u32, u32)> {
    let mut edges = Vec::new();
    let mut idx = 0;
    for u in 0..n {
        for v in u + 1..n {
            if idx < mask.len() && mask[idx] {
                edges.push((u as u32, v as u32));
            }
            idx += 1;
        }
    }
    edges
}

/// Applies the job permutation `perm` (new id of old job `j` is
/// `perm[j]`) to an edge list.
fn relabel_edges(edges: &[(u32, u32)], perm: &[u32]) -> Vec<(u32, u32)> {
    edges
        .iter()
        .map(|&(u, v)| (perm[u as usize], perm[v as usize]))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn text_roundtrip_arbitrary_p_and_r(
        m in 1usize..5,
        processing in proptest::collection::vec(1u64..50, 1..10),
        edge_mask in proptest::collection::vec(any::<bool>(), 45),
        times_flat in proptest::collection::vec(1u64..60, 40),
    ) {
        let n = processing.len();
        let edges = edges_from_mask(n, &edge_mask);
        let p = Instance::identical(m, processing, Graph::from_edges(n, &edges)).unwrap();
        let back = from_text(&to_text(&p)).unwrap();
        prop_assert_eq!(back.num_machines(), p.num_machines());
        prop_assert_eq!(back.processing_all(), p.processing_all());
        prop_assert_eq!(back.graph(), p.graph());

        let times: Vec<Vec<u64>> = (0..m)
            .map(|i| (0..n).map(|j| times_flat[(i * n + j) % times_flat.len()]).collect())
            .collect();
        let r = Instance::unrelated(times.clone(), Graph::from_edges(n, &edges)).unwrap();
        let back = from_text(&to_text(&r)).unwrap();
        prop_assert_eq!(back.graph(), r.graph());
        for i in 0..m as u32 {
            for j in 0..n as u32 {
                prop_assert_eq!(back.unrelated_time(i, j), r.unrelated_time(i, j));
            }
        }
    }

    #[test]
    fn canonicalize_twice_equals_canonicalize_once(
        kind in 0u8..3,
        m in 1usize..4,
        processing in proptest::collection::vec(1u64..6, 1..10),
        speeds in proptest::collection::vec(1u64..5, 1..4),
        edge_mask in proptest::collection::vec(any::<bool>(), 45),
        times_flat in proptest::collection::vec(1u64..8, 40),
    ) {
        let n = processing.len();
        let g = Graph::from_edges(n, &edges_from_mask(n, &edge_mask));
        let inst = match kind {
            0 => Instance::identical(m, processing, g).unwrap(),
            1 => Instance::uniform(speeds, processing, g).unwrap(),
            _ => {
                let times: Vec<Vec<u64>> = (0..m)
                    .map(|i| (0..n).map(|j| times_flat[(i * n + j) % times_flat.len()]).collect())
                    .collect();
                Instance::unrelated(times, g).unwrap()
            }
        };
        let once = bisched_model::canonicalize(&inst);
        let twice = bisched_model::canonicalize(&once.instance);
        prop_assert_eq!(&once.certificate, &twice.certificate);
        prop_assert_eq!(once.fingerprint, twice.fingerprint);
        // The canonical instance is its own normal form.
        prop_assert_eq!(
            InstanceData::from_instance(&once.instance),
            InstanceData::from_instance(&twice.instance)
        );
    }

    #[test]
    fn isomorphic_relabelings_share_a_fingerprint(
        kind in 0u8..3,
        m in 1usize..4,
        processing in proptest::collection::vec(1u64..6, 1..10),
        speeds in proptest::collection::vec(1u64..5, 1..4),
        edge_mask in proptest::collection::vec(any::<bool>(), 45),
        times_flat in proptest::collection::vec(1u64..8, 40),
        seed in 0u64..10_000,
    ) {
        let n = processing.len();
        let edges = edges_from_mask(n, &edge_mask);
        let jp = shuffled(n, seed); // new id of old job j
        let relabeled_p: Vec<u64> = {
            let mut p = vec![0u64; n];
            for j in 0..n {
                p[jp[j] as usize] = processing[j];
            }
            p
        };
        let g = Graph::from_edges(n, &edges);
        let rg = Graph::from_edges(n, &relabel_edges(&edges, &jp));
        let (a, b) = match kind {
            0 => (
                Instance::identical(m, processing, g).unwrap(),
                Instance::identical(m, relabeled_p, rg).unwrap(),
            ),
            1 => (
                Instance::uniform(speeds.clone(), processing, g).unwrap(),
                Instance::uniform(speeds, relabeled_p, rg).unwrap(),
            ),
            _ => {
                let times: Vec<Vec<u64>> = (0..m)
                    .map(|i| (0..n).map(|j| times_flat[(i * n + j) % times_flat.len()]).collect())
                    .collect();
                let mp = shuffled(m, seed ^ 0xABCD); // new id of old machine i
                let mut rt = vec![vec![0u64; n]; m];
                for i in 0..m {
                    for j in 0..n {
                        rt[mp[i] as usize][jp[j] as usize] = times[i][j];
                    }
                }
                (
                    Instance::unrelated(times, g).unwrap(),
                    Instance::unrelated(rt, rg).unwrap(),
                )
            }
        };
        let ca = bisched_model::canonicalize(&a);
        let cb = bisched_model::canonicalize(&b);
        prop_assert_eq!(ca.fingerprint, cb.fingerprint);
        prop_assert_eq!(&ca.certificate, &cb.certificate);
        // Both canonical instances are literally the same data.
        prop_assert_eq!(
            InstanceData::from_instance(&ca.instance),
            InstanceData::from_instance(&cb.instance)
        );
    }
}

/// Applies job permutation `jp` (and, for `R`, machine permutation `mp`)
/// to an instance: old job `j` becomes `jp[j]`, old machine `i` becomes
/// `mp[i]`.
fn relabeled(data: &InstanceData, jp: &[u32], mp: &[u32]) -> InstanceData {
    let permute = |row: &[u64]| {
        let mut out = vec![0u64; row.len()];
        for (j, &x) in row.iter().enumerate() {
            out[jp[j] as usize] = x;
        }
        out
    };
    let mut out = data.clone();
    out.processing = data.processing.as_deref().map(permute);
    out.times = data.times.as_ref().map(|times| {
        let mut rows = vec![Vec::new(); times.len()];
        for (i, row) in times.iter().enumerate() {
            rows[mp[i] as usize] = permute(row);
        }
        rows
    });
    out.edges = relabel_edges(&data.edges, jp);
    out
}

/// The service's benchmark mix: `P`, `Q` and `R` at n = 200 and 800 on
/// critical-window Gilbert and bounded-degree graphs. Every seeded job
/// (and, for `R`, machine) relabeling must reach the same normal form,
/// and the normal form must be its own.
#[test]
fn canonical_form_is_invariant_at_benchmark_scale() {
    use bisched_graph::{bounded_degree_bipartite, gilbert_bipartite};
    use bisched_model::{JobSizes, SpeedProfile, UnrelatedFamily};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let mut rng = StdRng::seed_from_u64(2106);
    for n in [200usize, 800] {
        let side = n / 2;
        for graph_kind in 0..2 {
            for model in 0..3 {
                let g = if graph_kind == 0 {
                    gilbert_bipartite(side, side, 2.0 / side as f64, &mut rng)
                } else {
                    bounded_degree_bipartite(side, side, 4, 0.8, &mut rng)
                };
                let sizes = JobSizes::Uniform { lo: 1, hi: 30 }.sample(n, &mut rng);
                let inst = match model {
                    0 => Instance::identical(4, sizes, g),
                    1 => {
                        Instance::uniform(SpeedProfile::Geometric { ratio: 2 }.speeds(3), sizes, g)
                    }
                    _ => Instance::unrelated(
                        UnrelatedFamily::Uncorrelated { lo: 1, hi: 40 }.sample(3, n, &mut rng),
                        g,
                    ),
                }
                .unwrap();
                let data = InstanceData::from_instance(&inst);
                let base = bisched_model::canonicalize(&inst);
                let normal = InstanceData::from_instance(&base.instance);
                let case = format!("n={n} graph={graph_kind} model={model}");
                for seed in 0..4u64 {
                    let jp = shuffled(n, seed);
                    let mp = shuffled(inst.num_machines(), seed ^ 0xABCD);
                    let other = relabeled(&data, &jp, &mp).into_instance().unwrap();
                    let c = bisched_model::canonicalize(&other);
                    assert!(c.certificate == base.certificate, "{case} seed={seed}");
                    assert_eq!(InstanceData::from_instance(&c.instance), normal, "{case}");
                }
                let again = bisched_model::canonicalize(&base.instance);
                assert!(
                    again.certificate == base.certificate,
                    "{case}: not idempotent"
                );
                assert_eq!(
                    InstanceData::from_instance(&again.instance),
                    normal,
                    "{case}"
                );
            }
        }
    }
}
