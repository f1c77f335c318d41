//! Canonical normal form and fingerprint for instances.
//!
//! Two instances that differ only in how jobs are numbered (and, for `R`,
//! how machines are numbered) describe the same scheduling problem. The
//! canonicalizer maps every member of such an isomorphism class to one
//! **normal form** — jobs renumbered by an invariant canonical order,
//! `R` machine rows sorted — and hashes its byte certificate to a stable
//! 128-bit [`fingerprint`](Canonical::fingerprint). That key is what lets
//! a solve cache serve a relabeled resubmission without re-solving.
//!
//! The canonical job order comes from iterated color refinement (jobs
//! start with invariant colors derived from their processing data, then
//! repeatedly absorb the multiset of their neighbors' colors) followed by
//! an individualization search over the remaining ties that keeps the
//! lexicographically smallest certificate. Fully interchangeable tie
//! cells — every outside job adjacent to all or none of the cell, the
//! cell itself complete or empty — need no branching: permuting one's
//! members is an automorphism that keeps every color, and whether a cell
//! is interchangeable depends on adjacency alone, so individualizing one
//! such cell never changes it for another. Each search node therefore
//! individualizes *every* interchangeable tied cell in one batched pass
//! (cells in color order, members in id order) and refines once,
//! repeating until no tied cell is interchangeable; only then does it
//! branch, on the first tied cell. That covers the common symmetric
//! families (empty graphs, complete bipartite blocks, equal-size job
//! classes, the isolated jobs and twin leaves of sparse random graphs)
//! in a handful of refinement rounds. Only a search that branches builds
//! per-leaf certificate keys, and only once a second leaf exists.
//! A node budget bounds the search on adversarially symmetric inputs;
//! past it the canonical form is still deterministic and self-consistent
//! but may distinguish some relabelings (costing a cache miss, never a
//! wrong answer — caches must compare [`Canonical::certificate`] bytes
//! on lookup, not just the fingerprint).

use crate::instance::{Instance, MachineEnvironment};
use crate::schedule::Schedule;
use bisched_graph::Graph;

/// Search budget: maximum number of candidate certificates the
/// individualization search materializes before falling back to
/// first-candidate-only exploration.
const SEARCH_BUDGET: usize = 4096;

/// Maximum number of `R` machine-row orderings enumerated when several
/// rows share the same multiset key.
const MACHINE_ORDER_BUDGET: usize = 48;

/// The canonical form of an instance plus everything needed to translate
/// answers between the original and canonical labelings.
#[derive(Clone, Debug)]
pub struct Canonical {
    /// The instance in normal form: jobs renumbered canonically and, for
    /// `R`, machine rows sorted.
    pub instance: Instance,
    /// `job_perm[c]` = the original id of the job at canonical position
    /// `c`.
    pub job_perm: Vec<u32>,
    /// `machine_perm[c]` = the original id of the machine at canonical
    /// position `c` (identity for `P`/`Q`, whose machine order is already
    /// canonical).
    pub machine_perm: Vec<u32>,
    /// Byte certificate of the normal form; equal bytes ⇔ identical
    /// canonical instances. Cache lookups must compare this, not only the
    /// fingerprint, so hash collisions degrade to misses.
    pub certificate: Vec<u8>,
    /// 128-bit [`fnv128`] hash of [`certificate`](Self::certificate).
    pub fingerprint: u128,
}

impl Canonical {
    /// Translates a schedule expressed over the **canonical** labeling
    /// back to the original labeling: original job `job_perm[c]` goes to
    /// original machine `machine_perm[assignment[c]]`.
    pub fn schedule_to_original(&self, canonical: &Schedule) -> Schedule {
        let mut assignment = vec![0u32; canonical.num_jobs()];
        for (c, &machine) in canonical.assignment().iter().enumerate() {
            assignment[self.job_perm[c] as usize] = self.machine_perm[machine as usize];
        }
        Schedule::new(assignment)
    }
}

/// Computes the canonical form of `inst`. Deterministic; invariant under
/// job (and `R` machine) relabelings for all but search-budget-exceeding
/// pathologically symmetric inputs (see the module docs).
pub fn canonicalize(inst: &Instance) -> Canonical {
    match inst.env() {
        MachineEnvironment::Unrelated { times } => canonicalize_unrelated(inst, times),
        _ => canonicalize_pq(inst),
    }
}

/// `P`/`Q`: machines are already canonical (anonymous / speed-sorted), so
/// only the job order is searched.
fn canonicalize_pq(inst: &Instance) -> Canonical {
    let n = inst.num_jobs();
    let init: Vec<u64> = (0..n)
        .map(|j| mix(0x9e37_79b9, inst.processing(j as u32)))
        .collect();
    let order = canonical_job_order(inst.graph(), init);
    let machine_perm: Vec<u32> = (0..inst.num_machines() as u32).collect();
    build_canonical(inst, order, machine_perm)
}

/// `R`: machine rows are keyed by a hash of their multiset of times;
/// ties between rows are broken by enumerating their orderings (bounded)
/// and keeping the smallest certificate.
fn canonicalize_unrelated(inst: &Instance, times: &[Vec<u64>]) -> Canonical {
    // Invariant machine key: a wrapping sum of mixed times, which no job
    // order can change.
    let mut keyed: Vec<(u64, u32)> = times
        .iter()
        .enumerate()
        .map(|(i, row)| {
            let key = row
                .iter()
                .fold(0u64, |sum, &t| sum.wrapping_add(mix(0x7a11, t)));
            (key, i as u32)
        })
        .collect();
    keyed.sort_unstable();
    // Tie classes of machines with identical keys.
    let classes: Vec<Vec<u32>> = keyed
        .chunk_by(|a, b| a.0 == b.0)
        .map(|run| run.iter().map(|&(_, i)| i).collect())
        .collect();
    let mut best: Option<Canonical> = None;
    for machine_perm in enumerate_machine_orders(&classes, MACHINE_ORDER_BUDGET) {
        // With a fixed machine order, a job's exact column is invariant
        // job data; hash it into the initial color.
        let n = inst.num_jobs();
        let init: Vec<u64> = (0..n)
            .map(|j| {
                let mut h = 0xc0de_u64;
                for &i in &machine_perm {
                    h = mix(h, times[i as usize][j]);
                }
                h
            })
            .collect();
        let order = canonical_job_order(inst.graph(), init);
        let cand = build_canonical(inst, order, machine_perm);
        if best
            .as_ref()
            .is_none_or(|b| cand.certificate < b.certificate)
        {
            best = Some(cand);
        }
    }
    best.expect("at least one machine order")
}

/// All machine orders compatible with the sorted tie classes, capped at
/// `budget` (the identity-within-class order always comes first, so the
/// fallback past the cap stays deterministic).
fn enumerate_machine_orders(classes: &[Vec<u32>], budget: usize) -> Vec<Vec<u32>> {
    let mut orders: Vec<Vec<u32>> = vec![Vec::new()];
    for class in classes {
        let mut next = Vec::new();
        for prefix in &orders {
            for perm in permutations(class, budget.div_ceil(orders.len().max(1))) {
                let mut o = prefix.clone();
                o.extend_from_slice(&perm);
                next.push(o);
                if next.len() >= budget {
                    break;
                }
            }
            if next.len() >= budget {
                break;
            }
        }
        orders = next;
    }
    orders
}

/// Up to `cap` permutations of `items`, in a deterministic order starting
/// from the identity (Heap's algorithm order).
fn permutations(items: &[u32], cap: usize) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    let mut work = items.to_vec();
    let n = work.len();
    let mut c = vec![0usize; n];
    out.push(work.clone());
    let mut i = 0;
    while i < n && out.len() < cap.max(1) {
        if c[i] < i {
            if i % 2 == 0 {
                work.swap(0, i);
            } else {
                work.swap(c[i], i);
            }
            out.push(work.clone());
            c[i] += 1;
            i = 0;
        } else {
            c[i] = 0;
            i += 1;
        }
    }
    out
}

/// Assembles the canonical instance + certificate from a job order and a
/// machine order.
fn build_canonical(inst: &Instance, order: Vec<u32>, machine_perm: Vec<u32>) -> Canonical {
    let graph = inst.graph().permuted(&order);
    let processing = || order.iter().map(|&j| inst.processing(j)).collect();
    let instance = match inst.env() {
        MachineEnvironment::Identical { m } => Instance::identical(*m, processing(), graph),
        MachineEnvironment::Uniform { speeds } => {
            Instance::uniform(speeds.clone(), processing(), graph)
        }
        MachineEnvironment::Unrelated { times } => Instance::unrelated(
            machine_perm
                .iter()
                .map(|&i| {
                    let row = &times[i as usize];
                    order.iter().map(|&j| row[j as usize]).collect()
                })
                .collect(),
            graph,
        ),
    }
    .expect("canonical relabeling is valid");
    let certificate = certificate_bytes(&instance);
    let fingerprint = fnv128(&certificate);
    Canonical {
        instance,
        job_perm: order,
        machine_perm,
        certificate,
        fingerprint,
    }
}

/// Stable byte encoding of a canonical instance: environment, job count,
/// machine data, job data, then the edge list in sorted order (32-bit
/// endpoints; every other number is 64-bit).
fn certificate_bytes(inst: &Instance) -> Vec<u8> {
    let n = inst.num_jobs();
    let graph = inst.graph();
    let mut out = Vec::with_capacity(8 * (n * inst.num_machines() + graph.num_edges() + 8));
    let push = |out: &mut Vec<u8>, x: u64| out.extend_from_slice(&x.to_le_bytes());
    out.extend_from_slice(inst.env().alpha().as_bytes());
    push(&mut out, n as u64);
    match inst.env() {
        MachineEnvironment::Identical { m } => {
            out.push(b'm');
            push(&mut out, *m as u64);
        }
        MachineEnvironment::Uniform { speeds } => {
            out.push(b's');
            push(&mut out, speeds.len() as u64);
            speeds.iter().for_each(|&s| push(&mut out, s));
        }
        MachineEnvironment::Unrelated { times } => {
            out.push(b't');
            push(&mut out, times.len() as u64);
            for row in times {
                row.iter().for_each(|&x| push(&mut out, x));
            }
        }
    }
    if !matches!(inst.env(), MachineEnvironment::Unrelated { .. }) {
        out.push(b'p');
        inst.processing_all()
            .iter()
            .for_each(|&x| push(&mut out, x));
    }
    out.push(b'e');
    push(&mut out, graph.num_edges() as u64);
    for (u, v) in graph.edges() {
        out.extend_from_slice(&u.to_le_bytes());
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// 128-bit FNV-1a over the little-endian 64-bit words of `bytes` (the
/// last word zero-padded, then the length), with the high half folded
/// into the low one so the low bits depend on the whole input — the hash
/// behind [`Canonical::fingerprint`], exposed so callers composing cache
/// keys (e.g. the service's config-aware key) use the same construction.
pub fn fnv128(bytes: &[u8]) -> u128 {
    const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;
    let mut h = OFFSET;
    let mut absorb = |word: u64| {
        h ^= word as u128;
        h = h.wrapping_mul(PRIME);
    };
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        absorb(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    absorb(u64::from_le_bytes(tail));
    absorb(bytes.len() as u64);
    h ^ (h >> 64)
}

/// 64-bit hash combiner (splitmix-style finalization).
fn mix(seed: u64, x: u64) -> u64 {
    let mut z = seed ^ x.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Canonical job order: color refinement, then individualization search
/// over the remaining ties keeping the smallest certificate.
fn canonical_job_order(graph: &Graph, init: Vec<u64>) -> Vec<u32> {
    let mut budget = SEARCH_BUDGET;
    let mut best: Option<Leaf> = None;
    let mut bufs = SearchBuffers::new(init.len());
    search_order(graph, init, &mut bufs, &mut budget, &mut best);
    best.expect("search yields at least one order").order
}

/// Buffers shared by every search node of one job-order search.
struct SearchBuffers {
    /// The colors before the current refinement round.
    prev: Vec<u64>,
    /// The jobs sorted by color, ties by id, after the latest refinement.
    by_color: Vec<u32>,
    /// Bucket bounds for [`sort_by_color`].
    buckets: Vec<usize>,
    /// All-`false` per-job mask for [`is_interchangeable_cell`].
    in_cell: Vec<bool>,
}

impl SearchBuffers {
    fn new(n: usize) -> Self {
        SearchBuffers {
            prev: vec![0; n],
            by_color: vec![0; n],
            buckets: Vec::new(),
            in_cell: vec![false; n],
        }
    }
}

/// The best discrete coloring the search has reached so far. Its
/// certificate key is only built once a second leaf must be compared
/// with it, so a search that never branches never builds one.
struct Leaf {
    order: Vec<u32>,
    colors: Vec<u64>,
    key: Option<Vec<u8>>,
}

/// One search node: refine, then repeatedly individualize every
/// interchangeable tied cell at once and refine again; once no tied cell
/// is interchangeable, branch on the first one.
fn search_order(
    graph: &Graph,
    mut colors: Vec<u64>,
    bufs: &mut SearchBuffers,
    budget: &mut usize,
    best: &mut Option<Leaf>,
) {
    refine(graph, &mut colors, bufs);
    loop {
        let cells: Vec<&[u32]> = bufs
            .by_color
            .chunk_by(|&a, &b| colors[a as usize] == colors[b as usize])
            .filter(|cell| cell.len() > 1)
            .collect();
        if cells.is_empty() {
            offer_leaf(graph, colors, bufs.by_color.clone(), best);
            return;
        }
        // Any ordering of an interchangeable cell yields the same
        // certificate, and interchangeability depends on adjacency alone,
        // so every such cell is individualized (members in id order) in
        // one pass followed by a single refinement.
        let mut batched = false;
        for &cell in &cells {
            if is_interchangeable_cell(graph, &mut bufs.in_cell, cell) {
                for (rank, &j) in cell.iter().enumerate() {
                    colors[j as usize] = mix(colors[j as usize], rank as u64 + 1);
                }
                batched = true;
            }
        }
        if batched {
            refine(graph, &mut colors, bufs);
            continue;
        }
        // Branch: individualize each candidate in the first cell.
        #[cfg(test)]
        work::BRANCHES.with(|b| b.set(b.get() + 1));
        let cell = cells[0].to_vec();
        let candidates = if *budget == 0 { &cell[..1] } else { &cell[..] };
        for &j in candidates {
            if *budget > 0 {
                *budget -= 1;
            }
            let mut next = colors.clone();
            next[j as usize] = mix(next[j as usize], 0x1d1f);
            search_order(graph, next, bufs, budget, best);
        }
        return;
    }
}

/// Keeps the discrete coloring `colors`, whose jobs sorted by color are
/// `order`, if it has a smaller certificate key than the best leaf so far.
fn offer_leaf(graph: &Graph, colors: Vec<u64>, order: Vec<u32>, best: &mut Option<Leaf>) {
    let Some(b) = best else {
        *best = Some(Leaf {
            order,
            colors,
            key: None,
        });
        return;
    };
    let best_key = b
        .key
        .get_or_insert_with(|| order_key(graph, &b.colors, &b.order));
    let key = order_key(graph, &colors, &order);
    if key < *best_key {
        *b = Leaf {
            order,
            colors,
            key: Some(key),
        };
    }
}

/// Stable refinement: each round every job absorbs the multiset of its
/// neighbors' colors (hashed as their wrapping sum, which no neighbor
/// order can change; colors are well-mixed hashes, so unequal multisets
/// collide with negligible probability); stops when the partition stops
/// growing. A job's new color also hashes its old one, so a round only
/// ever splits cells, and an unchanged count of distinct colors means a
/// stable partition, as does a discrete one. Leaves the jobs sorted by
/// their final colors in `bufs.by_color`.
fn refine(graph: &Graph, colors: &mut [u64], bufs: &mut SearchBuffers) {
    let mut distinct = sort_by_color(colors, bufs);
    while distinct < colors.len() {
        #[cfg(test)]
        work::ROUNDS.with(|r| r.set(r.get() + 1));
        bufs.prev.copy_from_slice(colors);
        for (j, c) in colors.iter_mut().enumerate() {
            let around = graph
                .neighbors(j as u32)
                .iter()
                .fold(0u64, |sum, &v| sum.wrapping_add(bufs.prev[v as usize]));
            *c = mix(*c, around);
        }
        let d = sort_by_color(colors, bufs);
        if d == distinct {
            return;
        }
        distinct = d;
    }
}

/// Sorts all jobs by color, ties by id, into `bufs.by_color` and
/// returns the number of distinct colors. Colors are well-mixed hashes,
/// so one counting pass on their top bits spreads the jobs over as many
/// buckets as there are jobs, leaving only a few to compare per bucket;
/// colors crafted to share a bucket cost a comparison sort, no more.
fn sort_by_color(colors: &[u64], bufs: &mut SearchBuffers) -> usize {
    let n = colors.len();
    let bits = n.next_power_of_two().trailing_zeros();
    let bucket = |j: usize| colors[j].checked_shr(64 - bits).unwrap_or(0) as usize;
    let ends = &mut bufs.buckets;
    ends.clear();
    ends.resize(1 << bits, 0);
    for j in 0..n {
        ends[bucket(j)] += 1;
    }
    for b in 1..ends.len() {
        ends[b] += ends[b - 1];
    }
    let sorted = &mut bufs.by_color;
    for j in (0..n).rev() {
        let end = &mut ends[bucket(j)];
        *end -= 1;
        sorted[*end] = j as u32;
    }
    // `ends` now holds each bucket's start.
    let mut start = n;
    for &b in ends.iter().rev() {
        if start - b > 1 {
            sorted[b..start].sort_unstable_by_key(|&j| (colors[j as usize], j));
        }
        start = b;
    }
    sorted
        .chunk_by(|&a, &b| colors[a as usize] == colors[b as usize])
        .count()
}

/// Whether every job outside the cell is adjacent to all or none of it,
/// and the cell's induced subgraph is complete or empty — i.e. the cell's
/// members are fully interchangeable and need no branching. `in_cell` is
/// an all-`false` per-job mask, left all-`false` on return.
fn is_interchangeable_cell(graph: &Graph, in_cell: &mut [bool], cell: &[u32]) -> bool {
    let k = cell.len();
    for &j in cell {
        in_cell[j as usize] = true;
    }
    let mut inner_edges = 0usize;
    let mut outside: Vec<u32> = Vec::new();
    for &j in cell {
        for &v in graph.neighbors(j) {
            if in_cell[v as usize] {
                inner_edges += 1;
            } else {
                outside.push(v);
            }
        }
    }
    for &j in cell {
        in_cell[j as usize] = false;
    }
    inner_edges /= 2;
    if inner_edges != 0 && inner_edges != k * (k - 1) / 2 {
        return false;
    }
    // Every outside neighbor must occur exactly `k` times.
    outside.sort_unstable();
    outside.chunk_by(|a, b| a == b).all(|run| run.len() == k)
}

/// Certificate key of a discrete order: per-job initial-invariant colors
/// would already be equal inside former ties, so the distinguishing data
/// is the edge relation (plus the colors for cross-cell stability).
fn order_key(graph: &Graph, colors: &[u64], order: &[u32]) -> Vec<u8> {
    let relabeled = graph.permuted(order);
    let mut key = Vec::with_capacity(8 * (order.len() + relabeled.num_edges()));
    for &j in order {
        key.extend_from_slice(&colors[j as usize].to_le_bytes());
    }
    for (u, v) in relabeled.edges() {
        key.extend_from_slice(&u.to_le_bytes());
        key.extend_from_slice(&v.to_le_bytes());
    }
    key
}

/// Deterministic work counters of the calling thread's canonicalizations,
/// so tests can bound the search's work rather than its wall time.
#[cfg(test)]
mod work {
    use std::cell::Cell;

    thread_local! {
        /// Refinement rounds.
        pub static ROUNDS: Cell<usize> = const { Cell::new(0) };
        /// Branching search nodes.
        pub static BRANCHES: Cell<usize> = const { Cell::new(0) };
    }

    /// Runs `f` and returns its result with the rounds and branch nodes
    /// it took.
    pub fn measure<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
        ROUNDS.with(|r| r.set(0));
        BRANCHES.with(|b| b.set(0));
        let out = f();
        (out, ROUNDS.with(Cell::get), BRANCHES.with(Cell::get))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::InstanceData;
    use bisched_graph::Graph;

    fn fp(inst: &Instance) -> u128 {
        canonicalize(inst).fingerprint
    }

    #[test]
    fn relabeled_path_shares_fingerprint() {
        // 0-1-2-3 with distinct sizes, vs. the reversed labeling.
        let a = Instance::identical(2, vec![5, 3, 8, 2], Graph::path(4)).unwrap();
        let b = Instance::identical(
            2,
            vec![2, 8, 3, 5],
            Graph::from_edges(4, &[(3, 2), (2, 1), (1, 0)]),
        )
        .unwrap();
        assert_eq!(fp(&a), fp(&b));
    }

    #[test]
    fn different_instances_differ() {
        let a = Instance::identical(2, vec![5, 3, 8, 2], Graph::path(4)).unwrap();
        let b = Instance::identical(2, vec![5, 3, 8, 2], Graph::empty(4)).unwrap();
        let c = Instance::identical(3, vec![5, 3, 8, 2], Graph::path(4)).unwrap();
        assert_ne!(fp(&a), fp(&b));
        assert_ne!(fp(&a), fp(&c));
    }

    #[test]
    fn matching_inside_tied_class_is_resolved_by_search() {
        // Four unit jobs, edges forming a perfect matching 0-1, 2-3 vs the
        // crossed matching 0-2, 1-3: isomorphic, and WL alone cannot pick
        // an invariant order inside the single color class.
        let a =
            Instance::identical(2, vec![1; 4], Graph::from_edges(4, &[(0, 1), (2, 3)])).unwrap();
        let b =
            Instance::identical(2, vec![1; 4], Graph::from_edges(4, &[(0, 2), (1, 3)])).unwrap();
        assert_eq!(fp(&a), fp(&b));
    }

    #[test]
    fn unrelated_machine_rows_are_interchangeable() {
        let a = Instance::unrelated(vec![vec![1, 2, 3], vec![4, 5, 6]], Graph::path(3)).unwrap();
        let b = Instance::unrelated(vec![vec![4, 5, 6], vec![1, 2, 3]], Graph::path(3)).unwrap();
        assert_eq!(fp(&a), fp(&b));
    }

    #[test]
    fn unrelated_job_and_machine_relabeling() {
        // Swap jobs 0 and 2 (columns) and the two machines (rows).
        let a = Instance::unrelated(
            vec![vec![3, 5, 2], vec![7, 1, 9]],
            Graph::from_edges(3, &[(0, 1)]),
        )
        .unwrap();
        let b = Instance::unrelated(
            vec![vec![9, 1, 7], vec![2, 5, 3]],
            Graph::from_edges(3, &[(2, 1)]),
        )
        .unwrap();
        assert_eq!(fp(&a), fp(&b));
    }

    #[test]
    fn schedule_maps_back_to_original_labels() {
        let orig = Instance::uniform(
            vec![3, 1],
            vec![4, 9, 2, 7, 5],
            Graph::from_edges(5, &[(0, 3), (1, 4), (2, 3)]),
        )
        .unwrap();
        let canon = canonicalize(&orig);
        // A feasible canonical schedule: put each edge endpoint apart by
        // 2-coloring the canonical graph greedily.
        let cg = canon.instance.graph();
        let mut assign = vec![0u32; canon.instance.num_jobs()];
        for (u, v) in cg.edges() {
            if assign[u as usize] == assign[v as usize] {
                assign[v as usize] = 1 - assign[v as usize];
            }
        }
        let cs = Schedule::new(assign);
        if cs.validate(&canon.instance).is_ok() {
            let os = canon.schedule_to_original(&cs);
            assert!(os.validate(&orig).is_ok());
            assert_eq!(os.makespan(&orig), cs.makespan(&canon.instance));
        }
    }

    #[test]
    fn empty_graph_symmetric_classes_fast_path() {
        // Fully symmetric tie classes: must resolve via the batched
        // interchangeable-cell pass, not the branching search.
        let mut sizes = vec![7u64; 20];
        sizes.extend(vec![3u64; 20]);
        let a = Instance::identical(4, sizes, Graph::empty(40)).unwrap();
        let interleaved: Vec<u64> = (0..40).map(|j| if j % 2 == 0 { 7 } else { 3 }).collect();
        let b = Instance::identical(4, interleaved, Graph::empty(40)).unwrap();
        assert_eq!(fp(&a), fp(&b));
    }

    /// Relabels `inst`'s jobs: old job `j` becomes `perm[j]`.
    fn relabel_jobs(inst: &Instance, perm: &[u32]) -> Instance {
        let mut data = InstanceData::from_instance(inst);
        let p = data.processing.as_ref().expect("P/Q instance");
        let mut moved = vec![0u64; p.len()];
        for (j, &x) in p.iter().enumerate() {
            moved[perm[j] as usize] = x;
        }
        data.processing = Some(moved);
        for e in &mut data.edges {
            *e = (perm[e.0 as usize], perm[e.1 as usize]);
        }
        data.into_instance().unwrap()
    }

    #[test]
    fn batched_interchangeable_cells_and_branching_mix() {
        // Interchangeable cells: three isolated size-4 jobs (0..3), three
        // isolated size-6 jobs (3..6), and three size-2 twin leaves
        // (7..10) of the size-9 star center 6. Not interchangeable: the
        // two isomorphic isolated edges 10-11 and 12-13 (sizes 5-7).
        let sizes = vec![4, 4, 4, 6, 6, 6, 9, 2, 2, 2, 5, 7, 5, 7];
        let edges = [(6, 7), (6, 8), (6, 9), (10, 11), (12, 13)];
        let inst = Instance::identical(3, sizes, Graph::from_edges(14, &edges)).unwrap();
        let (base, rounds, branches) = work::measure(|| canonicalize(&inst));
        // All three interchangeable cells go in one pass and one
        // refinement (one refinement per cell takes 8 rounds); the edge
        // pair then needs one branch node.
        assert_eq!(branches, 1, "exactly one branch node");
        assert!(rounds <= 5, "{rounds} refinement rounds");
        let perms: [[u32; 14]; 3] = [
            [13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0],
            [3, 9, 0, 12, 5, 1, 7, 11, 2, 13, 6, 4, 10, 8],
            [12, 13, 10, 11, 2, 0, 1, 4, 5, 3, 8, 9, 7, 6],
        ];
        for perm in &perms {
            let c = canonicalize(&relabel_jobs(&inst, perm));
            assert_eq!(c.certificate, base.certificate);
            assert_eq!(
                InstanceData::from_instance(&c.instance),
                InstanceData::from_instance(&base.instance)
            );
        }
        let again = canonicalize(&base.instance);
        assert_eq!(again.certificate, base.certificate);
    }

    #[test]
    fn critical_gilbert_canonicalizes_in_few_refinement_rounds() {
        // The service's large P requests: G(400, 400, 2/400) leaves many
        // isolated jobs and small isomorphic components. Batching the
        // interchangeable cells keeps the whole search within a handful
        // of refinements; one refinement per cell took about 30.
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let g = bisched_graph::gilbert_bipartite(400, 400, 2.0 / 400.0, &mut rng);
        let sizes = crate::JobSizes::Uniform { lo: 1, hi: 30 }.sample(800, &mut rng);
        let inst = Instance::identical(4, sizes, g).unwrap();
        let (_, rounds, _) = work::measure(|| canonicalize(&inst));
        assert!(rounds <= 12, "{rounds} refinement rounds");
    }

    #[test]
    fn idempotent() {
        let inst = Instance::unrelated(
            vec![vec![3, 5, 2, 8], vec![7, 1, 9, 2], vec![4, 4, 4, 4]],
            Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]),
        )
        .unwrap();
        let once = canonicalize(&inst);
        let twice = canonicalize(&once.instance);
        assert_eq!(once.certificate, twice.certificate);
        assert_eq!(once.fingerprint, twice.fingerprint);
        assert_eq!(
            InstanceData::from_instance(&once.instance),
            InstanceData::from_instance(&twice.instance)
        );
    }
}
