//! The GPH engine — §VI.
//!
//! Ties together the offline phase (partitioning → projection → inverted
//! index → CN estimator) and the online phase (CN estimation → threshold
//! allocation → signature enumeration → index probing → verification).
//! Per-query [`QueryStats`] decompose the time as Fig. 2(a) does:
//! threshold allocation, signature enumeration, candidate generation,
//! verification. For partitions of at most 64 bits enumeration and the
//! key lookup are fused into one pruned walk over the sorted index keys,
//! so the enumeration phase times that walk (a deviation listed in
//! PAPER.md).

use crate::alloc::{allocate, AllocatorKind};
use crate::cn::{build_estimator, CnEstimator, CnTable, EstimatorKind};
use crate::cost::CostModel;
use crate::index::InvertedIndex;
use crate::partition_opt::{build_partitioning, PartitionStrategy, WorkloadSpec};
use crate::pigeonhole::ThresholdVector;
use hamming_core::enumerate::{ball_size, for_each_in_ball_words, for_each_key_in_ball};
use hamming_core::error::{HammingError, Result};
use hamming_core::key::key_of;
use hamming_core::project::{ProjectedDataset, Projector};
use hamming_core::{Dataset, Partitioning};
use parking_lot::Mutex;
use std::time::Instant;

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct GphConfig {
    /// Number of partitions `m` (the paper suggests `m ≈ n/24` as a
    /// starting point, Fig. 5).
    pub m: usize,
    /// Largest threshold the engine must serve (sizes the CN tables).
    pub tau_max: usize,
    /// Per-query threshold allocator.
    pub allocator: AllocatorKind,
    /// Candidate-number estimator.
    pub estimator: EstimatorKind,
    /// Offline partitioning strategy.
    pub strategy: PartitionStrategy,
    /// Workload for the GR strategy (auto-sampled from the data when
    /// `None` — the paper's fallback when no history is available).
    pub workload: Option<WorkloadSpec>,
    /// Cost model used for reported cost estimates.
    pub cost_model: CostModel,
}

impl GphConfig {
    /// Defaults per the paper: DP allocation, SP estimation with two
    /// sub-partitions, GR partitioning.
    pub fn new(m: usize, tau_max: usize) -> Self {
        GphConfig {
            m,
            tau_max,
            allocator: AllocatorKind::Dp,
            estimator: EstimatorKind::default(),
            strategy: PartitionStrategy::default(),
            workload: None,
            cost_model: CostModel::default(),
        }
    }

    /// Suggested partition count `m ≈ n/24` (§VII-D), clamped to `[1, n]`.
    pub fn suggested_m(dim: usize) -> usize {
        (dim / 24).clamp(1, dim.max(1))
    }
}

/// Offline build timings (Table IV decomposes partitioning vs indexing).
#[derive(Clone, Copy, Debug, Default)]
pub struct BuildStats {
    /// Time spent choosing the partitioning (GR's 5026 s column).
    pub partition_ms: u64,
    /// Time spent projecting and building the inverted index.
    pub index_ms: u64,
    /// Time spent building the CN estimator (GPH's extra 560 s column).
    pub estimator_ms: u64,
}

/// Per-query instrumentation (Fig. 2's decomposition and Fig. 7's
/// candidate counts).
#[derive(Clone, Debug, Default)]
pub struct QueryStats {
    /// Allocated threshold vector.
    pub thresholds: Vec<i32>,
    /// Time estimating CN tables + running the allocator.
    pub alloc_ns: u64,
    /// Time finding the index key slots inside each partition's
    /// signature ball: the pruned trie walk over the sorted keys for
    /// partitions of at most 64 bits, enumeration plus one key lookup
    /// per signature for wider ones. The file-backed engine
    /// ([`crate::coldstore::ColdSegment`]) only enumerates here; its key
    /// lookups count under `candgen_ns`.
    pub enumerate_ns: u64,
    /// Time reading the matched slots' postings + deduplicating
    /// candidates (and the projected-column scan fallback).
    pub candgen_ns: u64,
    /// Time verifying candidates.
    pub verify_ns: u64,
    /// Signatures covered: `Σ ball_size(wᵢ, τᵢ)` over the partitions
    /// answered through the index, the count enumeration would visit
    /// (the trie walk covers the same ball without visiting each one).
    pub n_signatures: u64,
    /// `Σ_s |I_s|` — postings touched (Fig. 2(b)'s upper bound). Only
    /// index probes count here; rows examined by the scan fallback are
    /// reported in [`QueryStats::n_scanned`] so this keeps its paper
    /// meaning.
    pub sum_postings: u64,
    /// Rows examined by the projected-column scan fallback (the path
    /// taken when a partition's signature ball outnumbers the data).
    /// Zero for queries answered purely through the index.
    pub n_scanned: u64,
    /// Distinct candidates verified (`|S_cand|`).
    pub n_candidates: u64,
    /// Results returned.
    pub n_results: u64,
    /// The optimizer's estimated `Σ CN` for the chosen allocation.
    pub estimated_cost: f64,
}

impl QueryStats {
    /// Total measured time.
    pub fn total_ns(&self) -> u64 {
        self.alloc_ns + self.enumerate_ns + self.candgen_ns + self.verify_ns
    }
}

/// IDs plus instrumentation.
#[derive(Clone, Debug)]
pub struct SearchResult {
    /// Matching vector IDs, ascending.
    pub ids: Vec<u32>,
    /// Query instrumentation.
    pub stats: QueryStats,
}

/// Query-time scratch (visited stamps + buffers), pooled to keep
/// `search(&self)` allocation-free after warm-up.
pub(crate) struct Scratch {
    stamps: Vec<u32>,
    epoch: u32,
    candidates: Vec<u32>,
    slots: Vec<usize>,
}

impl Scratch {
    fn new(n: usize) -> Self {
        Scratch { stamps: vec![0; n], epoch: 0, candidates: Vec::new(), slots: Vec::new() }
    }
}

/// The built GPH index.
///
/// Field visibility is `pub(crate)` so the [`crate::snapshot`] module can
/// persist and restore engines without re-running the offline phase. The
/// index is frozen once built; for insert/delete/upsert workloads wrap it
/// in [`crate::segment::SegmentedGph`].
///
/// # Example
///
/// ```
/// use gph::engine::{Gph, GphConfig};
/// use gph::partition_opt::PartitionStrategy;
/// use hamming_core::{BitVector, Dataset};
///
/// // Index the four example vectors of the paper's Table I.
/// let rows = ["00000000", "00000111", "00001111", "10011111"];
/// let data =
///     Dataset::from_vectors(8, rows.iter().map(|s| BitVector::parse(s).unwrap())).unwrap();
/// let mut cfg = GphConfig::new(2, 4);
/// cfg.strategy = PartitionStrategy::Original;
/// let engine = Gph::build(data, &cfg).unwrap();
///
/// // Example 2 of the paper: q1 = 10000000 matches only x1 at tau = 2.
/// let q1 = BitVector::parse("10000000").unwrap();
/// assert_eq!(engine.search(q1.words(), 2), vec![0]);
/// // The two nearest rows, with exact distances.
/// assert_eq!(engine.search_topk(q1.words(), 2), vec![(0, 1), (1, 4)]);
/// ```
pub struct Gph {
    pub(crate) data: Dataset,
    pub(crate) partitioning: Partitioning,
    pub(crate) projector: Projector,
    pub(crate) index: InvertedIndex,
    pub(crate) projected: ProjectedDataset,
    pub(crate) estimator: Box<dyn CnEstimator>,
    pub(crate) estimator_kind: EstimatorKind,
    pub(crate) allocator: AllocatorKind,
    pub(crate) cost_model: CostModel,
    pub(crate) tau_max: usize,
    pub(crate) build_stats: BuildStats,
    pub(crate) scratch_pool: Mutex<Vec<Scratch>>,
}

impl Gph {
    /// Builds the index over `data` (offline phase of §VI).
    pub fn build(data: Dataset, cfg: &GphConfig) -> Result<Self> {
        if data.dim() == 0 {
            return Err(HammingError::InvalidParameter("zero-dimensional data".into()));
        }
        let mut stats = BuildStats::default();

        let t0 = Instant::now();
        let auto_wl;
        let workload = match (&cfg.workload, &cfg.strategy) {
            (Some(wl), _) => Some(wl),
            (None, PartitionStrategy::Heuristic(_)) => {
                // §V-B fallback: sample data objects as a surrogate
                // workload, spanning a range of thresholds.
                let taus: Vec<u32> = default_workload_taus(cfg.tau_max);
                auto_wl = WorkloadSpec::from_sample(&data, 50.min(data.len()), taus, 0xA11C);
                Some(&auto_wl)
            }
            _ => None,
        };
        let partitioning = build_partitioning(&data, cfg.m, &cfg.strategy, workload)?;
        stats.partition_ms = t0.elapsed().as_millis() as u64;

        let t1 = Instant::now();
        let projector = Projector::new(&partitioning);
        let projected = ProjectedDataset::build(&data, &projector);
        let index = InvertedIndex::build(&projected);
        stats.index_ms = t1.elapsed().as_millis() as u64;

        let t2 = Instant::now();
        let estimator = build_estimator(&cfg.estimator, &projected, cfg.tau_max)?;
        stats.estimator_ms = t2.elapsed().as_millis() as u64;

        Ok(Gph {
            data,
            partitioning,
            projector,
            index,
            projected,
            estimator,
            estimator_kind: cfg.estimator.clone(),
            allocator: cfg.allocator,
            cost_model: cfg.cost_model.clone(),
            tau_max: cfg.tau_max,
            build_stats: stats,
            scratch_pool: Mutex::new(Vec::new()),
        })
    }

    /// Serializes the built engine into a checksummed snapshot: the
    /// dataset, the partitioning (the expensive GR artifact), the
    /// inverted index, the estimator state, and the cost-model
    /// statistics. See [`crate::snapshot`] for the format.
    pub fn to_bytes(&self) -> Vec<u8> {
        crate::snapshot::encode_engine(self)
    }

    /// Restores an engine from [`Gph::to_bytes`] bytes without re-running
    /// partition optimization, index construction, or (for the
    /// table-based kinds) estimator construction. The loaded engine is
    /// query-for-query identical to the engine that was saved.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        crate::snapshot::decode_engine(bytes)
    }

    /// Writes [`Gph::to_bytes`] to `path`.
    pub fn save<P: AsRef<std::path::Path>>(&self, path: P) -> Result<()> {
        hamming_core::io::write_atomic(path.as_ref(), &self.to_bytes())
    }

    /// Reads an engine snapshot from `path` — the warm-start path: every
    /// offline artifact is loaded, not rebuilt.
    pub fn load<P: AsRef<std::path::Path>>(path: P) -> Result<Self> {
        Gph::from_bytes(&std::fs::read(path)?)
    }

    /// The estimator kind this engine was built with.
    pub fn estimator_kind(&self) -> &EstimatorKind {
        &self.estimator_kind
    }

    /// All vectors within `tau` of `query` (exact; ascending IDs).
    pub fn search(&self, query: &[u64], tau: u32) -> Vec<u32> {
        self.search_with_stats(query, tau).ids
    }

    /// Search with per-phase instrumentation.
    pub fn search_with_stats(&self, query: &[u64], tau: u32) -> SearchResult {
        assert!(
            tau as usize <= self.tau_max,
            "tau {tau} exceeds the configured tau_max {}",
            self.tau_max
        );
        assert_eq!(
            query.len(),
            self.data.words_per_vec(),
            "query width mismatch with indexed data"
        );
        let mut stats = QueryStats::default();
        let m = self.partitioning.num_parts();

        // --- Phase 1: CN estimation + threshold allocation ------------
        let t0 = Instant::now();
        let q_proj: Vec<Vec<u64>> = (0..m).map(|i| self.projector.project(i, query)).collect();
        let thresholds = if m == 1 {
            ThresholdVector(vec![tau as i32])
        } else {
            let cn = CnTable::compute(self.estimator.as_ref(), &q_proj, tau as usize);
            let tv = allocate(self.allocator, &cn, tau);
            stats.estimated_cost = cn.sum_for(&tv);
            tv
        };
        stats.alloc_ns = t0.elapsed().as_nanos() as u64;
        stats.thresholds = thresholds.0.clone();

        // --- Phases 2+3: signature enumeration + candidate generation --
        let mut scratch =
            self.scratch_pool.lock().pop().unwrap_or_else(|| Scratch::new(self.data.len()));
        if scratch.stamps.len() < self.data.len() {
            scratch.stamps.resize(self.data.len(), 0);
        }
        scratch.epoch = scratch.epoch.wrapping_add(1);
        if scratch.epoch == 0 {
            scratch.stamps.iter_mut().for_each(|s| *s = u32::MAX);
            scratch.epoch = 1;
        }
        let epoch = scratch.epoch;
        scratch.candidates.clear();

        for (i, &ti) in thresholds.0.iter().enumerate() {
            if ti < 0 {
                continue;
            }
            let shape = self.projector.shape(i);
            let width = shape.width;
            let radius = (ti as usize).min(width);
            // When the signature ball outnumbers the data, scanning the
            // projected column is strictly cheaper than enumerating and
            // probing; equivalent output, bounded worst case.
            let ball = ball_size(width, radius);
            if ball > self.data.len() as u64 && !self.data.is_empty() {
                let t2 = Instant::now();
                let col = self.projected.column(i);
                let qv = &q_proj[i];
                stats.n_scanned += self.data.len() as u64;
                for id in 0..self.data.len() {
                    if hamming_core::distance::hamming(col.value(id), qv) as usize <= radius
                        && scratch.stamps[id] != epoch
                    {
                        scratch.stamps[id] = epoch;
                        scratch.candidates.push(id as u32);
                    }
                }
                stats.candgen_ns += t2.elapsed().as_nanos() as u64;
                continue;
            }
            // Phase 2 finds the key slots inside the ball (timed as the
            // paper's enumeration); phase 3 reads their postings and
            // deduplicates. Narrow keys are the projected values, so one
            // pruned trie walk over the sorted keys replaces enumerating
            // the ball; wide keys are hashed, so their ball is enumerated
            // and each signature looked up.
            let t1 = Instant::now();
            scratch.slots.clear();
            let keys = self.index.part_keys(i);
            if width <= 64 {
                let center = q_proj[i].first().copied().unwrap_or(0);
                for_each_key_in_ball(keys, center, width, radius, |s| scratch.slots.push(s));
            } else {
                for_each_in_ball_words(&q_proj[i], width, radius, |w| {
                    scratch.slots.extend(keys.binary_search(&key_of(w, width)).ok())
                });
            }
            stats.n_signatures += ball;
            stats.enumerate_ns += t1.elapsed().as_nanos() as u64;

            let t2 = Instant::now();
            for &s in &scratch.slots {
                let postings = self.index.slot_postings(i, s);
                stats.sum_postings += postings.len() as u64;
                for &id in postings {
                    let idu = id as usize;
                    if scratch.stamps[idu] != epoch {
                        scratch.stamps[idu] = epoch;
                        scratch.candidates.push(id);
                    }
                }
            }
            stats.candgen_ns += t2.elapsed().as_nanos() as u64;
        }
        stats.n_candidates = scratch.candidates.len() as u64;

        // --- Phase 4: verification -------------------------------------
        // The deduplicated candidate buffer goes to the batched kernel in
        // one streaming pass (width-specialized, SIMD when enabled)
        // instead of a per-candidate `hamming_within` call.
        let t3 = Instant::now();
        let mut ids: Vec<u32> = Vec::with_capacity(scratch.candidates.len());
        self.data.verify_candidates(query, tau, &scratch.candidates, &mut ids);
        ids.sort_unstable();
        stats.verify_ns = t3.elapsed().as_nanos() as u64;
        stats.n_results = ids.len() as u64;

        self.scratch_pool.lock().push(scratch);
        SearchResult { ids, stats }
    }

    /// Estimated query-processing cost for `(query, tau)` without running
    /// the search — Equation 1 applied to the allocation the DP would
    /// choose. §VI notes this enables service-level guarantees: the
    /// provider can predict response cost from the allocator alone.
    pub fn estimate_cost(&self, query: &[u64], tau: u32) -> f64 {
        assert!(tau as usize <= self.tau_max, "tau exceeds tau_max");
        let m = self.partitioning.num_parts();
        let q_proj: Vec<Vec<u64>> = (0..m).map(|i| self.projector.project(i, query)).collect();
        if m == 1 {
            let mut row = vec![0.0; tau as usize + 2];
            self.estimator.fill(0, &q_proj[0], tau as usize, &mut row);
            return self.cost_model.query_cost(row[tau as usize + 1], tau);
        }
        let cn = CnTable::compute(self.estimator.as_ref(), &q_proj, tau as usize);
        let tv = allocate(self.allocator, &cn, tau);
        self.cost_model.query_cost(cn.sum_for(&tv), tau)
    }

    /// Top-k search by threshold escalation: grows τ until at least `k`
    /// results exist (or `tau_max` is reached), then returns the `k`
    /// nearest by exact distance. The common retrieval mode of MIH-style
    /// systems, reused by the image-retrieval example.
    pub fn search_topk(&self, query: &[u64], k: usize) -> Vec<(u32, u32)> {
        self.search_topk_within(query, k, self.tau_max as u32)
    }

    /// Top-k with the escalation radius capped at `tau_cap ≤ tau_max`:
    /// the `k` nearest among records within `tau_cap` of `query`. With
    /// `tau_cap == tau_max` this is [`Gph::search_topk`]; smaller caps
    /// are the serving layer's degraded mode — admission control bounds
    /// the worst-case escalation cost by shrinking the radius.
    pub fn search_topk_within(&self, query: &[u64], k: usize, tau_cap: u32) -> Vec<(u32, u32)> {
        assert!(
            tau_cap as usize <= self.tau_max,
            "tau_cap {tau_cap} exceeds the configured tau_max {}",
            self.tau_max
        );
        let mut tau = 0u32;
        loop {
            let ids = self.search(query, tau);
            if ids.len() >= k || tau >= tau_cap {
                let mut scored: Vec<(u32, u32)> =
                    ids.iter().map(|&id| (id, self.data.distance_to(id as usize, query))).collect();
                scored.sort_by_key(|&(id, d)| (d, id));
                scored.truncate(k);
                return scored;
            }
            tau = (tau * 2).max(tau + 1).min(tau_cap);
        }
    }

    /// Similarity self-join: every unordered pair `(a, b)`, `a < b`, of
    /// indexed vectors with `H(a, b) ≤ tau` — the set-similarity-join
    /// workload PartAlloc was designed for, answered with the GPH index
    /// by querying each vector and keeping pairs `(id, hit)` with
    /// `hit > id`. `threads > 1` splits the probe loop with scoped
    /// threads.
    pub fn self_join(&self, tau: u32, threads: usize) -> Vec<(u32, u32)> {
        let n = self.data.len();
        let threads = threads.max(1).min(n.max(1));
        let chunk = n.div_ceil(threads);
        let mut shards: Vec<Vec<(u32, u32)>> = Vec::new();
        crossbeam::thread::scope(|scope| {
            let mut handles = Vec::new();
            for t in 0..threads {
                let lo = t * chunk;
                let hi = ((t + 1) * chunk).min(n);
                handles.push(scope.spawn(move |_| {
                    let mut out: Vec<(u32, u32)> = Vec::new();
                    for id in lo..hi {
                        let q = self.data.row(id);
                        for hit in self.search(q, tau) {
                            if hit > id as u32 {
                                out.push((id as u32, hit));
                            }
                        }
                    }
                    out
                }));
            }
            shards = handles.into_iter().map(|h| h.join().expect("no panics")).collect();
        })
        .expect("join workers never panic");
        let mut pairs: Vec<(u32, u32)> = shards.into_iter().flatten().collect();
        pairs.sort_unstable();
        pairs
    }

    /// Batched parallel search over `queries` with `threads` workers
    /// (crossbeam scoped threads; each worker owns its scratch). Order of
    /// results matches query order. The paper lists the parallel case as
    /// future work — this is the straightforward data-parallel reading.
    pub fn par_search(&self, queries: &[&[u64]], tau: u32, threads: usize) -> Vec<Vec<u32>> {
        // Clamp before computing the chunk size: an empty batch would
        // otherwise give `chunk == 0`, which `chunks_mut` rejects, and
        // `threads > queries.len()` would strand workers on empty ranges.
        let threads = threads.max(1).min(queries.len());
        if threads <= 1 {
            return queries.iter().map(|q| self.search(q, tau)).collect();
        }
        let mut results: Vec<Vec<u32>> = vec![Vec::new(); queries.len()];
        let chunk = queries.len().div_ceil(threads);
        crossbeam::thread::scope(|scope| {
            // `chunks_mut` pairs each output chunk with its query range;
            // the final chunk carries the remainder (`len % chunk`), so
            // every query is covered exactly once.
            for (ci, out_chunk) in results.chunks_mut(chunk).enumerate() {
                let qs = &queries[ci * chunk..(ci * chunk + out_chunk.len())];
                scope.spawn(move |_| {
                    for (slot, q) in out_chunk.iter_mut().zip(qs) {
                        *slot = self.search(q, tau);
                    }
                });
            }
        })
        .expect("search workers never panic");
        results
    }

    /// The partitioning in use.
    pub fn partitioning(&self) -> &Partitioning {
        &self.partitioning
    }

    /// Largest threshold the engine serves.
    pub fn tau_max(&self) -> usize {
        self.tau_max
    }

    /// The indexed data.
    pub fn data(&self) -> &Dataset {
        &self.data
    }

    /// Offline build timing decomposition.
    pub fn build_stats(&self) -> BuildStats {
        self.build_stats
    }

    /// Cost model (for experiment reporting).
    pub fn cost_model(&self) -> &CostModel {
        &self.cost_model
    }

    /// Index + estimator heap size (Fig. 6 accounting: GPH is charged for
    /// its estimator state on top of the postings).
    pub fn size_bytes(&self) -> usize {
        self.index.size_bytes() + self.estimator.size_bytes() + self.projected.size_bytes()
    }

    /// Size of the inverted index alone.
    pub fn index_size_bytes(&self) -> usize {
        self.index.size_bytes()
    }
}

/// Threshold spread used for auto-sampled workloads: covers
/// `{2, τ_max/4, τ_max/2, 3τ_max/4, τ_max}` so one partitioning serves
/// every runtime τ (§V-B).
pub fn default_workload_taus(tau_max: usize) -> Vec<u32> {
    let t = tau_max as u32;
    let mut v = vec![2.min(t), (t / 4).max(1), (t / 2).max(1), (3 * t / 4).max(1), t.max(1)];
    // `dedup` only removes *consecutive* duplicates; for small tau_max the
    // anchors are out of order (e.g. tau_max = 4 gives [2, 1, 2, 3, 4]),
    // so sort first to make deduplication total.
    v.sort_unstable();
    v.dedup();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn random_dataset(dim: usize, n: usize, p: f64, seed: u64) -> Dataset {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut ds = Dataset::new(dim);
        for _ in 0..n {
            let v = hamming_core::BitVector::from_bits((0..dim).map(|_| rng.random_bool(p)));
            ds.push(&v).unwrap();
        }
        ds
    }

    fn check_against_scan(cfg: &GphConfig, dim: usize, n: usize, taus: &[u32], seed: u64) {
        let ds = random_dataset(dim, n, 0.35, seed);
        let queries = random_dataset(dim, 12, 0.35, seed ^ 1);
        let gph = Gph::build(ds.clone(), cfg).unwrap();
        for tau in taus {
            for qi in 0..queries.len() {
                let q = queries.row(qi);
                let got = gph.search(q, *tau);
                let expect = ds.linear_scan(q, *tau);
                assert_eq!(got, expect, "tau={tau} qi={qi} cfg={cfg:?}");
            }
        }
    }

    #[test]
    fn exact_results_with_default_config() {
        let mut cfg = GphConfig::new(4, 8);
        cfg.strategy = PartitionStrategy::RandomShuffle { seed: 5 };
        check_against_scan(&cfg, 64, 400, &[0, 1, 4, 8], 42);
    }

    #[test]
    fn exact_results_with_rr_allocator() {
        let mut cfg = GphConfig::new(4, 8);
        cfg.allocator = AllocatorKind::RoundRobin;
        cfg.strategy = PartitionStrategy::Original;
        check_against_scan(&cfg, 64, 300, &[3, 6], 43);
    }

    #[test]
    fn exact_results_with_heuristic_partitioning() {
        let mut cfg = GphConfig::new(4, 6);
        cfg.strategy = PartitionStrategy::Heuristic(crate::partition_opt::HeuristicConfig {
            max_iters: 3,
            move_budget: Some(64),
            sample_rows: 200,
            ..Default::default()
        });
        check_against_scan(&cfg, 48, 250, &[2, 6], 44);
    }

    #[test]
    fn exact_results_with_exact_estimator() {
        let mut cfg = GphConfig::new(4, 8);
        cfg.estimator = EstimatorKind::Exact { max_width: 16 };
        cfg.strategy = PartitionStrategy::Original;
        check_against_scan(&cfg, 48, 300, &[5], 45);
    }

    #[test]
    fn exact_results_single_partition() {
        let mut cfg = GphConfig::new(1, 4);
        cfg.strategy = PartitionStrategy::Original;
        check_against_scan(&cfg, 24, 150, &[0, 2, 4], 46);
    }

    #[test]
    fn stats_are_consistent() {
        let mut cfg = GphConfig::new(4, 8);
        cfg.strategy = PartitionStrategy::RandomShuffle { seed: 7 };
        let ds = random_dataset(64, 500, 0.4, 47);
        let gph = Gph::build(ds.clone(), &cfg).unwrap();
        let q = ds.row(0).to_vec();
        let res = gph.search_with_stats(&q, 6);
        assert!(res.ids.contains(&0), "query is a data vector");
        let st = &res.stats;
        assert_eq!(st.thresholds.len(), 4);
        assert_eq!(st.thresholds.iter().map(|&t| t as i64).sum::<i64>(), 6 - 4 + 1);
        assert!(st.n_candidates <= st.sum_postings + st.n_scanned);
        assert!(st.n_results <= st.n_candidates);
        assert_eq!(st.n_results as usize, res.ids.len());
    }

    /// The pre-walk candidate generation, replayed under `thresholds`:
    /// enumerate every signature of each ball and probe it with
    /// [`InvertedIndex::postings`]. Returns `(n_signatures,
    /// sum_postings, n_candidates)`.
    fn enumerate_and_probe(gph: &Gph, query: &[u64], thresholds: &[i32]) -> (u64, u64, u64) {
        let (mut sigs, mut postings) = (0u64, 0u64);
        let mut cands = std::collections::HashSet::new();
        for (i, &ti) in thresholds.iter().enumerate() {
            if ti < 0 {
                continue;
            }
            let width = gph.projector.shape(i).width;
            let radius = (ti as usize).min(width);
            assert!(ball_size(width, radius) <= gph.data.len() as u64, "index path");
            let mut probe = |key: u64| {
                sigs += 1;
                let ids = gph.index.postings(i, key);
                postings += ids.len() as u64;
                cands.extend(ids.iter().copied());
            };
            let qv = gph.projector.project(i, query);
            if width <= 64 {
                hamming_core::enumerate::for_each_in_ball_u64(qv[0], width, radius, probe);
            } else {
                for_each_in_ball_words(&qv, width, radius, |w| probe(key_of(w, width)));
            }
        }
        (sigs, postings, cands.len() as u64)
    }

    #[test]
    fn trie_walk_counts_equal_enumerate_and_probe() {
        // 16-bit partitions take the trie walk, 80-bit ones the kept
        // enumerate + lookup path; both must report exactly the counts
        // of enumerating every signature and probing it.
        for (dim, m, n, taus) in [(64, 4, 3000, [3u32, 6, 8]), (160, 2, 400, [1, 2, 3])] {
            let ds = random_dataset(dim, n, 0.4, 55);
            let mut cfg = GphConfig::new(m, 8);
            cfg.strategy = PartitionStrategy::RandomShuffle { seed: 11 };
            let gph = Gph::build(ds.clone(), &cfg).unwrap();
            let mut compared = 0;
            for qi in 0..10 {
                // Planted neighbours: a stored row with two bits flipped.
                let mut q = ds.row(qi * 7).to_vec();
                q[0] ^= 0b1001 << (qi % 30);
                for tau in taus {
                    let res = gph.search_with_stats(&q, tau);
                    let st = &res.stats;
                    if st.n_scanned > 0 {
                        continue; // the scan fallback is not enumeration
                    }
                    let old = enumerate_and_probe(&gph, &q, &st.thresholds);
                    assert_eq!(
                        (st.n_signatures, st.sum_postings, st.n_candidates),
                        old,
                        "dim={dim} qi={qi} tau={tau}"
                    );
                    assert_eq!(res.ids, ds.linear_scan(&q, tau));
                    compared += 1;
                }
            }
            assert!(compared >= 15, "dim={dim}: only {compared} queries took the index path");
        }
    }

    #[test]
    fn scan_fallback_reports_n_scanned_not_postings() {
        // A single wide partition at a large radius makes the signature
        // ball outnumber the data, forcing the scan fallback for every
        // query. Scanned rows must land in `n_scanned`; `sum_postings`
        // keeps its Σ|I_s| meaning (zero — no postings were probed).
        let ds = random_dataset(32, 60, 0.5, 54);
        let mut cfg = GphConfig::new(1, 12);
        cfg.strategy = PartitionStrategy::Original;
        let gph = Gph::build(ds.clone(), &cfg).unwrap();
        let q = ds.row(0).to_vec();
        let res = gph.search_with_stats(&q, 12);
        let st = &res.stats;
        assert_eq!(st.n_scanned, ds.len() as u64, "one full pass over the data");
        assert_eq!(st.sum_postings, 0, "no index probes on the fallback path");
        assert!(st.n_candidates <= st.sum_postings + st.n_scanned);
        assert_eq!(res.ids, ds.linear_scan(&q, 12), "fallback stays exact");
    }

    #[test]
    fn topk_returns_nearest() {
        let ds = random_dataset(32, 300, 0.5, 48);
        let mut cfg = GphConfig::new(2, 16);
        cfg.strategy = PartitionStrategy::Original;
        let gph = Gph::build(ds.clone(), &cfg).unwrap();
        let q = ds.row(5).to_vec();
        let top = gph.search_topk(&q, 3);
        assert_eq!(top.len(), 3);
        assert_eq!(top[0], (5, 0), "self is nearest");
        assert!(top[1].1 <= top[2].1);
        // Cross-check the 2nd nearest against a scan.
        let mut all: Vec<(u32, u32)> =
            (0..ds.len()).map(|i| (i as u32, ds.distance_to(i, &q))).collect();
        all.sort_by_key(|&(id, d)| (d, id));
        assert_eq!(top[1], all[1]);
    }

    #[test]
    fn topk_within_caps_the_radius() {
        let ds = random_dataset(32, 300, 0.5, 48);
        let mut cfg = GphConfig::new(2, 16);
        cfg.strategy = PartitionStrategy::Original;
        let gph = Gph::build(ds.clone(), &cfg).unwrap();
        let q = ds.row(5).to_vec();
        // Cap == tau_max is exactly search_topk.
        assert_eq!(gph.search_topk_within(&q, 4, 16), gph.search_topk(&q, 4));
        // A capped search never returns a hit beyond the cap, and within
        // the cap it is exhaustive (matches a brute-force scan).
        for cap in [0u32, 2, 7] {
            let got = gph.search_topk_within(&q, 10, cap);
            assert!(got.iter().all(|&(_, d)| d <= cap), "cap={cap} got={got:?}");
            let mut expect: Vec<(u32, u32)> = (0..ds.len())
                .map(|i| (i as u32, ds.distance_to(i, &q)))
                .filter(|&(_, d)| d <= cap)
                .collect();
            expect.sort_by_key(|&(id, d)| (d, id));
            expect.truncate(10);
            assert_eq!(got, expect, "cap={cap}");
        }
    }

    #[test]
    fn par_search_matches_serial() {
        let ds = random_dataset(64, 400, 0.45, 49);
        let queries = random_dataset(64, 9, 0.45, 50);
        let mut cfg = GphConfig::new(4, 6);
        cfg.strategy = PartitionStrategy::Original;
        let gph = Gph::build(ds, &cfg).unwrap();
        let qrefs: Vec<&[u64]> = (0..queries.len()).map(|i| queries.row(i)).collect();
        let par = gph.par_search(&qrefs, 5, 3);
        for (i, q) in qrefs.iter().enumerate() {
            assert_eq!(par[i], gph.search(q, 5), "query {i}");
        }
    }

    #[test]
    fn par_search_handles_empty_remainder_and_oversubscription() {
        let ds = random_dataset(32, 200, 0.5, 61);
        let queries = random_dataset(32, 5, 0.5, 62);
        let mut cfg = GphConfig::new(2, 6);
        cfg.strategy = PartitionStrategy::Original;
        let gph = Gph::build(ds, &cfg).unwrap();
        let qrefs: Vec<&[u64]> = (0..queries.len()).map(|i| queries.row(i)).collect();
        // No queries: must return an empty batch, not panic on a
        // zero-sized chunk.
        assert!(gph.par_search(&[], 4, 3).is_empty());
        // More threads than queries: clamped, every query answered.
        let serial: Vec<Vec<u32>> = qrefs.iter().map(|q| gph.search(q, 4)).collect();
        assert_eq!(gph.par_search(&qrefs, 4, 64), serial);
        // Remainder smaller than the chunk (5 queries over 2 workers →
        // chunks of 3 + 2): nothing dropped.
        assert_eq!(gph.par_search(&qrefs, 4, 2), serial);
        // threads == 0 degrades to serial.
        assert_eq!(gph.par_search(&qrefs, 4, 0), serial);
    }

    #[test]
    fn engine_is_send_and_sync() {
        // The serving layer (gph-serve) shares one engine across shard
        // builders and worker threads; this pins the auto-trait bounds so
        // a future field can't silently revoke them.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Gph>();
        assert_send_sync::<QueryStats>();
        assert_send_sync::<SearchResult>();
    }

    #[test]
    #[should_panic(expected = "exceeds the configured tau_max")]
    fn tau_above_max_panics() {
        let ds = random_dataset(32, 50, 0.5, 51);
        let cfg = GphConfig { strategy: PartitionStrategy::Original, ..GphConfig::new(2, 4) };
        let gph = Gph::build(ds, &cfg).unwrap();
        let q = vec![0u64; 1];
        let _ = gph.search(&q, 5);
    }

    #[test]
    fn build_stats_and_sizes_populated() {
        let ds = random_dataset(32, 200, 0.5, 52);
        let cfg = GphConfig { strategy: PartitionStrategy::Original, ..GphConfig::new(2, 4) };
        let gph = Gph::build(ds, &cfg).unwrap();
        assert!(gph.size_bytes() > 0);
        assert!(gph.index_size_bytes() <= gph.size_bytes());
    }

    #[test]
    fn self_join_matches_bruteforce() {
        let ds = random_dataset(32, 120, 0.5, 60);
        let mut cfg = GphConfig::new(2, 8);
        cfg.strategy = PartitionStrategy::Original;
        let gph = Gph::build(ds.clone(), &cfg).unwrap();
        let tau = 8u32;
        let got = gph.self_join(tau, 3);
        let mut expect = Vec::new();
        for a in 0..ds.len() {
            for b in (a + 1)..ds.len() {
                if hamming_core::distance::hamming(ds.row(a), ds.row(b)) <= tau {
                    expect.push((a as u32, b as u32));
                }
            }
        }
        assert_eq!(got, expect);
        // Single-threaded agrees.
        assert_eq!(gph.self_join(tau, 1), expect);
    }

    #[test]
    fn estimate_cost_tracks_candidate_work() {
        let ds = random_dataset(64, 800, 0.35, 53);
        let mut cfg = GphConfig::new(4, 16);
        cfg.strategy = PartitionStrategy::RandomShuffle { seed: 3 };
        let gph = Gph::build(ds.clone(), &cfg).unwrap();
        let q = ds.row(0).to_vec();
        // Cost estimates grow with tau and are finite/non-negative.
        let c4 = gph.estimate_cost(&q, 4);
        let c16 = gph.estimate_cost(&q, 16);
        assert!(c4 >= 0.0 && c16.is_finite());
        assert!(c16 >= c4, "c4={c4} c16={c16}");
    }

    #[test]
    fn default_workload_taus_cover_range() {
        let taus = default_workload_taus(32);
        assert!(taus.contains(&2));
        assert!(taus.contains(&32));
        let taus1 = default_workload_taus(1);
        assert!(!taus1.is_empty());
    }

    #[test]
    fn default_workload_taus_sorted_and_distinct_for_small_tau_max() {
        for tau_max in 1..=5 {
            let taus = default_workload_taus(tau_max);
            assert!(!taus.is_empty(), "tau_max={tau_max} produced no taus");
            assert!(
                taus.windows(2).all(|w| w[0] < w[1]),
                "tau_max={tau_max} gave unsorted or duplicate thresholds: {taus:?}"
            );
            assert!(
                taus.iter().all(|&t| t >= 1 && t <= tau_max.max(1) as u32),
                "tau_max={tau_max} gave out-of-range thresholds: {taus:?}"
            );
            // The largest workload threshold is always tau_max itself.
            assert_eq!(taus.last(), Some(&(tau_max.max(1) as u32)));
        }
        // The regression the sort fixes: tau_max = 4 used to yield
        // [2, 1, 2, 3, 4] because dedup only removes adjacent repeats.
        assert_eq!(default_workload_taus(4), vec![1, 2, 3, 4]);
    }
}
