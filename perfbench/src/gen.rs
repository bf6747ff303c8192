//! Planted-neighbour inputs, all derived from the benchmark's seed: the
//! stored rows, query pools of stored rows with a few bits flipped, and
//! the ordered read/write stream of `mixed-rw` together with the exact
//! answer every read in it must get.

use crate::rng::Rng;
use datagen::Profile;
use hamming_core::{hamming, Dataset};

/// Bits flipped into a stored row to make a query: about one true
/// result per query at the workloads' thresholds.
pub const FLIPS: usize = 4;

/// Dimensionality of `Profile::synthetic_gamma`.
pub const DIM: usize = 128;

const WORDS: usize = DIM / 64;

/// Seed of the stored rows, the same for every run: the index build's
/// cost depends on the rows (one seed's probe-heavy set-up took 0.33 s,
/// another's 0.55 s), so rows drawn per run seed moved the median
/// set-up of ten runs by up to 1.3x from one batch of seeds to the
/// next. The run seed varies the queries and the mixed stream.
pub const ROWS_SEED: u64 = 0;

/// The stored rows of a workload: `rows` rows of the paper's synthetic
/// profile (mean skew 0.25). Every workload with the same row count
/// gets the same rows for a seed.
pub fn dataset(rows: usize, seed: u64) -> Dataset {
    Profile::synthetic_gamma(0.25).generate(rows, seed.wrapping_mul(0x9E37_79B9).wrapping_add(11))
}

/// `row` with `flips` distinct random bits of its first `dim` flipped.
pub fn plant(row: &[u64], dim: usize, flips: usize, rng: &mut Rng) -> Vec<u64> {
    let mut out = row.to_vec();
    let mut chosen: Vec<usize> = Vec::with_capacity(flips);
    while chosen.len() < flips.min(dim) {
        let bit = rng.below(dim);
        if !chosen.contains(&bit) {
            chosen.push(bit);
            out[bit / 64] ^= 1u64 << (bit % 64);
        }
    }
    out
}

/// A pool of planted queries, each made from a distinct stored row.
pub struct QueryPool {
    /// Query `i`, `WORDS` words each, back to back.
    words: Vec<u64>,
    /// The stored row each query was planted from.
    pub sources: Vec<u32>,
}

impl QueryPool {
    /// `n` queries (at most one per stored row) with [`FLIPS`] bits
    /// flipped each.
    pub fn planted(data: &Dataset, n: usize, seed: u64) -> QueryPool {
        let mut rng = Rng::new(seed, 1);
        let n = n.min(data.len());
        // Partial Fisher-Yates: the first `n` of a random permutation.
        let mut ids: Vec<u32> = (0..data.len() as u32).collect();
        for i in 0..n {
            let j = i + rng.below(ids.len() - i);
            ids.swap(i, j);
        }
        ids.truncate(n);
        let mut words = Vec::with_capacity(n * WORDS);
        for &id in &ids {
            words.extend(plant(data.row(id as usize), data.dim(), FLIPS, &mut rng));
        }
        QueryPool { words, sources: ids }
    }

    pub fn len(&self) -> usize {
        self.sources.len()
    }

    /// Query `i`.
    pub fn get(&self, i: usize) -> &[u64] {
        &self.words[i * WORDS..(i + 1) * WORDS]
    }
}

/// Samples pool indices with probability proportional to `1 / rank`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Zipf with exponent 1 over `n` ranks.
    pub fn new(n: usize) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / r as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

/// One operation of the `mixed-rw` stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Search pool query `query`; the exact answer is `truths[truth]`.
    Search { query: u32, truth: u32 },
    /// Insert row `row` of the stream's row arena under a fresh id.
    Insert { id: u32, row: u32 },
    /// Replace live `id` with arena row `row`.
    Upsert { id: u32, row: u32 },
    /// Delete live `id`.
    Delete { id: u32 },
}

/// The ordered `mixed-rw` stream: 80% searches drawn Zipf-skewed from
/// a small planted pool, 10% upserts, 5% inserts and 5% deletes.
pub struct MixedStream {
    pub ops: Vec<Op>,
    /// Rows written by inserts and upserts, `WORDS` words each.
    rows: Vec<u64>,
    /// Distinct answers; a search names the one in force at its turn.
    pub truths: Vec<Vec<u32>>,
}

impl MixedStream {
    /// `n_ops` operations over `data` (ids `0..data.len()`), searching
    /// `pool` at threshold `tau`. The exact answer to every search is
    /// found by replaying the stream against a shadow copy of the rows:
    /// each mutation moves its id in or out of the answer of every pool
    /// query its old or new row lies within `tau` of.
    pub fn generate(data: &Dataset, pool: &QueryPool, tau: u32, n_ops: usize, seed: u64) -> Self {
        let mut rng = Rng::new(seed, 2);
        let zipf = Zipf::new(pool.len());
        let dim = data.dim();
        // Shadow rows by id; `None` once deleted.
        let mut shadow: Vec<Option<Vec<u64>>> =
            (0..data.len()).map(|i| Some(data.row(i).to_vec())).collect();
        // Live ids, for uniform picks, with each id's position in it.
        let mut live: Vec<u32> = (0..data.len() as u32).collect();
        let mut pos: Vec<usize> = (0..data.len()).collect();
        let mut truths: Vec<Vec<u32>> = Vec::new();
        let mut current: Vec<u32> = (0..pool.len())
            .map(|q| {
                truths.push(data.linear_scan(pool.get(q), tau));
                (truths.len() - 1) as u32
            })
            .collect();
        let mut rows: Vec<u64> = Vec::new();
        let mut ops = Vec::with_capacity(n_ops);

        // Half the written rows are planted next to a pool query, so
        // writes keep changing answers (and the cache must notice); the
        // rest are far from every stored row.
        let new_row = |rng: &mut Rng, rows: &mut Vec<u64>| -> u32 {
            let row = if rng.below(2) == 0 {
                let q = pool.get(rng.below(pool.len()));
                plant(q, dim, rng.below(tau as usize / 2 + 1), rng)
            } else {
                plant(data.row(rng.below(data.len())), dim, 24, rng)
            };
            rows.extend(row);
            (rows.len() / WORDS - 1) as u32
        };

        for _ in 0..n_ops {
            let roll = rng.below(20);
            let op = if roll < 16 || live.len() < 2 {
                let q = zipf.sample(&mut rng);
                Op::Search { query: q as u32, truth: current[q] }
            } else if roll < 18 {
                let id = live[rng.below(live.len())];
                Op::Upsert { id, row: new_row(&mut rng, &mut rows) }
            } else if roll < 19 {
                Op::Insert { id: shadow.len() as u32, row: new_row(&mut rng, &mut rows) }
            } else {
                Op::Delete { id: live[rng.below(live.len())] }
            };
            // Replay the mutation against the shadow and the answers.
            let (id, new) = match op {
                Op::Search { .. } => {
                    ops.push(op);
                    continue;
                }
                Op::Insert { id, row } | Op::Upsert { id, row } => {
                    let r = row as usize * WORDS;
                    (id, Some(rows[r..r + WORDS].to_vec()))
                }
                Op::Delete { id } => (id, None),
            };
            let idx = id as usize;
            if idx == shadow.len() {
                shadow.push(None);
                pos.push(usize::MAX);
            }
            let old = shadow[idx].take();
            for (q, cur) in current.iter_mut().enumerate() {
                let query = pool.get(q);
                let was = old.as_deref().is_some_and(|r| hamming(r, query) <= tau);
                let now = new.as_deref().is_some_and(|r| hamming(r, query) <= tau);
                if was != now {
                    let mut answer = truths[*cur as usize].clone();
                    match answer.binary_search(&id) {
                        Ok(at) => {
                            answer.remove(at);
                        }
                        Err(at) => answer.insert(at, id),
                    }
                    truths.push(answer);
                    *cur = (truths.len() - 1) as u32;
                }
            }
            match (old.is_some(), new.is_some()) {
                (false, true) => {
                    pos[idx] = live.len();
                    live.push(id);
                }
                (true, false) => {
                    let at = pos[idx];
                    live.swap_remove(at);
                    if at < live.len() {
                        pos[live[at] as usize] = at;
                    }
                    pos[idx] = usize::MAX;
                }
                _ => {}
            }
            shadow[idx] = new;
            ops.push(op);
        }
        MixedStream { ops, rows, truths }
    }

    /// Arena row `row`.
    pub fn row(&self, row: u32) -> &[u64] {
        let r = row as usize * WORDS;
        &self.rows[r..r + WORDS]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = dataset(500, 7);
        let b = dataset(500, 7);
        assert_eq!(a.words(), b.words());
        assert_ne!(a.words(), dataset(500, 8).words());
        let (pa, pb) = (QueryPool::planted(&a, 64, 7), QueryPool::planted(&b, 64, 7));
        assert_eq!(pa.sources, pb.sources);
        assert_eq!(pa.words, pb.words);
        assert_ne!(pa.words, QueryPool::planted(&a, 64, 8).words);
        let sa = MixedStream::generate(&a, &pa, 12, 2000, 7);
        let sb = MixedStream::generate(&b, &pb, 12, 2000, 7);
        assert_eq!(sa.ops, sb.ops);
        assert_eq!(sa.rows, sb.rows);
        assert_eq!(sa.truths, sb.truths);
    }

    #[test]
    fn planted_queries_lie_within_their_flip_count() {
        let data = dataset(300, 3);
        let pool = QueryPool::planted(&data, 300, 3);
        let mut seen = std::collections::HashSet::new();
        for i in 0..pool.len() {
            let src = pool.sources[i] as usize;
            assert!(seen.insert(src), "query {i} reuses source row {src}");
            assert_eq!(hamming(data.row(src), pool.get(i)), FLIPS as u32);
        }
        let mut rng = Rng::new(1, 1);
        for flips in 0..10 {
            let q = plant(data.row(0), DIM, flips, &mut rng);
            assert_eq!(hamming(data.row(0), &q), flips as u32);
        }
    }

    #[test]
    fn mixed_truth_matches_a_replayed_linear_scan() {
        let data = dataset(400, 5);
        let pool = QueryPool::planted(&data, 16, 5);
        let stream = MixedStream::generate(&data, &pool, 12, 3000, 5);
        // Replay naively: a full scan of the live rows at every search.
        let mut rows: Vec<Option<Vec<u64>>> =
            (0..data.len()).map(|i| Some(data.row(i).to_vec())).collect();
        let (mut reads, mut writes) = (0, 0);
        for op in &stream.ops {
            match *op {
                Op::Search { query, truth } => {
                    let q = pool.get(query as usize);
                    let want: Vec<u32> = (0..rows.len() as u32)
                        .filter(|&i| {
                            rows[i as usize].as_deref().is_some_and(|r| hamming(r, q) <= 12)
                        })
                        .collect();
                    assert_eq!(stream.truths[truth as usize], want);
                    reads += 1;
                }
                Op::Insert { id, row } => {
                    assert_eq!(id as usize, rows.len());
                    rows.push(Some(stream.row(row).to_vec()));
                    writes += 1;
                }
                Op::Upsert { id, row } => {
                    assert!(rows[id as usize].is_some(), "upsert of a dead id");
                    rows[id as usize] = Some(stream.row(row).to_vec());
                    writes += 1;
                }
                Op::Delete { id } => {
                    assert!(rows[id as usize].take().is_some(), "delete of a dead id");
                    writes += 1;
                }
            }
        }
        assert!(reads > 2000 && writes > 450, "{reads} reads, {writes} writes");
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(256);
        let mut rng = Rng::new(9, 9);
        let mut hits = [0usize; 256];
        for _ in 0..20_000 {
            hits[z.sample(&mut rng)] += 1;
        }
        assert!(hits[0] > 4 * hits[10] && hits[10] > hits[200]);
    }
}
