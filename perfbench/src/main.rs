//! End-to-end and per-layer benchmark of the GPH serving stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <probe-heavy|mixed-rw|cold> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run generates the workload's rows and planted-neighbour queries
//! from the seed, sets the stack up (index, `QueryService` with default
//! config, loopback `NetServer`), drives it through `GphClient` for
//! `--seconds` seconds, checks every answer against a linear scan, and
//! prints a table followed by one JSON line: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1` (which adds
//! the traced ladder run of `ladder.rs`). A wrong answer exits 1.

mod e2e;
mod gen;
mod ladder;
mod oracle;
mod rng;
mod stack;
mod stats;
mod workload;

use gen::{MixedStream, Op, QueryPool};
use gph::StorageMode;
use gph_net::GphClient;
use gph_serve::{QueryService, ShardedIndex};
use hamming_core::Dataset;
use oracle::{expect, Failure};
use stack::Node;
use stats::{median, Timing};
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;
use std::time::Instant;
use workload::Workload;

/// Set-up repeats, up to SETUP_REPEATS times, while all set-ups so far
/// took less than SETUP_MIN_S. The median is reported. Repeats run after
/// the measured rounds, so that the memory they leave with the allocator
/// does not raise `rss_peak_mb`.
const SETUP_REPEATS: usize = 5;
const SETUP_MIN_S: f64 = 3.0;
/// Operations generated for `mixed-rw` per measured second: eight times
/// the ~1000 ops/s one ordered caller reached on a 2-vCPU host when the
/// benchmark was written. A run that uses them all up fails.
const MIXED_OPS_PER_S: f64 = 8000.0;
/// Restores run at least RESTORE_REPEATS times and repeat until they
/// have taken RESTORE_MIN_S in all (a cold restore takes milliseconds),
/// at most RESTORE_MAX times. The median is reported.
const RESTORE_REPEATS: usize = 3;
const RESTORE_MIN_S: f64 = 1.0;
const RESTORE_MAX: usize = 25;
/// Rounds a run is split into. Capacity and medians are the median
/// round's, so a host hiccup during one round does not move them. With
/// five, `cold`'s two-caller capacity moved by 0.3 of its median from
/// run to run: single rounds jump from ~170 to 300-600 ops/s.
const MAX_ROUNDS: usize = 10;
/// Share of the measured time the read workloads spend in the closed
/// loop (the rest is the open loop).
const CLOSED_SHARE: f64 = 0.4;
/// Closed-loop warm-up before any measurement, in seconds.
const WARMUP_S: f64 = 0.5;
const MIB: f64 = (1 << 20) as f64;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> std::result::Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> std::result::Result<String, String> {
        let at = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(at + 1).cloned().ok_or(format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = Workload::by_name(&name).ok_or(format!("unknown workload {name}"))?;
    let num = |flag: &str, v: String| v.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
    let seed = num("--seed", get("--seed")?)?;
    let seconds = num("--seconds", get("--seconds")?)? as f64;
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    if seconds < 1.0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args { workload, seed, seconds, trace })
}

/// One metric: name, value, unit.
type Metric = (&'static str, f64, &'static str);

struct Outcome {
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: gph-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let run_dir = out_dir.join(format!("run-{}", std::process::id()));
    let result = std::fs::create_dir_all(&run_dir)
        .map_err(|e| Failure::Broken(format!("create {}: {e}", run_dir.display())))
        .and_then(|_| run(&args, &run_dir, &out_dir));
    std::fs::remove_dir_all(&run_dir).ok();
    match result {
        Ok(out) => {
            for note in &out.notes {
                println!("{note}");
            }
            println!("{:<22} {:>14}  unit", "metric", "value");
            for (name, value, unit) in &out.metrics {
                println!("{name:<22} {value:>14.6}  {unit}");
            }
            println!("{}", result_line(true, out.attempted, out.failed, &out.metrics));
        }
        Err(Failure::Wrong(m)) => {
            eprintln!("error: {m}");
            println!("{}", result_line(false, 1, 0, &[]));
            std::process::exit(1);
        }
        Err(Failure::Broken(e)) => {
            eprintln!("error: workload {}: {e}", args.workload.name);
            std::process::exit(1);
        }
    }
}

fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", json_num(*v)))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A finite JSON number with all its digits.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// A `/proc/self/status` memory field of this process (`VmHWM`, the
/// peak resident set so far, or `VmRSS`, the current one), in MiB.
fn proc_status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Exact answers of every pool query by linear scan, on two threads.
fn scan_truth(data: &Dataset, pool: &QueryPool, tau: u32) -> Vec<Vec<u32>> {
    let half = pool.len() / 2;
    let scan = |range: std::ops::Range<usize>| -> Vec<Vec<u32>> {
        range.map(|i| data.linear_scan(pool.get(i), tau)).collect()
    };
    std::thread::scope(|s| {
        let hi = s.spawn(|| scan(half..pool.len()));
        let mut lo = scan(0..half);
        lo.extend(hi.join().expect("scan thread panicked"));
        lo
    })
}

/// Length of `mixed-rw`'s stream for a run of `seconds` seconds.
fn mixed_ops(seconds: f64) -> usize {
    (MIXED_OPS_PER_S * seconds) as usize
}

/// A run's inputs, made from its seed, with their exact answers.
struct Inputs {
    data: Dataset,
    pool: QueryPool,
    /// Exact answer of each pool query (read workloads).
    truth: Vec<Vec<u32>>,
    /// `mixed-rw`'s ordered stream, with the answer of every search.
    mixed: Option<MixedStream>,
}

impl Inputs {
    fn new(w: &Workload, seed: u64, seconds: f64) -> Inputs {
        let data = gen::dataset(w.rows, gen::ROWS_SEED);
        let pool = QueryPool::planted(&data, w.pool, seed);
        let (truth, mixed) = if w.mixed {
            (Vec::new(), Some(MixedStream::generate(&data, &pool, w.tau, mixed_ops(seconds), seed)))
        } else {
            (scan_truth(&data, &pool, w.tau), None)
        };
        Inputs { data, pool, truth, mixed }
    }

    /// Exact answer of pool query `q` before any write.
    fn initial_truth(&self, q: usize) -> &[u32] {
        match &self.mixed {
            Some(s) => &s.truths[q],
            None => &self.truth[q],
        }
    }
}

/// Operations sent and operations that failed, were refused or timed out.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
}

/// Sets the stack up from the generated rows to the first answer
/// served; a cold stack serves the snapshot it writes to `snap`.
/// Returns it, its storage mode, and the set-up time.
fn set_up(
    w: &Workload,
    inputs: &Inputs,
    snap: &Path,
) -> std::result::Result<(Node, StorageMode, f64), Failure> {
    let t = Instant::now();
    let mut index = stack::build_index(w, &inputs.data)?;
    let mut mode = StorageMode::Resident;
    if w.cold {
        stack::snapshot(&index, snap)?;
        mode = stack::storage(w, snap)?;
        drop(index);
        index = ShardedIndex::restore_with_storage(snap, mode)
            .map_err(|e| format!("cold restore: {e}"))?;
    }
    let node =
        Node::serve(QueryService::new(Arc::new(index), stack::service_config(mode)), Vec::new())?;
    let first = node
        .client()?
        .search(inputs.pool.get(0), w.tau)
        .map_err(|e| format!("first answer: {e}"))?;
    let took = t.elapsed().as_secs_f64();
    expect(w.name, || "the first search after setup".into(), &first.ids, inputs.initial_truth(0))?;
    Ok((node, mode, took))
}

/// `QueryService::warm_start` of `snap` until the first answer, repeated
/// until the restores have taken RESTORE_MIN_S in all.
fn restore(
    w: &Workload,
    inputs: &Inputs,
    snap: &Path,
    mode: StorageMode,
) -> std::result::Result<Vec<f64>, Failure> {
    let mut times = Vec::new();
    let started = Instant::now();
    while times.len() < RESTORE_REPEATS
        || (started.elapsed().as_secs_f64() < RESTORE_MIN_S && times.len() < RESTORE_MAX)
    {
        let t = Instant::now();
        let service = stack::warm_start(snap, mode)?;
        let first = service.query(inputs.pool.get(0), w.tau);
        times.push(t.elapsed().as_secs_f64());
        let ids = first.ids().ok_or(format!("first answer after restore: {:?}", first.outcome))?;
        expect(w.name, || "the first search after restore".into(), ids, inputs.initial_truth(0))?;
        service.shutdown();
    }
    Ok(times)
}

/// What the measured rounds of a run recorded, one entry per round.
#[derive(Default)]
struct Rounds {
    capacity: Vec<f64>,
    search_ms: Vec<Vec<f64>>,
    mutation_ms: Vec<Vec<f64>>,
    lag_ms: Vec<Vec<f64>>,
    /// Result count of every answer.
    results: Vec<f64>,
}

/// The read workloads: MAX_ROUNDS rounds of a closed loop (capacity)
/// then an open loop at the workload's rate (latency), each answer
/// checked after its round.
fn measure_reads(
    w: &Workload,
    args: &Args,
    inputs: &Inputs,
    clients: &[GphClient],
    cursor: &AtomicUsize,
    tally: &mut Tally,
    rounds: &mut Rounds,
) -> std::result::Result<(), Failure> {
    let open_s = args.seconds * (1.0 - CLOSED_SHARE);
    let n = MAX_ROUNDS as f64;
    let pool = &inputs.pool;
    for _ in 0..MAX_ROUNDS {
        let closed =
            e2e::closed_loop(clients, pool, w.tau, cursor, args.seconds * CLOSED_SHARE / n);
        let open = e2e::open_loop(clients, pool, w.tau, cursor, w.rate, open_s / n);
        for r in closed.reads.iter().chain(&open.reads) {
            tally.attempted += 1;
            match &r.answer {
                Ok(ids) => {
                    let q = r.i % pool.len();
                    expect(
                        w.name,
                        || format!("search #{} (pool query {q})", r.i),
                        ids,
                        &inputs.truth[q],
                    )?;
                    rounds.results.push(ids.len() as f64);
                }
                Err(_) => tally.failed += 1,
            }
        }
        tally.attempted += open.missed;
        tally.failed += open.missed;
        rounds.capacity.push(closed.latency_ms.len() as f64 / closed.elapsed_s);
        rounds.search_ms.push(open.latency_ms);
        rounds.lag_ms.push(open.lag_ms);
    }
    Ok(())
}

/// `mixed-rw`: MAX_ROUNDS rounds of the one ordered caller, each
/// continuing the stream where the last stopped; every answer and
/// mutation outcome is checked after its round.
fn measure_mixed(
    w: &Workload,
    args: &Args,
    inputs: &Inputs,
    stream: &MixedStream,
    client: &GphClient,
    tally: &mut Tally,
    rounds: &mut Rounds,
) -> std::result::Result<(), Failure> {
    let mut next = 0;
    for _ in 0..MAX_ROUNDS {
        let log = e2e::mixed_loop(
            client,
            stream,
            next,
            &inputs.pool,
            w.tau,
            args.seconds / MAX_ROUNDS as f64,
        );
        tally.attempted += log.done;
        for (k, answer) in &log.reads {
            let Op::Search { query, truth } = stream.ops[*k] else {
                unreachable!("reads are searches")
            };
            match answer {
                Ok(ids) => {
                    let op = || format!("op #{k} (search of pool query {query})");
                    expect(w.name, op, ids, &stream.truths[truth as usize])?;
                    rounds.results.push(ids.len() as f64);
                }
                Err(_) => tally.failed += 1,
            }
        }
        for (k, outcome) in &log.writes {
            match outcome {
                Ok(got) if *got == e2e::expected(stream.ops[*k]) => {}
                Ok(got) => {
                    return Err(Failure::Broken(format!(
                        "op #{k} ({:?}) answered {got:?}",
                        stream.ops[*k]
                    )))
                }
                Err(_) => tally.failed += 1,
            }
        }
        if log.done == 0 {
            return Err(Failure::Broken(format!(
                "the mixed stream ran out after {next} operations"
            )));
        }
        next += log.done;
        rounds.capacity.push(log.done as f64 / log.elapsed_s);
        rounds.search_ms.push(log.search_ms);
        rounds.mutation_ms.push(log.mutation_ms);
    }
    Ok(())
}

fn run(args: &Args, run_dir: &Path, out_dir: &Path) -> std::result::Result<Outcome, Failure> {
    let w = &args.workload;
    let started = Instant::now();
    // The inputs and the oracle, made before anything is timed.
    let inputs = Inputs::new(w, args.seed, args.seconds);
    let oracle_s = started.elapsed().as_secs_f64();
    // What the harness holds from here on (rows, queries, truth, the
    // mixed stream); `rss_peak_mb` counts only what the run adds to it.
    let harness_mb = proc_status_mb("VmRSS");
    let planted =
        (0..inputs.pool.len()).map(|q| inputs.initial_truth(q).len() as f64).collect::<Vec<_>>();
    if stats::mean(&planted) < 1.0 {
        return Err(Failure::Broken(format!(
            "planted queries average {:.3} true results, below 1",
            stats::mean(&planted)
        )));
    }

    let snap = run_dir.join("snapshot");
    let (node, mode, first_setup_s) = set_up(w, &inputs, &snap)?;
    if !w.cold {
        stack::snapshot(node.service.index(), &snap)?;
    }
    let index = node.service.index();
    let index_bytes = index.size_bytes();
    let mut notes =
        vec![format!("inputs and oracle {oracle_s:.2} s, {harness_mb:.1} MiB resident")];
    if let StorageMode::FileBacked { budget_bytes } = mode {
        notes.push(format!("page cache budget {budget_bytes} B (half the snapshot)"));
    }

    let clients = [node.client()?, node.client()?];
    let cursor = AtomicUsize::new(1);
    e2e::closed_loop(&clients, &inputs.pool, w.tau, &cursor, WARMUP_S);
    let segments_start: usize = index.segment_counts().iter().sum();
    let cache0 = node.service.cache_stats();
    let net0 = node.server.stats();
    let pc0 = index.page_cache_stats().unwrap_or_default();
    let svc0 = node.service.stats();
    let mut tally = Tally::default();
    let mut rounds = Rounds::default();
    match &inputs.mixed {
        Some(stream) => {
            measure_mixed(w, args, &inputs, stream, &clients[0], &mut tally, &mut rounds)?
        }
        None => measure_reads(w, args, &inputs, &clients, &cursor, &mut tally, &mut rounds)?,
    }
    let segments_end: usize = index.segment_counts().iter().sum();
    let svc1 = node.service.stats();
    let cache1 = node.service.cache_stats();
    let net1 = node.server.stats();
    let pc1 = index.page_cache_stats().unwrap_or_default();
    // The index's memory: its heap after setup, plus what a file-backed
    // index has paged into its cache by the end of the measured rounds.
    let index_mb = (index_bytes as u64 + pc1.resident_bytes) as f64 / MIB;
    let results_per_q = stats::mean(&rounds.results);
    if results_per_q < 1.0 {
        return Err(Failure::Broken(format!(
            "answers average {results_per_q:.3} results, below 1"
        )));
    }
    if svc1.scanned_per_query >= w.rows as f64 {
        return Err(Failure::Broken("queries fell back to a full scan".into()));
    }

    let search = Timing::of_rounds(&rounds.search_ms);
    let mutation = Timing::of_rounds(&rounds.mutation_ms);
    let lag = Timing::of_rounds(&rounds.lag_ms);
    notes.push(format!(
        "{} rounds; capacity per round {}",
        rounds.capacity.len(),
        rounds.capacity.iter().map(|c| format!("{c:.0}")).collect::<Vec<_>>().join(" ")
    ));
    for (name, t) in [("search", search), ("mutation", mutation), ("generator lag", lag)] {
        notes.push(format!(
            "{name}: {} samples; median round p50 {:.4} ms, p{} {:.4} ms",
            t.n, t.p50, t.tail_p, t.tail
        ));
    }
    notes.push(format!("error_rate: {} failed of {} attempted", tally.failed, tally.attempted));
    // Read before the set-up repeats and the restores, whose freed memory
    // the allocator keeps: the peak of one set-up and the measured rounds.
    let rss_peak_mb = proc_status_mb("VmHWM") - harness_mb;
    drop(clients);
    node.shutdown();
    let mut setup_s = vec![first_setup_s];
    while setup_s.len() < SETUP_REPEATS && setup_s.iter().sum::<f64>() < SETUP_MIN_S {
        let (node, _, took) = set_up(w, &inputs, &run_dir.join("setup"))?;
        node.shutdown();
        setup_s.push(took);
    }
    notes.push(format!(
        "setup {} s",
        setup_s.iter().map(|s| format!("{s:.3}")).collect::<Vec<_>>().join(" ")
    ));
    let restore_s = restore(w, &inputs, &snap, mode)?;
    notes.push(format!("restore {} x, median {:.4} s", restore_s.len(), median(&restore_s)));
    let e2e_metrics: Vec<Metric> = vec![
        ("setup_s", median(&setup_s), "s"),
        ("restore_s", median(&restore_s), "s"),
        ("capacity_ops", median(&rounds.capacity), "ops/s"),
        ("search_p50_ms", search.p50, "ms"),
        ("index_mb", index_mb, "MiB"),
        ("rss_peak_mb", rss_peak_mb, "MiB"),
    ];
    if !args.trace {
        return Ok(Outcome {
            attempted: tally.attempted,
            failed: tally.failed,
            metrics: e2e_metrics,
            notes,
        });
    }
    notes.extend(
        e2e_metrics.iter().map(|(name, value, unit)| format!("{name:<22} {value:>14.6}  {unit}")),
    );

    // Counters of the serving path over the measured rounds.
    let ops = (svc1.responses - svc0.responses + svc1.mutations - svc0.mutations).max(1) as f64;
    let lookups = (cache1.hits + cache1.misses - cache0.hits - cache0.misses).max(1) as f64;
    let paged = (pc1.hits + pc1.misses - pc0.hits - pc0.misses).max(1) as f64;
    let requests = (net1.requests - net0.requests).max(1) as f64;
    // The tails vary several-fold from run to run on a small shared
    // host, too much to hold a regression bound: reported unbounded.
    // Mutation latency exists on `mixed-rw` only, and an end-to-end
    // metric must be non-zero on every workload.
    let mut metrics: Vec<Metric> = vec![
        ("e2e.search_p99_ms", search.tail, "ms"),
        ("e2e.mutation_p50_ms", mutation.p50, "ms"),
        ("e2e.mutation_p99_ms", mutation.tail, "ms"),
        ("bench.error_rate", tally.failed as f64 / tally.attempted.max(1) as f64, "fraction"),
        ("bench.gen_lag_ms", lag.tail, "ms"),
        ("bench.search_samples", search.n as f64, "count"),
        ("coldstore.pagecache_hit_rate", (pc1.hits - pc0.hits) as f64 / paged, "fraction"),
        ("coldstore.pagecache_evictions", (pc1.evictions - pc0.evictions) as f64 / ops, "count/op"),
        ("coldstore.pagecache_resident_mb", pc1.resident_bytes as f64 / MIB, "MiB"),
        ("service.cache_hit_rate", (cache1.hits - cache0.hits) as f64 / lookups, "fraction"),
        (
            "service.cache_invalidations",
            (cache1.invalidations - cache0.invalidations) as f64 / ops,
            "count/op",
        ),
        (
            "service.queue_rejections",
            (svc1.queue_rejections - svc0.queue_rejections) as f64,
            "count",
        ),
        (
            "net.bytes_per_op",
            (net1.bytes_in + net1.bytes_out - net0.bytes_in - net0.bytes_out) as f64 / requests,
            "B",
        ),
        (
            "net.backpressure_pauses",
            (net1.backpressure_pauses - net0.backpressure_pauses) as f64,
            "count",
        ),
        ("net.protocol_errors", (net1.protocol_errors - net0.protocol_errors) as f64, "count"),
        ("shard.segments_start", segments_start as f64, "count"),
        ("shard.segments_end", segments_end as f64, "count"),
    ];

    let spans_path: PathBuf = out_dir.join(format!("spans-{}-seed{}.jsonl", w.name, args.seed));
    let t = Instant::now();
    let layers = ladder::run(w, &inputs, &snap, mode, &spans_path)?;
    notes.push(format!(
        "traced ladder {:.2} s; spans written to {}",
        t.elapsed().as_secs_f64(),
        spans_path.display()
    ));
    let value = |name: &str| layers.iter().find(|(n, _, _)| *n == name).map_or(0.0, |m| m.1);
    if value("engine.results_per_q") < 1.0 {
        return Err(Failure::Broken("the traced run's queries average below 1 result".into()));
    }
    if value("engine.scanned_per_q") >= w.rows as f64 {
        return Err(Failure::Broken(
            "the traced run timed the scan fallback, not the index".into(),
        ));
    }
    metrics.extend(layers);
    Ok(Outcome { attempted: tally.attempted, failed: tally.failed, metrics, notes })
}
