//! The traced run: the same query stream called into each layer's public
//! entry point in turn, from the linear scan up to a `FleetClient` hop,
//! with a benchmark-side span around every call. A layer's self time is
//! the per-query difference between its call and the call one rung
//! below it on the same query.
//!
//! Every rung above the engine runs on its own copy of the index,
//! restored from the workload's snapshot, behind its own service: no
//! rung can hit a result cache or page cache that a lower rung warmed
//! for the same query, and each mutation of `mixed-rw` reaches every
//! copy through that rung's own entry point.

use crate::e2e::{expected, mutate};
use crate::gen::{MixedStream, Op, QueryPool};
use crate::oracle::{expect, Failure};
use crate::stack::{self, Fleet, Node};
use crate::stats::{median, Timing};
use crate::workload::Workload;
use crate::{Inputs, Metric};
use gph::{Gph, SegmentedGph, StorageMode};
use gph_net::GphClient;
use gph_serve::{MutationOutcome, QueryService, ShardedIndex};
use hamming_core::Dataset;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Read operations the ladder times on the read workloads.
const READS: usize = 1000;
/// Stream operations the ladder replays on `mixed-rw`.
const MIXED_OPS: usize = 6000;
/// Queries each rung answers before timing starts (fills page caches).
const WARMUP: usize = 200;

/// One timed call: name, interval, the span that caused it, and the
/// operation (request) it belongs to.
struct Span {
    id: u32,
    /// 0 for a root span.
    parent: u32,
    request: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// Spans kept in memory and written out when the run ends.
struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    fn new() -> Spans {
        Spans { origin: Instant::now(), spans: Vec::new() }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span when `on`; returns its result and the
    /// span's duration in ns (0 when off).
    fn call<T>(
        &mut self,
        on: bool,
        name: &'static str,
        parent: u32,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        if !on {
            return (f(), 0);
        }
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span { id, parent, request, name, start_ns, end_ns });
        (out, end_ns - start_ns)
    }

    /// Opens a root span whose end is set by [`Spans::close`].
    fn open(&mut self, name: &'static str, request: u64) -> u32 {
        let start_ns = self.now();
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span { id, parent: 0, request, name, start_ns, end_ns: start_ns });
        id
    }

    fn close(&mut self, id: u32) {
        let end = self.now();
        self.spans[id as usize - 1].end_ns = end;
    }

    /// Writes one JSON object per span, one per line.
    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// The rungs a read climbs, bottom to top; also the span names.
const RUNGS: [&str; 7] = ["scan", "engine", "sharded", "service", "service_traced", "net", "fleet"];

/// What one rung answered.
enum Answer {
    Scan(Vec<u32>),
    Engine(gph::SearchResult),
    Sharded(gph_serve::ShardedSearchResult),
    Service(gph_serve::Response),
    Net(Result<gph_net::RangeResult, gph_net::NetError>),
    Fleet(Result<gph_net::FleetSearch, gph_net::NetError>),
}

/// Every rung of the ladder, bottom to top.
struct Rungs<'a> {
    data: &'a Dataset,
    engine: Gph,
    sharded: ShardedIndex,
    service: QueryService,
    /// A second service, called with `query_traced` only, so that both
    /// calls on a query run against a result cache of their own.
    traced: QueryService,
    net: Node,
    net_client: GphClient,
    fleet: Fleet,
    /// `mixed-rw` only: a bare `SegmentedGph` fed the same mutations as
    /// the one-shard indexes, whose segment list shows each seal and
    /// compaction as it happens.
    mirror: Option<SegmentedGph>,
}

impl<'a> Rungs<'a> {
    fn build(
        w: &Workload,
        data: &'a Dataset,
        dir: &Path,
        mode: StorageMode,
    ) -> stack::Result<Self> {
        let engine = Gph::build(data.clone(), &w.config()).map_err(|e| format!("engine: {e}"))?;
        let net = Node::serve(stack::warm_start(dir, mode)?, Vec::new())?;
        let net_client = net.client()?;
        let mirror = if w.mixed {
            let manifest = gph_serve::read_manifest(dir).map_err(|e| format!("manifest: {e}"))?;
            let shard = dir.join(manifest.shards[0].file_name());
            Some(SegmentedGph::load(shard).map_err(|e| format!("mirror: {e}"))?)
        } else {
            None
        };
        Ok(Rungs {
            data,
            engine,
            sharded: ShardedIndex::restore_with_storage(dir, mode)
                .map_err(|e| format!("restore: {e}"))?,
            service: stack::warm_start(dir, mode)?,
            traced: stack::warm_start(dir, mode)?,
            net,
            net_client,
            fleet: Fleet::start(stack::warm_start(dir, mode)?)?,
            mirror,
        })
    }

    /// Searches rung `i` of [`RUNGS`].
    fn call(&self, i: usize, q: &[u64], tau: u32) -> Answer {
        match i {
            0 => Answer::Scan(self.data.linear_scan(q, tau)),
            1 => Answer::Engine(self.engine.search_with_stats(q, tau)),
            2 => Answer::Sharded(self.sharded.search_with_stats(q, tau)),
            3 => Answer::Service(self.service.query(q, tau)),
            4 => Answer::Service(self.traced.query_traced(q, tau)),
            5 => Answer::Net(self.net_client.search(q, tau)),
            _ => Answer::Fleet(self.fleet.client.search(q, tau)),
        }
    }

    fn shutdown(self) {
        drop(self.net_client);
        self.net.shutdown();
        self.fleet.shutdown();
        self.service.shutdown();
        self.traced.shutdown();
    }
}

/// Per-read samples and sums the per-layer metrics are made from.
#[derive(Default)]
struct Acc {
    scan: Vec<f64>,
    engine: Vec<f64>,
    sharded: Vec<f64>,
    service: Vec<f64>,
    net: Vec<f64>,
    fleet: Vec<f64>,
    /// `(query, query_traced)` ns pairs of service calls that missed
    /// the result cache.
    traced_pairs: Vec<(f64, f64)>,
    /// Whole-pass ns of reads with spans on, and with spans off.
    pass_on: Vec<f64>,
    pass_off: Vec<f64>,
    reads: u64,
    alloc_ns: f64,
    enumerate_ns: f64,
    candgen_ns: f64,
    verify_ns: f64,
    sigs: f64,
    postings: f64,
    cands: f64,
    results: f64,
    scanned: f64,
    est_cost: f64,
    engine_total_ns: f64,
    shard_sigs: f64,
    shard_total_ns: f64,
    insert: Vec<f64>,
    upsert: Vec<f64>,
    delete: Vec<f64>,
    seal_calls: Vec<f64>,
    seals: u64,
    compactions: u64,
}

/// Runs the ladder for workload `w` over `inputs`, with every rung
/// restored from the snapshot in `dir` in storage `mode`, and returns
/// its per-layer metrics; spans go to `spans_path`.
pub fn run(
    w: &Workload,
    inputs: &Inputs,
    dir: &Path,
    mode: StorageMode,
    spans_path: &Path,
) -> Result<Vec<Metric>, Failure> {
    let (pool, mixed) = (&inputs.pool, inputs.mixed.as_ref());
    let mut rungs = Rungs::build(w, &inputs.data, dir, mode)?;
    // Warm every rung up (connections, page caches) on the far end of
    // the pool, which the read workloads' timed part never sends.
    for k in 0..WARMUP.min(pool.len()) {
        let q = pool.get(pool.len() - 1 - k);
        rungs.sharded.search(q, w.tau);
        rungs.service.query(q, w.tau);
        rungs.traced.query_traced(q, w.tau);
        let _ = rungs.net_client.search(q, w.tau);
        let _ = rungs.fleet.client.search(q, w.tau);
    }
    let mut spans = Spans::new();
    let mut acc = Acc::default();
    let ops: Vec<Op> = match mixed {
        Some(s) => s.ops.iter().copied().take(MIXED_OPS).collect(),
        None => (0..READS.min(pool.len() - WARMUP))
            .map(|i| Op::Search { query: i as u32, truth: i as u32 })
            .collect(),
    };
    let truth_of = |t: u32| -> &[u32] {
        match mixed {
            Some(s) => &s.truths[t as usize],
            None => &inputs.truth[t as usize],
        }
    };
    for (k, &op) in ops.iter().enumerate() {
        let on = k % 2 == 0;
        let t = Instant::now();
        match op {
            Op::Search { query, truth } => {
                read(&rungs, &mut spans, &mut acc, w, pool, query, truth_of(truth), k, on)?;
                let ns = t.elapsed().as_nanos() as f64;
                if on {
                    acc.pass_on.push(ns)
                } else {
                    acc.pass_off.push(ns)
                }
            }
            _ => write(
                &mut rungs,
                &mut spans,
                &mut acc,
                mixed.expect("mutations come from the mixed stream"),
                op,
                k,
                on,
            )?,
        }
    }
    spans.write(spans_path).map_err(|e| format!("write spans: {e}"))?;
    rungs.shutdown();
    Ok(metrics(&acc))
}

fn wrong(w: &Workload, op: String, got: &[u32], want: &[u32]) -> Result<(), Failure> {
    Ok(expect(w.name, || op, got, want)?)
}

#[allow(clippy::too_many_arguments)]
fn read(
    r: &Rungs,
    spans: &mut Spans,
    acc: &mut Acc,
    w: &Workload,
    pool: &QueryPool,
    query: u32,
    want: &[u32],
    k: usize,
    on: bool,
) -> Result<(), Failure> {
    let q = pool.get(query as usize);
    let tau = w.tau;
    let req = k as u64;
    let root = if on { spans.open("search", req) } else { 0 };
    // Every other traced read walks the ladder top-down, so that being
    // called first (or right after a neighbour) biases no rung.
    let mut order: Vec<usize> = (0..RUNGS.len()).collect();
    if (k / 2) % 2 == 1 {
        order.reverse();
    }
    let mut ns = [0u64; RUNGS.len()];
    let mut answers: Vec<Option<Answer>> = (0..RUNGS.len()).map(|_| None).collect();
    for i in order {
        let (answer, took) = spans.call(on, RUNGS[i], root, req, || r.call(i, q, tau));
        ns[i] = took;
        answers[i] = Some(answer);
    }
    if on {
        spans.close(root);
    }

    let op = |layer: &str| format!("search #{k} (pool query {query}) via {layer}");
    let answers: Vec<Answer> =
        answers.into_iter().map(|a| a.expect("every rung answered")).collect();
    let Ok(
        [Answer::Scan(scan), Answer::Engine(eng), Answer::Sharded(sh), Answer::Service(svc), Answer::Service(svc_t), Answer::Net(net), Answer::Fleet(fleet)],
    ) = <[Answer; RUNGS.len()]>::try_from(answers)
    else {
        unreachable!("rungs answer in RUNGS order")
    };
    // The engine and the scan see the workload's initial rows; every
    // rung above them sees the live rows the oracle tracks.
    wrong(w, op("engine"), &eng.ids, &scan)?;
    wrong(w, op("sharded"), &sh.ids, want)?;
    let ids = |resp: &gph_serve::Response, layer: &str| -> Result<Vec<u32>, Failure> {
        resp.ids()
            .map(<[u32]>::to_vec)
            .ok_or_else(|| Failure::Broken(format!("{}: {:?}", op(layer), resp.outcome)))
    };
    wrong(w, op("service"), &ids(&svc, "service")?, want)?;
    wrong(w, op("service traced"), &ids(&svc_t, "service traced")?, want)?;
    let net = net.map_err(|e| Failure::Broken(format!("{}: {e}", op("net"))))?;
    wrong(w, op("net"), &net.ids, want)?;
    let fleet = fleet.map_err(|e| Failure::Broken(format!("{}: {e}", op("fleet"))))?;
    wrong(w, op("fleet"), &fleet.ids, want)?;
    let [scan_ns, engine_ns, sharded_ns, service_ns, traced_ns, net_ns, fleet_ns] = ns;

    let s = &eng.stats;
    acc.reads += 1;
    acc.alloc_ns += s.alloc_ns as f64;
    acc.enumerate_ns += s.enumerate_ns as f64;
    acc.candgen_ns += s.candgen_ns as f64;
    acc.verify_ns += s.verify_ns as f64;
    acc.sigs += s.n_signatures as f64;
    acc.postings += s.sum_postings as f64;
    acc.cands += s.n_candidates as f64;
    acc.results += s.n_results as f64;
    acc.scanned += s.n_scanned as f64;
    acc.est_cost += s.estimated_cost;
    acc.engine_total_ns += s.total_ns() as f64;
    acc.shard_sigs += sh.shard_stats.iter().map(|x| x.n_signatures as f64).sum::<f64>();
    acc.shard_total_ns += sh.shard_stats.iter().map(|x| x.total_ns() as f64).sum::<f64>();
    if on {
        acc.scan.push(scan_ns as f64);
        acc.engine.push(engine_ns as f64);
        acc.sharded.push(sharded_ns as f64);
        acc.service.push(service_ns as f64);
        acc.net.push(net_ns as f64);
        acc.fleet.push(fleet_ns as f64);
        if !svc.from_cache && !svc_t.from_cache {
            acc.traced_pairs.push((service_ns as f64, traced_ns as f64));
        }
    }
    Ok(())
}

/// A `mixed-rw` write, as every rung's entry points take it.
#[derive(Clone, Copy, PartialEq)]
enum Mutation<'a> {
    Insert(&'a [u64]),
    Upsert(&'a [u64]),
    Delete,
}

#[allow(clippy::too_many_arguments)]
fn write(
    r: &mut Rungs,
    spans: &mut Spans,
    acc: &mut Acc,
    stream: &MixedStream,
    op: Op,
    k: usize,
    on: bool,
) -> Result<(), Failure> {
    let req = k as u64;
    let (name, id, mutation) = match op {
        Op::Insert { id, row } => ("insert", id, Mutation::Insert(stream.row(row))),
        Op::Upsert { id, row } => ("upsert", id, Mutation::Upsert(stream.row(row))),
        Op::Delete { id } => ("delete", id, Mutation::Delete),
        Op::Search { .. } => unreachable!("searches are reads"),
    };
    let desc = || format!("{name} #{k} (id {id})");
    let broken = |layer: &str, e: String| Failure::Broken(format!("{} via {layer}: {e}", desc()));
    let root = if on { spans.open(name, req) } else { 0 };

    let mirror = r.mirror.as_mut().expect("mixed-rw keeps a mirror");
    let before = mirror.num_sealed();
    let (applied, _) = spans.call(on, "segment", root, req, || match mutation {
        Mutation::Insert(row) => mirror.insert(id, row).map(|_| true),
        Mutation::Upsert(row) => mirror.upsert(id, row),
        Mutation::Delete => Ok(mirror.delete(id)),
    });
    let applied = applied.map_err(|e| broken("segment", e.to_string()))?;
    // A seal empties the memtable an insert or upsert just wrote to;
    // every segment it adds beyond those still held was merged away.
    let memtable_live = mirror.segment_info().last().map_or(0, |m| m.live);
    let seal = mutation != Mutation::Delete && memtable_live == 0;
    let compactions = (before + seal as usize).saturating_sub(mirror.num_sealed());

    let sharded = &r.sharded;
    let (sh, _) = spans.call(on, "sharded", root, req, || match mutation {
        Mutation::Insert(row) => sharded.insert(id, row).map(|_| true),
        Mutation::Upsert(row) => sharded.upsert(id, row),
        Mutation::Delete => Ok(sharded.delete(id)),
    });
    let sh = sh.map_err(|e| broken("sharded", e.to_string()))?;
    let on_service = |service: &QueryService| match mutation {
        Mutation::Insert(row) => service.insert(id, row),
        Mutation::Upsert(row) => service.upsert(id, row),
        Mutation::Delete => Ok(service.delete(id)),
    };
    let t = Instant::now();
    let (svc, _) = spans.call(on, "service", root, req, || on_service(&r.service));
    let service_ns = t.elapsed().as_nanos() as f64;
    let svc = svc.map_err(|e| broken("service", e.to_string()))?;
    let (svc_t, _) = spans.call(on, "service_traced", root, req, || on_service(&r.traced));
    let svc_t = svc_t.map_err(|e| broken("service traced", e.to_string()))?;
    let (net, _) = spans.call(on, "net", root, req, || mutate(&r.net_client, stream, op));
    let fleet = &r.fleet.client;
    let (fleet, _) = spans.call(on, "fleet", root, req, || match mutation {
        Mutation::Insert(row) => fleet.insert(id, row),
        Mutation::Upsert(row) => fleet.upsert(id, row),
        Mutation::Delete => fleet.delete(id),
    });
    if on {
        spans.close(root);
    }

    // Every stream mutation applies: inserts take fresh ids, upserts
    // and deletes name live ones.
    let want = expected(op);
    let ok = MutationOutcome::Applied { replaced: !matches!(mutation, Mutation::Insert(_)) };
    if !applied || !sh || svc.outcome != ok || svc_t.outcome != ok {
        return Err(Failure::Broken(format!(
            "{}: segment applied {applied}, sharded applied {sh}, services {:?} and {:?}",
            desc(),
            svc.outcome,
            svc_t.outcome
        )));
    }
    let net = net.map_err(|e| broken("net", e))?;
    let fleet = fleet.map_err(|e| broken("fleet", e.to_string()))?;
    if net != want || fleet != want {
        return Err(Failure::Broken(format!(
            "{}: net {net:?}, fleet {fleet:?}, want {want:?}",
            desc()
        )));
    }

    match mutation {
        Mutation::Insert(_) => acc.insert.push(service_ns),
        Mutation::Upsert(_) => acc.upsert.push(service_ns),
        Mutation::Delete => acc.delete.push(service_ns),
    }
    if seal {
        acc.seals += 1;
        acc.seal_calls.push(service_ns);
    }
    acc.compactions += compactions as u64;
    Ok(())
}

fn metrics(a: &Acc) -> Vec<Metric> {
    let us = |xs: &[f64]| if xs.is_empty() { 0.0 } else { median(xs) / 1e3 };
    let self_us = |upper: &[f64], lower: &[f64]| {
        us(&upper.iter().zip(lower).map(|(u, l)| u - l).collect::<Vec<_>>())
    };
    let per_read = |x: f64| x / a.reads.max(1) as f64;
    let ratio = |x: f64, y: f64| if y > 0.0 { x / y } else { 0.0 };
    let engine = Timing::of(&a.engine);
    let (plain, traced): (Vec<f64>, Vec<f64>) = a.traced_pairs.iter().copied().unzip();
    let trace_overhead = if plain.is_empty() { 0.0 } else { us(&traced) / us(&plain) - 1.0 };
    vec![
        ("core.scan_us", us(&a.scan), "us"),
        ("core.index_vs_scan", ratio(us(&a.engine), us(&a.scan)), "ratio"),
        ("engine.engine_us", us(&a.engine), "us"),
        ("engine.engine_p99_us", engine.tail / 1e3, "us"),
        ("engine.alloc_us", per_read(a.alloc_ns) / 1e3, "us"),
        ("engine.enumerate_us", per_read(a.enumerate_ns) / 1e3, "us"),
        ("engine.candgen_us", per_read(a.candgen_ns) / 1e3, "us"),
        ("engine.verify_us", per_read(a.verify_ns) / 1e3, "us"),
        ("engine.sigs_per_q", per_read(a.sigs), "count"),
        ("engine.postings_per_q", per_read(a.postings), "count"),
        ("engine.cands_per_q", per_read(a.cands), "count"),
        ("engine.results_per_q", per_read(a.results), "count"),
        ("engine.scanned_per_q", per_read(a.scanned), "count"),
        ("engine.cand_precision", ratio(a.results, a.cands), "ratio"),
        ("engine.cn_est_ratio", ratio(a.cands, a.est_cost), "ratio"),
        ("shard.sharded_us", us(&a.sharded), "us"),
        ("shard.sharded_self_us", self_us(&a.sharded, &a.engine), "us"),
        ("shard.sigs_ratio", ratio(a.shard_sigs, a.sigs), "ratio"),
        ("shard.work_ratio", ratio(a.shard_total_ns, a.engine_total_ns), "ratio"),
        ("service.service_us", us(&a.service), "us"),
        ("service.service_self_us", self_us(&a.service, &a.sharded), "us"),
        ("obs.trace_overhead", trace_overhead, "ratio"),
        ("mutation.insert_us", us(&a.insert), "us"),
        ("mutation.upsert_us", us(&a.upsert), "us"),
        ("mutation.delete_us", us(&a.delete), "us"),
        ("mutation.seals", a.seals as f64, "count"),
        ("mutation.compactions", a.compactions as f64, "count"),
        ("mutation.seal_call_ms", us(&a.seal_calls) / 1e3, "ms"),
        ("net.net_us", us(&a.net), "us"),
        ("net.net_self_us", self_us(&a.net, &a.service), "us"),
        ("fleet.fleet_us", us(&a.fleet), "us"),
        ("fleet.fleet_self_us", self_us(&a.fleet, &a.net), "us"),
        ("bench.bench_trace_overhead", ratio(us(&a.pass_on), us(&a.pass_off)) - 1.0, "ratio"),
    ]
}
