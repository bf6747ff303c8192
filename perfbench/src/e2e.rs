//! The untraced run: load generators that drive the serving path over
//! loopback `GPHN` exactly as a client would. Timing loops only record;
//! every answer is checked after the loop ends.

use crate::gen::{MixedStream, Op, QueryPool};
use gph_net::{GphClient, NetError, WireMutation};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The open loop sleeps until this long before a request is due, then
/// yields in a loop until it is: a thread that sleeps right up to the
/// due time lets its vCPU halt, and every send then pays a timer wakeup
/// whose length depends on the host, not on the program.
const SPIN: Duration = Duration::from_micros(500);

/// Longest a request may take before it counts as failed.
const TIMEOUT: Duration = Duration::from_secs(10);

/// One answered (or failed) search of a pool query.
pub struct Read {
    /// Position in the workload's query cycle (pool index = `i % pool`).
    pub i: usize,
    pub answer: Result<Vec<u32>, String>,
}

/// What a read loop recorded.
#[derive(Default)]
pub struct ReadLog {
    pub reads: Vec<Read>,
    /// Client-side latency of every successful search, in ms.
    pub latency_ms: Vec<f64>,
    /// How late the generator sent each request, in ms (open loop).
    pub lag_ms: Vec<f64>,
    /// Requests due in the window that were never sent because the
    /// system fell too far behind.
    pub missed: usize,
    pub elapsed_s: f64,
}

fn search(client: &GphClient, query: &[u64], tau: u32) -> Result<Vec<u32>, String> {
    client
        .submit_search(query, tau)
        .and_then(|t| t.wait_timeout(TIMEOUT))
        .map(|r| r.ids)
        .map_err(|e: NetError| e.to_string())
}

fn merge(logs: Vec<ReadLog>, elapsed_s: f64) -> ReadLog {
    let mut out = ReadLog { elapsed_s, ..ReadLog::default() };
    for l in logs {
        out.reads.extend(l.reads);
        out.latency_ms.extend(l.latency_ms);
        out.lag_ms.extend(l.lag_ms);
        out.missed += l.missed;
    }
    out
}

/// Closed loop: each client keeps one search in flight, sending the
/// next pool query (from the shared `cursor`) when the previous one
/// answers, for `secs` seconds.
pub fn closed_loop(
    clients: &[GphClient],
    pool: &QueryPool,
    tau: u32,
    cursor: &AtomicUsize,
    secs: f64,
) -> ReadLog {
    let t0 = Instant::now();
    let end = t0 + Duration::from_secs_f64(secs);
    let logs: Vec<ReadLog> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter()
            .map(|client| {
                s.spawn(move || {
                    let mut log = ReadLog::default();
                    while Instant::now() < end {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let t = Instant::now();
                        let answer = search(client, pool.get(i % pool.len()), tau);
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        if answer.is_ok() {
                            log.latency_ms.push(ms);
                        }
                        log.reads.push(Read { i, answer });
                    }
                    log
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load generator panicked")).collect()
    });
    merge(logs, t0.elapsed().as_secs_f64())
}

/// Open loop: requests fall due every `1 / rate` seconds for `secs`
/// seconds, whatever the system's state. Two generator threads (one
/// connection each) take due slots in order; each search is timed from
/// when it was due, so a stall also charges the requests queued behind
/// it. Slots still unsent `secs` after the window closed are missed.
pub fn open_loop(
    clients: &[GphClient],
    pool: &QueryPool,
    tau: u32,
    cursor: &AtomicUsize,
    rate: f64,
    secs: f64,
) -> ReadLog {
    let slots = (rate * secs) as usize;
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    let give_up = t0 + Duration::from_secs_f64(2.0 * secs);
    let logs: Vec<ReadLog> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter()
            .map(|client| {
                let next = &next;
                s.spawn(move || {
                    let mut log = ReadLog::default();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= slots {
                            break;
                        }
                        let due = t0 + Duration::from_secs_f64(k as f64 / rate);
                        let now = Instant::now();
                        if now > give_up {
                            log.missed += 1;
                            continue;
                        }
                        if due > now + SPIN {
                            std::thread::sleep(due - now - SPIN);
                        }
                        while Instant::now() < due {
                            std::thread::yield_now();
                        }
                        let sent = Instant::now();
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let answer = search(client, pool.get(i % pool.len()), tau);
                        if answer.is_ok() {
                            log.latency_ms.push(due.elapsed().as_secs_f64() * 1e3);
                        }
                        log.lag_ms.push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
                        log.reads.push(Read { i, answer });
                    }
                    log
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load generator panicked")).collect()
    });
    merge(logs, t0.elapsed().as_secs_f64())
}

/// A mutation's answer, as the wire reports it.
pub type Written = Result<WireMutation, String>;

/// What the ordered mixed caller recorded.
#[derive(Default)]
pub struct MixedLog {
    /// Operations completed, a prefix of the stream.
    pub done: usize,
    /// `(op index, answer)` of every search.
    pub reads: Vec<(usize, Result<Vec<u32>, String>)>,
    /// `(op index, outcome)` of every mutation.
    pub writes: Vec<(usize, Written)>,
    pub search_ms: Vec<f64>,
    pub mutation_ms: Vec<f64>,
    pub elapsed_s: f64,
}

/// Sends one mutation of the stream.
pub fn mutate(client: &GphClient, stream: &MixedStream, op: Op) -> Written {
    let ticket = match op {
        Op::Insert { id, row } => client.submit_insert(id, stream.row(row)),
        Op::Upsert { id, row } => client.submit_upsert(id, stream.row(row)),
        Op::Delete { id } => client.submit_delete(id),
        Op::Search { .. } => unreachable!("searches are not mutations"),
    };
    ticket.and_then(|t| t.wait_timeout(TIMEOUT)).map_err(|e| e.to_string())
}

/// The outcome a correct server gives `op`: inserts add a fresh id,
/// upserts replace and deletes remove a live one.
pub fn expected(op: Op) -> WireMutation {
    WireMutation::Applied { replaced: !matches!(op, Op::Insert { .. }) }
}

/// One ordered caller working through `stream` from operation `start`
/// in a closed loop for `secs` seconds (or until the stream ends);
/// latencies from send.
pub fn mixed_loop(
    client: &GphClient,
    stream: &MixedStream,
    start: usize,
    pool: &QueryPool,
    tau: u32,
    secs: f64,
) -> MixedLog {
    let mut log = MixedLog::default();
    let t0 = Instant::now();
    let end = t0 + Duration::from_secs_f64(secs);
    for (k, &op) in stream.ops.iter().enumerate().skip(start) {
        if Instant::now() >= end {
            break;
        }
        let t = Instant::now();
        match op {
            Op::Search { query, .. } => {
                let answer = search(client, pool.get(query as usize), tau);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                if answer.is_ok() {
                    log.search_ms.push(ms);
                }
                log.reads.push((k, answer));
            }
            _ => {
                let outcome = mutate(client, stream, op);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                if outcome.is_ok() {
                    log.mutation_ms.push(ms);
                }
                log.writes.push((k, outcome));
            }
        }
        log.done = k + 1 - start;
    }
    log.elapsed_s = t0.elapsed().as_secs_f64();
    log
}
