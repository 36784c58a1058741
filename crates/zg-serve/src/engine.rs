//! Execution engines: the trait the scheduler dispatches batches to, and
//! [`ZiGongEngine`] — a persistent pool of bit-exact model replicas with
//! cross-request KV prefix sharing.
//!
//! ## Exactness contract
//!
//! `ZiGongEngine` serves [`Payload::Score`] through
//! [`ZiGongModel::decide`] — the routine the offline
//! `ZiGongModel::evaluate_item` runs, with the prompt prefill taken from
//! the prefix pool instead of a fresh cache — and [`Payload::Generate`]
//! with exactly `ZiGongModel::generate_answer`. Prefix sharing is
//! bitwise-transparent (split prefill — including the multi-way splits
//! the LCP path takes — is bit-identical to whole prefill, pinned by
//! `zg-model`'s `split_prefill_bit_identity` test) and replicas are
//! bit-exact rebuilds of one [`ZiGongSpec`], so the served answer and
//! probability are exact-`f64` equal to the offline evaluator for **any**
//! worker count, **any** request interleaving, and **any** routing
//! decision.
//!
//! ## Prefix reuse
//!
//! Each prompt prefill goes through the replica's radix-trie
//! [`PrefixPool`]: the longest cached prefix is leased and only the
//! suffix is prefilled, in chunks that re-insert (a) an entry at the
//! *divergence point* where this prompt peels away from previously seen
//! traffic — the shared template header discovers itself from the
//! requests — and (b) the extended prefix covering all but the last
//! prompt token, so the next same-template request hits deeper.
//!
//! ## Determinism model
//!
//! Workers are persistent threads, each owning a private replica and a
//! private [`PrefixPool`] (the pool is `Rc`-based and single-threaded by
//! design — no locks on the decode path, and per-worker hit sequences
//! stay deterministic). Batches are split into contiguous runs of equal
//! template key and routed with **prefix affinity**: a run goes to the
//! worker whose pool last served its template (bounded by a per-batch
//! balance cap), untemplated requests go to the least-loaded worker.
//! Assignment is a pure function of the batch contents, the worker
//! count, and the (deterministic) affinity history; replies are merged
//! by original batch index, never by completion order. Worker trace
//! streams are forked on the spawning thread in loop order, so stream
//! ids are stable across runs.

use std::sync::mpsc::{Receiver, Sender};
use std::thread::JoinHandle;

use zg_model::{CausalLm, KvCache, PrefixBlock, PrefixPool, PrefixStats};
use zg_trace::Clock;
use zg_zigong::{DecisionStage, ZiGongModel, ZiGongSpec};

use crate::ops::{RequestObs, Stage};
use crate::queue::QueuedRequest;
use crate::request::{Payload, Reply, RequestId};

/// Executes batches of admitted requests. The scheduler treats this as a
/// black box; the simulation tests substitute deterministic mocks.
pub trait Engine {
    /// Serve every request in `batch`, returning `(id, reply)` pairs in
    /// batch order. Must return exactly one reply per request.
    fn execute(&mut self, batch: &[QueuedRequest]) -> Vec<(RequestId, Reply)>;

    /// Release worker resources. Called once by `Server::shutdown`;
    /// engines with no threads need not override it.
    fn shutdown(&mut self) {}

    /// Install the clock engine-side stage stamps ([`RequestObs`]) are
    /// read from. Observation is strictly passive — stamping must not
    /// change any served bytes. Engines without stage observability
    /// (mocks) ignore it.
    fn install_stage_clock(&mut self, _clock: Clock) {}

    /// Drain the per-request observations accumulated since the last
    /// drain, in batch order. Empty unless a stage clock is installed.
    fn drain_obs(&mut self) -> Vec<RequestObs> {
        Vec::new()
    }
}

/// Tuning knobs for [`ZiGongEngine`].
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Worker replicas. `0` and `1` both mean "inline on the caller's
    /// thread" (no worker threads, still one replica + pool).
    pub workers: usize,
    /// Token budget of each worker's radix prefix pool: unleased cached
    /// prefixes are evicted LRU-first once their summed token length
    /// exceeds this (leased entries are never evicted).
    pub pool_budget_tokens: usize,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            workers: 1,
            pool_budget_tokens: 4096,
        }
    }
}

/// One worker's state: a bit-exact model replica plus its private
/// prefix pool. Also used inline when `workers <= 1`. Its GEMM kernel is
/// the serving thread's: worker threads start on
/// [`zg_tensor::default_gemm_kernel`], the inline replica uses the
/// caller's selection.
struct Replica {
    model: ZiGongModel,
    pool: PrefixPool,
    /// Ops-plane stage clock; `None` (the default) makes every stamp a
    /// no-op, so observation-off serving does zero extra work.
    stage_clock: Option<Clock>,
    /// Stage marks of the request currently being served.
    marks: Vec<(Stage, f64)>,
    /// Completed per-request observations awaiting collection.
    obs: Vec<RequestObs>,
}

impl Replica {
    fn new(spec: &ZiGongSpec, cfg: &EngineConfig) -> Replica {
        Replica {
            model: spec.build(),
            pool: PrefixPool::new(cfg.pool_budget_tokens),
            stage_clock: None,
            marks: Vec::new(),
            obs: Vec::new(),
        }
    }

    /// Serve one scoring request: [`ZiGongModel::decide`] with the
    /// prompt prefill routed through the prefix pool and each decision
    /// step stamped on the request's timeline.
    fn serve_score(&mut self, prompt: &str, negative: &str, positive: &str) -> Reply {
        let _span = zg_trace::span("serve.score");
        let Replica {
            model,
            pool,
            stage_clock,
            marks,
            ..
        } = self;
        // The prefill's leases pin every pooled block it touched until the
        // decision returns.
        let mut leases = Vec::new();
        let (answer, p_positive) = model.decide(
            prompt,
            negative,
            positive,
            |lm, ids| {
                let (cache, logits, held) = prefill_shared(pool, lm, ids);
                leases = held;
                (cache, logits)
            },
            |step| {
                let stage = match step {
                    DecisionStage::Prefill => Stage::Prefill,
                    DecisionStage::Decode => Stage::Decode,
                    DecisionStage::Score => Stage::Score,
                };
                stamp(stage_clock, marks, stage);
            },
        );
        drop(leases);
        Reply::Scored { answer, p_positive }
    }

    /// Serve one generation request — exactly
    /// `ZiGongModel::generate_answer`.
    fn serve_generate(&mut self, prompt: &str, max_new: usize) -> Reply {
        let _span = zg_trace::span("serve.generate");
        let _leak = zg_tensor::GraphLeakGuard::new("ZiGongEngine::serve_generate");
        let text = self.model.generate_answer(prompt, max_new);
        stamp(&self.stage_clock, &mut self.marks, Stage::Decode);
        Reply::Generated { text }
    }

    fn serve(&mut self, req: &QueuedRequest) -> (RequestId, Reply) {
        zg_trace::counter_add("serve.requests", 1.0);
        // Ops observation is passive: pool stats are cheap snapshots and
        // stamping only reads the injected clock, so served bytes are
        // identical with the stage clock installed or not.
        let before = self.stage_clock.is_some().then(|| self.pool.stats());
        self.marks.clear();
        let reply = match &req.payload {
            Payload::Score {
                prompt,
                negative,
                positive,
            } => self.serve_score(prompt, negative, positive),
            Payload::Generate { prompt, max_new } => self.serve_generate(prompt, *max_new),
        };
        if let Some(b) = before {
            let a = self.pool.stats();
            self.obs.push(RequestObs {
                id: req.id,
                marks: std::mem::take(&mut self.marks),
                hit_tokens: a.hit_tokens - b.hit_tokens,
                lookup_tokens: a.lookup_tokens - b.lookup_tokens,
                resident_tokens: a.resident_tokens as u64,
            });
        }
        (req.id, reply)
    }

    fn serve_chunk(&mut self, chunk: &[QueuedRequest]) -> Vec<(RequestId, Reply)> {
        let _span = zg_trace::span_arg("serve.chunk", chunk.len() as i64);
        chunk.iter().map(|r| self.serve(r)).collect()
    }

    /// Leak audit: every prefix lease must be back in the pool between
    /// batches.
    fn audit(&self) -> Result<(), String> {
        let s = self.pool.stats();
        if s.live_leases != 0 {
            return Err(format!("{} outstanding prefix lease(s)", s.live_leases));
        }
        Ok(())
    }
}

/// Stamp `stage` at the ops clock's current tick (no-op when no stage
/// clock is installed).
fn stamp(clock: &Option<Clock>, marks: &mut Vec<(Stage, f64)>, stage: Stage) {
    if let Some(clock) = clock {
        marks.push((stage, clock()));
    }
}

/// Prefill `ids` reusing (and feeding) the radix prefix pool. Returns the
/// full-prompt cache, the next-token logits, and the leases pinning every
/// pooled block this request touches.
///
/// The pool's longest cached prefix is leased and forked; only the suffix
/// is prefilled, in chunks that insert (and lease) an entry at (a) the
/// divergence point between this prompt and previously seen traffic
/// (`shared_prefix_len` — the template header as discovered from the
/// requests themselves) and (b) the extended prefix covering all but the
/// last prompt token. Split prefill is bitwise-transparent for arbitrary
/// multi-way splits (see module docs), so every path is bit-identical to
/// `lm.prefill(ids)` in one shot.
fn prefill_shared(
    pool: &mut PrefixPool,
    lm: &CausalLm,
    ids: &[u32],
) -> (KvCache, Vec<f32>, Vec<PrefixBlock>) {
    let mut leases = Vec::new();
    let (mut cache, mut from) = match pool.acquire(ids) {
        Some((block, len)) => {
            let cache = block.fork();
            leases.push(block);
            (cache, len)
        }
        None => (lm.new_cache(), 0),
    };
    for b in [pool.shared_prefix_len(ids), ids.len().saturating_sub(1)] {
        if b <= from || b >= ids.len() {
            continue;
        }
        // INVARIANT: from < b < ids.len() by the guard above, so the chunk
        // and key slices are in bounds and non-empty. No logits are read
        // here, so the chunk skips the LM head.
        lm.ingest(&ids[from..b], &mut cache);
        // INVARIANT: b < ids.len() by the same guard, so the key slice is
        // in bounds.
        leases.push(pool.insert(&ids[..b], cache.fork()));
        from = b;
    }
    // INVARIANT: every accepted boundary is < ids.len(), so at least one
    // token remains and prefill's non-empty precondition holds.
    let logits = lm.prefill(&ids[from..], &mut cache);
    (cache, logits, leases)
}

enum Msg {
    Batch(Vec<QueuedRequest>),
    Audit,
    StageClock(Clock),
    Stop,
}

enum Out {
    Batch(Vec<(RequestId, Reply)>, Vec<RequestObs>),
    Audit(Result<(), String>, PrefixStats),
}

struct Worker {
    tx: Sender<Msg>,
    rx: Receiver<Out>,
    join: Option<JoinHandle<()>>,
}

/// The production engine: persistent bit-exact replicas serving batches
/// with cross-request prefix reuse. See the module docs for the
/// exactness and determinism contracts.
pub struct ZiGongEngine {
    inline: Option<Replica>,
    workers: Vec<Worker>,
    /// Template key -> worker whose pool last served it (prefix-affinity
    /// routing). BTreeMap for deterministic iteration; bounded by the
    /// number of distinct template keys ever seen.
    affinity: std::collections::BTreeMap<u64, usize>,
    /// Per-request observations merged into batch order by `execute`,
    /// awaiting `drain_obs`. Empty unless a stage clock is installed.
    obs_buf: Vec<RequestObs>,
}

impl ZiGongEngine {
    /// Build an engine from a model snapshot.
    ///
    /// With `cfg.workers >= 2`, worker threads are spawned *now*, each
    /// rebuilding a private replica from a clone of `spec`. Their trace
    /// streams are forked here, on the calling thread in loop order, so
    /// construct the engine after installing a tracer if worker spans
    /// should be captured.
    pub fn new(spec: ZiGongSpec, cfg: EngineConfig) -> ZiGongEngine {
        if cfg.workers <= 1 {
            return ZiGongEngine {
                inline: Some(Replica::new(&spec, &cfg)),
                workers: Vec::new(),
                affinity: std::collections::BTreeMap::new(),
                obs_buf: Vec::new(),
            };
        }
        let workers = (0..cfg.workers)
            .map(|i| {
                let stream = zg_trace::fork_stream(&format!("serve.worker{i}"));
                let (tx, job_rx) = std::sync::mpsc::channel::<Msg>();
                let (out_tx, rx) = std::sync::mpsc::channel::<Out>();
                let spec = spec.clone();
                let join = std::thread::spawn(move || {
                    let _guard = stream.map(|s| s.install());
                    let mut replica = Replica::new(&spec, &cfg);
                    while let Ok(msg) = job_rx.recv() {
                        match msg {
                            Msg::Batch(chunk) => {
                                let out = replica.serve_chunk(&chunk);
                                let obs = std::mem::take(&mut replica.obs);
                                if out_tx.send(Out::Batch(out, obs)).is_err() {
                                    break;
                                }
                            }
                            Msg::StageClock(clock) => {
                                replica.stage_clock = Some(clock);
                            }
                            Msg::Audit => {
                                let res = Out::Audit(replica.audit(), replica.pool.stats());
                                if out_tx.send(res).is_err() {
                                    break;
                                }
                            }
                            Msg::Stop => break,
                        }
                    }
                });
                Worker {
                    tx,
                    rx,
                    join: Some(join),
                }
            })
            .collect();
        ZiGongEngine {
            inline: None,
            workers,
            affinity: std::collections::BTreeMap::new(),
            obs_buf: Vec::new(),
        }
    }

    /// Aggregate prefix-pool statistics across all replicas, plus the
    /// per-replica leak-audit verdict.
    pub fn audit(&mut self) -> (Result<(), String>, PrefixStats) {
        if let Some(replica) = &self.inline {
            return (replica.audit(), replica.pool.stats());
        }
        let mut verdict = Ok(());
        let mut total = PrefixStats::default();
        for (i, w) in self.workers.iter().enumerate() {
            if w.tx.send(Msg::Audit).is_err() {
                verdict = Err(format!("worker {i} hung up"));
                continue;
            }
            match w.rx.recv() {
                Ok(Out::Audit(res, stats)) => {
                    if let Err(e) = res {
                        verdict = Err(format!("worker {i}: {e}"));
                    }
                    total.hits += stats.hits;
                    total.misses += stats.misses;
                    total.hit_tokens += stats.hit_tokens;
                    total.lookup_tokens += stats.lookup_tokens;
                    total.inserts += stats.inserts;
                    total.evictions += stats.evictions;
                    total.entries += stats.entries;
                    total.resident_tokens += stats.resident_tokens;
                    total.live_leases += stats.live_leases;
                }
                _ => verdict = Err(format!("worker {i} returned no audit")),
            }
        }
        (verdict, total)
    }

    /// Split a batch into contiguous runs of equal template key.
    /// Untemplated requests are singleton runs (they share no prefix, so
    /// there is nothing to keep together). A pure function of the batch.
    fn runs(batch: &[QueuedRequest]) -> Vec<(Option<u64>, std::ops::Range<usize>)> {
        let mut out: Vec<(Option<u64>, std::ops::Range<usize>)> = Vec::new();
        for (i, req) in batch.iter().enumerate() {
            match out.last_mut() {
                Some((Some(key), range)) if req.template == Some(*key) => range.end = i + 1,
                _ => out.push((req.template, i..i + 1)),
            }
        }
        out
    }

    /// Assign each run to a worker: templated runs go to the worker
    /// whose pool last served their template (prefix affinity) unless
    /// that worker already holds a full per-batch share, in which case —
    /// like untemplated runs — they go to the least-loaded worker
    /// (lowest index on ties) and the affinity map is updated. Returns
    /// each worker's assigned original batch indices, in batch order.
    ///
    /// Deterministic: a pure function of the batch, `n`, and the
    /// affinity history (itself a pure function of prior batches).
    fn assign(&mut self, batch: &[QueuedRequest], n: usize) -> Vec<Vec<usize>> {
        let cap = batch.len().div_ceil(n);
        let mut load = vec![0usize; n];
        let mut out = vec![Vec::new(); n];
        for (key, range) in Self::runs(batch) {
            let sticky = key
                .and_then(|k| self.affinity.get(&k).copied())
                // INVARIANT: affinity values are worker indices recorded
                // below against the same worker count for this engine.
                .filter(|&w| load[w] < cap);
            let w = sticky.unwrap_or_else(|| {
                (0..n)
                    // INVARIANT: w in 0..n indexes the n-length load vector.
                    .min_by_key(|&w| load[w])
                    // INVARIANT: n >= 1, so the range has a minimum.
                    .expect("at least one worker")
            });
            if let Some(k) = key {
                self.affinity.insert(k, w);
            }
            // INVARIANT: w is either a sticky index validated by the
            // `load[w] < cap` filter or drawn from 0..n just above, so it
            // is in bounds for both per-worker vectors.
            load[w] += range.len();
            // INVARIANT: same bound as the line above.
            out[w].extend(range);
        }
        out
    }
}

impl Engine for ZiGongEngine {
    fn execute(&mut self, batch: &[QueuedRequest]) -> Vec<(RequestId, Reply)> {
        if batch.is_empty() {
            return Vec::new();
        }
        let _span = zg_trace::span_arg("serve.execute", batch.len() as i64);
        if let Some(replica) = &mut self.inline {
            let out = replica.serve_chunk(batch);
            self.obs_buf.append(&mut replica.obs);
            return out;
        }
        let assignment = self.assign(batch, self.workers.len());
        // Dispatch every non-empty assignment, then collect: workers run
        // concurrently but replies are merged back into original batch
        // positions, so the output order never depends on scheduling.
        let mut dispatched = Vec::new();
        for (w, idxs) in self.workers.iter().zip(&assignment) {
            if idxs.is_empty() {
                continue;
            }
            // INVARIANT: assign() only emits indices from 0..batch.len().
            let chunk: Vec<QueuedRequest> = idxs.iter().map(|&i| batch[i].clone()).collect();
            w.tx.send(Msg::Batch(chunk))
                // INVARIANT: workers only exit when told to stop or when
                // this (sending) side is gone, so the channel is open here.
                .expect("serve worker channel open");
            dispatched.push((w, idxs));
        }
        let mut slots: Vec<Option<(RequestId, Reply)>> = vec![None; batch.len()];
        let mut obs_slots: Vec<Option<RequestObs>> = vec![None; batch.len()];
        for (w, idxs) in dispatched {
            // INVARIANT: every dispatched worker answers each Batch with
            // exactly one Out::Batch before processing anything else.
            match w.rx.recv().expect("serve worker reply") {
                Out::Batch(chunk, obs) => {
                    for (&i, reply) in idxs.iter().zip(chunk) {
                        // INVARIANT: idxs are in-bounds batch positions and
                        // assign() partitions them across workers, so each
                        // slot is written exactly once.
                        slots[i] = Some(reply);
                    }
                    // Observations (present only with a stage clock) are
                    // merged into original batch order too, so drain_obs
                    // output never depends on worker scheduling.
                    for (&i, o) in idxs.iter().zip(obs) {
                        // INVARIANT: same in-bounds partition as replies.
                        obs_slots[i] = Some(o);
                    }
                }
                // INVARIANT: audits are never in flight during execute —
                // both run on the caller's thread, strictly serialized.
                Out::Audit(..) => unreachable!("audit reply during execute"),
            }
        }
        self.obs_buf.extend(obs_slots.into_iter().flatten());
        slots
            .into_iter()
            .map(|s| {
                // INVARIANT: assign() covers every batch index, each
                // dispatched worker replied, so every slot is filled.
                s.expect("every batch slot served")
            })
            .collect()
    }

    fn shutdown(&mut self) {
        for w in &self.workers {
            let _ = w.tx.send(Msg::Stop);
        }
        for w in &mut self.workers {
            if let Some(join) = w.join.take() {
                let _ = join.join();
            }
        }
        self.workers.clear();
        self.inline = None;
    }

    fn install_stage_clock(&mut self, clock: Clock) {
        if let Some(replica) = &mut self.inline {
            replica.stage_clock = Some(clock);
            return;
        }
        for w in &self.workers {
            // A hung-up worker surfaces at the next execute/audit; stage
            // observation is best-effort here.
            let _ = w.tx.send(Msg::StageClock(clock.clone()));
        }
    }

    fn drain_obs(&mut self) -> Vec<RequestObs> {
        std::mem::take(&mut self.obs_buf)
    }
}

impl Drop for ZiGongEngine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Priority;

    fn treq(id: RequestId, template: Option<u64>) -> QueuedRequest {
        QueuedRequest {
            id,
            payload: Payload::Generate {
                prompt: "x".into(),
                max_new: 1,
            },
            priority: Priority::Normal,
            arrived: 0.0,
            deadline: None,
            template,
        }
    }

    fn bare_engine() -> ZiGongEngine {
        ZiGongEngine {
            inline: None,
            workers: Vec::new(),
            affinity: std::collections::BTreeMap::new(),
            obs_buf: Vec::new(),
        }
    }

    #[test]
    fn runs_group_contiguous_equal_keys_only() {
        let batch: Vec<QueuedRequest> = [Some(1), Some(1), None, None, Some(2), Some(1), Some(1)]
            .into_iter()
            .enumerate()
            .map(|(i, t)| treq(i as RequestId, t))
            .collect();
        let runs = ZiGongEngine::runs(&batch);
        let shape: Vec<(Option<u64>, usize, usize)> =
            runs.iter().map(|(k, r)| (*k, r.start, r.end)).collect();
        // Untemplated requests stay singletons; equal keys only merge
        // when adjacent (the queue's grouping made them adjacent).
        assert_eq!(
            shape,
            vec![
                (Some(1), 0, 2),
                (None, 2, 3),
                (None, 3, 4),
                (Some(2), 4, 5),
                (Some(1), 5, 7),
            ]
        );
    }

    #[test]
    fn assignment_partitions_the_batch_in_order() {
        let mut eng = bare_engine();
        let batch: Vec<QueuedRequest> = (0..7)
            .map(|i| treq(i, if i % 2 == 0 { Some(i / 2) } else { None }))
            .collect();
        let assignment = eng.assign(&batch, 3);
        let mut seen: Vec<usize> = assignment.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..7).collect::<Vec<_>>(), "exactly once each");
        for idxs in &assignment {
            assert!(idxs.windows(2).all(|p| p[0] < p[1]), "batch order kept");
        }
    }

    #[test]
    fn assignment_is_template_sticky_across_batches() {
        let mut eng = bare_engine();
        let first: Vec<QueuedRequest> = vec![treq(0, Some(7)), treq(1, Some(8))];
        let a1 = eng.assign(&first, 2);
        let home_of_7 = a1.iter().position(|idxs| idxs.contains(&0)).unwrap();
        // A later batch's template-7 run lands on the same worker even
        // when it arrives in a different position.
        let second: Vec<QueuedRequest> = vec![treq(2, Some(8)), treq(3, Some(7)), treq(4, Some(7))];
        let a2 = eng.assign(&second, 2);
        assert!(a2[home_of_7].contains(&1) && a2[home_of_7].contains(&2));
    }

    #[test]
    fn assignment_balance_cap_overrides_affinity() {
        let mut eng = bare_engine();
        // Warm affinity: both templates on worker 0.
        eng.affinity.insert(1, 0);
        eng.affinity.insert(2, 0);
        let batch: Vec<QueuedRequest> = vec![
            treq(0, Some(1)),
            treq(1, Some(1)),
            treq(2, Some(2)),
            treq(3, Some(2)),
        ];
        let assignment = eng.assign(&batch, 2);
        // Cap = 2: the template-2 run overflows worker 0 and is re-homed.
        assert_eq!(assignment[0], vec![0, 1]);
        assert_eq!(assignment[1], vec![2, 3]);
        assert_eq!(eng.affinity.get(&2), Some(&1));
    }
}
