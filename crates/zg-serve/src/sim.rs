//! Deterministic simulation harness: seeded Poisson traffic, a manual
//! simulated clock, and an event loop driving a [`Server`] through
//! arrivals and scheduler ticks in a reproducible order.
//!
//! Everything here is a pure function of its seeds and configuration:
//! two runs with identical inputs submit the same requests at the same
//! simulated instants, form the same batches, and (with a tracer
//! installed on the same clock) emit byte-identical traces. The
//! simulation property suite and the `serve_load` bench's determinism
//! gate are both built on this module.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use zg_trace::ManualClock;

use crate::engine::Engine;
use crate::queue::QueuedRequest;
use crate::request::{Completion, Payload, Rejection, Reply, Request, RequestId};
use crate::server::{Server, ServerStats};

/// Arrival times (seconds, ascending) of an open-loop Poisson process:
/// inter-arrival gaps are `Exp(rate)` drawn by inverse CDF from a seeded
/// generator, so the same `(seed, rate, n)` always yields the same
/// schedule.
pub fn poisson_arrivals(seed: u64, rate: f64, n: usize) -> Vec<f64> {
    assert!(rate > 0.0, "arrival rate must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            let u: f64 = rng.gen();
            // 1 - u is in (0, 1], so the log is finite.
            t += -(1.0 - u).ln() / rate;
            t
        })
        .collect()
}

/// Seeded Poisson traffic: `(arrival_time, request)` pairs, the request
/// for index `i` produced by `make`.
pub fn poisson_traffic(
    seed: u64,
    rate: f64,
    n: usize,
    make: impl Fn(usize) -> Request,
) -> Vec<(f64, Request)> {
    poisson_arrivals(seed, rate, n)
        .into_iter()
        .enumerate()
        .map(|(i, t)| (t, make(i)))
        .collect()
}

/// Outcome of one simulated run.
#[derive(Debug)]
pub struct SimOutcome {
    /// Every resolved request (served or timed out), in resolution order.
    pub completions: Vec<Completion>,
    /// Admission rejections as `(traffic index, rejection)`.
    pub rejections: Vec<(usize, Rejection)>,
    /// Final server counters.
    pub stats: ServerStats,
}

impl SimOutcome {
    /// Ids that resolved successfully, in resolution (= dispatch) order.
    pub fn served_ids(&self) -> Vec<RequestId> {
        self.completions
            .iter()
            .filter(|c| c.result.is_ok())
            .map(|c| c.id)
            .collect()
    }

    /// Ids that timed out in the queue.
    pub fn timed_out_ids(&self) -> Vec<RequestId> {
        self.completions
            .iter()
            .filter(|c| c.result.is_err())
            .map(|c| c.id)
            .collect()
    }
}

/// Drive `server` through `traffic` (ascending arrival times) on
/// `clock`, ticking the scheduler every `batch_window` simulated
/// seconds, until all traffic is submitted and the queue drains.
///
/// The event order is deterministic: at each step the next arrival is
/// submitted iff it is due at or before the next tick boundary;
/// otherwise the clock jumps to the boundary and the server ticks.
/// Arrivals exactly on a boundary are submitted first (they make that
/// tick's batch).
pub fn drive<E: Engine>(
    server: &mut Server<E>,
    clock: &ManualClock,
    traffic: &[(f64, Request)],
    batch_window: f64,
) -> SimOutcome {
    assert!(batch_window > 0.0, "batch window must be positive");
    let mut completions = Vec::new();
    let mut rejections = Vec::new();
    let mut i = 0;
    let mut next_tick = clock.now() + batch_window;
    while i < traffic.len() || server.queue_len() > 0 {
        let due = traffic.get(i).map(|(t, _)| *t);
        match due {
            Some(t) if t <= next_tick => {
                if t > clock.now() {
                    clock.set(t);
                }
                if let Err(r) = server.submit(traffic[i].1.clone()) {
                    rejections.push((i, r));
                }
                i += 1;
            }
            _ => {
                if next_tick > clock.now() {
                    clock.set(next_tick);
                }
                completions.extend(server.tick());
                next_tick += batch_window;
            }
        }
    }
    SimOutcome {
        completions,
        rejections,
        stats: server.stats(),
    }
}

/// Wraps an engine so each executed batch advances a [`ManualClock`] by
/// `per_request` simulated seconds per request — modelling service time
/// so queueing delay compounds realistically under load. The clock is
/// advanced *after* the inner engine runs, so inner trace events are
/// stamped at dispatch time and the server's completion stamp lands at
/// dispatch + service.
pub struct TimedEngine<E> {
    inner: E,
    clock: ManualClock,
    per_request: f64,
}

impl<E: Engine> TimedEngine<E> {
    /// Wrap `inner`, advancing `clock` by `per_request` seconds per
    /// served request.
    pub fn new(inner: E, clock: ManualClock, per_request: f64) -> TimedEngine<E> {
        assert!(per_request >= 0.0, "service time cannot be negative");
        TimedEngine {
            inner,
            clock,
            per_request,
        }
    }

    /// Mutably borrow the wrapped engine.
    pub fn inner_mut(&mut self) -> &mut E {
        &mut self.inner
    }
}

impl<E: Engine> Engine for TimedEngine<E> {
    fn execute(&mut self, batch: &[QueuedRequest]) -> Vec<(RequestId, Reply)> {
        let out = self.inner.execute(batch);
        self.clock.advance(self.per_request * batch.len() as f64);
        out
    }

    fn shutdown(&mut self) {
        self.inner.shutdown();
    }

    fn install_stage_clock(&mut self, clock: zg_trace::Clock) {
        self.inner.install_stage_clock(clock);
    }

    fn drain_obs(&mut self) -> Vec<crate::ops::RequestObs> {
        self.inner.drain_obs()
    }
}

/// A model-free engine for scheduler tests: echoes deterministic replies
/// and records the exact dispatch order of request ids.
#[derive(Debug, Default)]
pub struct EchoEngine {
    /// Request ids in the order the scheduler dispatched them.
    pub served: Vec<RequestId>,
}

impl EchoEngine {
    /// An engine that has served nothing.
    pub fn new() -> EchoEngine {
        EchoEngine::default()
    }
}

impl Engine for EchoEngine {
    fn execute(&mut self, batch: &[QueuedRequest]) -> Vec<(RequestId, Reply)> {
        batch
            .iter()
            .map(|r| {
                self.served.push(r.id);
                let reply = match &r.payload {
                    Payload::Score { .. } => Reply::Scored {
                        answer: "ok".into(),
                        p_positive: 0.5,
                    },
                    Payload::Generate { prompt, .. } => Reply::Generated {
                        text: prompt.clone(),
                    },
                };
                (r.id, reply)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServeConfig;

    #[test]
    fn poisson_arrivals_are_seeded_ascending_and_finite() {
        let a = poisson_arrivals(7, 4.0, 200);
        let b = poisson_arrivals(7, 4.0, 200);
        assert_eq!(a, b, "same seed, same schedule");
        assert!(a.windows(2).all(|w| w[0] < w[1]), "strictly ascending");
        assert!(a.iter().all(|t| t.is_finite() && *t > 0.0));
        let c = poisson_arrivals(8, 4.0, 200);
        assert_ne!(a, c, "different seed, different schedule");
        // Mean inter-arrival ≈ 1/rate (loose sanity band).
        let mean = a.last().unwrap_or(&0.0) / 200.0;
        assert!((0.15..0.4).contains(&mean), "mean gap {mean}");
    }

    #[test]
    fn drive_resolves_every_admitted_request() {
        let clock = ManualClock::new();
        let mut server = Server::new(EchoEngine::new(), ServeConfig::default(), clock.clock());
        let traffic = poisson_traffic(3, 50.0, 40, |i| Request::generate(format!("p{i}"), 1));
        let out = drive(&mut server, &clock, &traffic, 0.05);
        assert_eq!(out.completions.len() + out.rejections.len(), 40);
        assert!(out.rejections.is_empty(), "default capacity fits 40");
        assert_eq!(out.stats.completed, 40);
    }

    #[test]
    fn timed_engine_turns_service_time_into_latency() {
        let clock = ManualClock::new();
        let engine = TimedEngine::new(EchoEngine::new(), clock.clone(), 0.1);
        let mut server = Server::new(engine, ServeConfig::default(), clock.clock());
        server.submit(Request::generate("a", 1)).unwrap();
        server.submit(Request::generate("b", 1)).unwrap();
        let done = server.tick();
        // Both served in one 2-request batch: 0.2 simulated seconds.
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].latency(), 0.2);
        assert_eq!(done[1].latency(), 0.2);
    }

    #[test]
    fn drive_is_bit_reproducible() {
        let run = || {
            let clock = ManualClock::new();
            let engine = TimedEngine::new(EchoEngine::new(), clock.clone(), 0.02);
            let mut server = Server::new(engine, ServeConfig::default(), clock.clock());
            let traffic = poisson_traffic(11, 30.0, 60, |i| Request::generate(format!("p{i}"), 1));
            let out = drive(&mut server, &clock, &traffic, 0.04);
            let order = server.engine_mut().inner_mut().served.clone();
            (
                out.served_ids(),
                order,
                out.completions
                    .iter()
                    .map(|c| (c.id, c.arrived.to_bits(), c.finished.to_bits()))
                    .collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(), run(), "identical seeds, identical simulation");
    }
}
