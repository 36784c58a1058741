//! The server: admission control in front of the bounded queue, and a
//! clock-driven scheduling loop that coalesces queued requests into
//! engine batches (continuous batching).
//!
//! Time is injected as a [`zg_trace::Clock`]; with a
//! [`zg_trace::ManualClock`] the whole server is a deterministic
//! simulation, with [`zg_trace::wall_clock`] it serves real traffic.
//! All scheduling decisions (admission, expiry, batch composition) are
//! pure functions of queue state and the injected clock — the engine
//! never influences what gets batched next, only when `tick` returns.

use zg_trace::Clock;

use crate::engine::Engine;
use crate::ops::{OpsConfig, OpsPlane};
use crate::queue::{BoundedQueue, QueuedRequest};
use crate::request::{Completion, Payload, Rejection, Request, RequestId, ServeFailure};

/// Server tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Bounded-queue capacity; submissions beyond it are rejected with
    /// [`Rejection::QueueFull`] (backpressure).
    pub queue_capacity: usize,
    /// Maximum requests coalesced into one engine batch.
    pub max_batch: usize,
    /// Default queue timeout in seconds for requests that set none
    /// (`None` = wait forever).
    pub default_timeout: Option<f64>,
    /// Prefix-aware batch composition: after taking a lane head with a
    /// template key, scan up to this many queued requests behind it and
    /// pull same-template ones into the same contiguous run (see
    /// [`crate::queue::BoundedQueue::pop_batch_grouped`] for the
    /// fairness bounds). `0` disables reordering (plain priority-FIFO).
    pub reorder_window: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            queue_capacity: 64,
            max_batch: 8,
            default_timeout: None,
            reorder_window: 0,
        }
    }
}

/// Monotonic serving counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests admitted into the queue.
    pub admitted: u64,
    /// Requests rejected at admission (all [`Rejection`] variants).
    pub rejected: u64,
    /// Requests served to completion.
    pub completed: u64,
    /// Requests expired in the queue.
    pub timed_out: u64,
    /// Engine batches dispatched.
    pub batches: u64,
}

/// A continuous-batching scoring server over an [`Engine`].
pub struct Server<E: Engine> {
    engine: E,
    queue: BoundedQueue,
    clock: Clock,
    config: ServeConfig,
    next_id: RequestId,
    stats: ServerStats,
    ops: Option<OpsPlane>,
}

impl<E: Engine> Server<E> {
    /// A server reading time from `clock`.
    pub fn new(engine: E, config: ServeConfig, clock: Clock) -> Server<E> {
        Server {
            engine,
            queue: BoundedQueue::new(config.queue_capacity),
            clock,
            config,
            next_id: 0,
            stats: ServerStats::default(),
            ops: None,
        }
    }

    /// Turn on the live ops plane: per-request timelines, windowed SLO
    /// metrics, burn-rate alerts, and the flight recorder. Installs the
    /// server's clock as the engine's stage clock. Observation is
    /// passive — served scores are bitwise identical with it on or off.
    pub fn enable_ops(&mut self, cfg: OpsConfig) {
        self.engine.install_stage_clock(self.clock.clone());
        self.ops = Some(OpsPlane::new(cfg));
    }

    /// Mutable ops plane, if enabled (e.g. to `finish` a run or drain
    /// post-mortems).
    pub fn ops_mut(&mut self) -> Option<&mut OpsPlane> {
        self.ops.as_mut()
    }

    /// The injected clock's current reading.
    pub fn now(&self) -> f64 {
        (self.clock)()
    }

    /// Validate and enqueue a request. Returns the assigned id, or the
    /// typed rejection (the request never entered the queue).
    pub fn submit(&mut self, req: Request) -> Result<RequestId, Rejection> {
        let rejection = match &req.payload {
            _ if req.payload.prompt().is_empty() => Some(Rejection::EmptyPrompt),
            Payload::Generate { max_new: 0, .. } => Some(Rejection::EmptyGeneration),
            _ => None,
        };
        if let Some(r) = rejection {
            self.stats.rejected += 1;
            zg_trace::counter_add("serve.rejected", 1.0);
            if let Some(ops) = &mut self.ops {
                let now = (self.clock)();
                ops.on_rejected(now);
            }
            return Err(r);
        }
        let now = self.now();
        let (priority, template) = (req.priority, req.template);
        let queued = QueuedRequest {
            id: self.next_id,
            payload: req.payload,
            priority,
            arrived: now,
            deadline: req.timeout.or(self.config.default_timeout).map(|t| now + t),
            template,
        };
        match self.queue.push(queued) {
            Ok(()) => {
                let id = self.next_id;
                self.next_id += 1;
                self.stats.admitted += 1;
                zg_trace::counter_add("serve.admitted", 1.0);
                if let Some(ops) = &mut self.ops {
                    ops.on_admitted(id, priority, template, now);
                }
                Ok(id)
            }
            Err(r) => {
                self.stats.rejected += 1;
                zg_trace::counter_add("serve.rejected", 1.0);
                if let Some(ops) = &mut self.ops {
                    ops.on_rejected(now);
                }
                Err(r)
            }
        }
    }

    /// One scheduler step: expire overdue requests, coalesce up to
    /// `max_batch` queued requests into one engine batch, and return the
    /// resulting completions (timeouts first, then served requests in
    /// batch order). An empty queue yields an empty tick.
    pub fn tick(&mut self) -> Vec<Completion> {
        let _span = zg_trace::span("serve.tick");
        let now = self.now();
        // Backlog gauges every tick, so trace reports show queue state,
        // not just completion stats (ambient no-ops when tracing is off).
        let lanes = self.queue.lane_depths();
        zg_trace::gauge_set("serve.queue_depth", self.queue.len() as f64);
        // INVARIANT: lane_depths() is [usize; PRIORITY_LANES] with PRIORITY_LANES == 3.
        zg_trace::gauge_set("serve.lane_high", lanes[0] as f64);
        // INVARIANT: lane_depths() is [usize; PRIORITY_LANES] with PRIORITY_LANES == 3.
        zg_trace::gauge_set("serve.lane_normal", lanes[1] as f64);
        // INVARIANT: lane_depths() is [usize; PRIORITY_LANES] with PRIORITY_LANES == 3.
        zg_trace::gauge_set("serve.lane_low", lanes[2] as f64);
        if let Some(ops) = &mut self.ops {
            ops.advance(now);
            ops.observe_queue(now, self.queue.len(), lanes);
        }
        let mut completions = Vec::new();
        for expired in self.queue.expire(now) {
            self.stats.timed_out += 1;
            zg_trace::counter_add("serve.timeouts", 1.0);
            if let Some(ops) = &mut self.ops {
                ops.on_expired(expired.id, now);
            }
            completions.push(Completion {
                id: expired.id,
                priority: expired.priority,
                arrived: expired.arrived,
                finished: now,
                result: Err(ServeFailure::TimedOut {
                    waited: now - expired.arrived,
                }),
            });
        }
        let batch = self
            .queue
            .pop_batch_grouped(self.config.max_batch, self.config.reorder_window);
        if batch.is_empty() {
            return completions;
        }
        self.stats.batches += 1;
        zg_trace::hist_record("serve.batch_size", batch.len() as f64);
        if let Some(ops) = &mut self.ops {
            for req in &batch {
                ops.on_dispatched(req.id, now);
            }
            ops.on_batch(now, batch.len());
        }
        let replies = self.engine.execute(&batch);
        assert_eq!(
            replies.len(),
            batch.len(),
            "engine must reply to every request in the batch"
        );
        // Served completions are stamped after execute: under a wall
        // clock that includes real service time, under a manual clock it
        // includes whatever the harness (or a timed engine wrapper)
        // advanced during execution.
        let finished = self.now();
        if self.ops.is_some() {
            let obs = self.engine.drain_obs();
            if let Some(ops) = &mut self.ops {
                for o in obs {
                    ops.on_engine_obs(o, finished);
                }
            }
        }
        for (req, (id, reply)) in batch.into_iter().zip(replies) {
            assert_eq!(req.id, id, "engine replies must follow batch order");
            self.stats.completed += 1;
            zg_trace::counter_add("serve.completed", 1.0);
            if let Some(ops) = &mut self.ops {
                ops.on_served(id, finished);
            }
            completions.push(Completion {
                id,
                priority: req.priority,
                arrived: req.arrived,
                finished,
                result: Ok(reply),
            });
        }
        completions
    }

    /// Tick until the queue drains, concatenating completions.
    pub fn run_until_idle(&mut self) -> Vec<Completion> {
        let mut out = Vec::new();
        while !self.queue.is_empty() {
            out.extend(self.tick());
        }
        out
    }

    /// Current queue occupancy.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Monotonic serving counters.
    pub fn stats(&self) -> ServerStats {
        self.stats
    }

    /// Borrow the engine (e.g. for audits between batches).
    pub fn engine_mut(&mut self) -> &mut E {
        &mut self.engine
    }

    /// Stop the engine's workers and return the final stats.
    pub fn shutdown(mut self) -> ServerStats {
        self.engine.shutdown();
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Reply;
    use zg_trace::ManualClock;

    /// Echoes each request's id; used to test scheduling in isolation.
    struct Echo;
    impl Engine for Echo {
        fn execute(&mut self, batch: &[QueuedRequest]) -> Vec<(RequestId, Reply)> {
            batch
                .iter()
                .map(|r| {
                    (
                        r.id,
                        Reply::Generated {
                            text: format!("#{}", r.id),
                        },
                    )
                })
                .collect()
        }
    }

    fn server(cfg: ServeConfig) -> (Server<Echo>, ManualClock) {
        let clock = ManualClock::new();
        (Server::new(Echo, cfg, clock.clock()), clock)
    }

    #[test]
    fn admission_validates_payloads() {
        let (mut s, _clock) = server(ServeConfig::default());
        assert_eq!(
            s.submit(Request::generate("", 3)),
            Err(Rejection::EmptyPrompt)
        );
        assert_eq!(
            s.submit(Request::generate("hi", 0)),
            Err(Rejection::EmptyGeneration)
        );
        assert_eq!(s.submit(Request::generate("hi", 1)), Ok(0));
        assert_eq!(s.stats().rejected, 2);
        assert_eq!(s.stats().admitted, 1);
    }

    #[test]
    fn ids_are_monotonic_and_only_burned_on_admission() {
        let (mut s, _clock) = server(ServeConfig {
            queue_capacity: 1,
            ..ServeConfig::default()
        });
        assert_eq!(s.submit(Request::generate("a", 1)), Ok(0));
        assert!(s.submit(Request::generate("b", 1)).is_err());
        s.tick();
        assert_eq!(s.submit(Request::generate("c", 1)), Ok(1));
    }

    #[test]
    fn tick_serves_in_priority_then_fifo_order() {
        use crate::request::Priority;
        let (mut s, _clock) = server(ServeConfig::default());
        let a = s.submit(Request::generate("a", 1)).unwrap();
        let b = s
            .submit(Request::generate("b", 1).with_priority(Priority::High))
            .unwrap();
        let c = s.submit(Request::generate("c", 1)).unwrap();
        let done = s.tick();
        let order: Vec<RequestId> = done.iter().map(|c| c.id).collect();
        assert_eq!(order, vec![b, a, c]);
    }

    #[test]
    fn timeouts_resolve_before_service_with_waited_duration() {
        let (mut s, clock) = server(ServeConfig {
            default_timeout: Some(1.0),
            ..ServeConfig::default()
        });
        let a = s.submit(Request::generate("a", 1)).unwrap();
        clock.advance(2.0);
        let b = s
            .submit(Request::generate("b", 1).with_timeout(5.0))
            .unwrap();
        clock.advance(0.5);
        let done = s.tick();
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].id, a);
        assert_eq!(done[0].result, Err(ServeFailure::TimedOut { waited: 2.5 }));
        assert_eq!(done[1].id, b);
        assert!(done[1].result.is_ok());
        assert_eq!(s.stats().timed_out, 1);
        assert_eq!(s.stats().completed, 1);
    }

    #[test]
    fn batches_are_capped_and_drain_continuously() {
        let (mut s, _clock) = server(ServeConfig {
            max_batch: 2,
            ..ServeConfig::default()
        });
        for i in 0..5 {
            s.submit(Request::generate(format!("p{i}"), 1)).unwrap();
        }
        assert_eq!(s.tick().len(), 2);
        assert_eq!(s.queue_len(), 3);
        let rest = s.run_until_idle();
        assert_eq!(rest.len(), 3);
        assert_eq!(s.stats().batches, 3);
        assert_eq!(s.stats().completed, 5);
    }

    #[test]
    fn latency_reflects_queue_wait_under_manual_clock() {
        let (mut s, clock) = server(ServeConfig::default());
        s.submit(Request::generate("a", 1)).unwrap();
        clock.advance(3.0);
        let done = s.tick();
        assert_eq!(done[0].latency(), 3.0);
    }
}
