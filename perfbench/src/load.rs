//! Load generation against a [`Server`]: a closed loop that keeps a fixed
//! number of requests outstanding.
//!
//! The loop reads time only through the server's injected clock, so the
//! tests below drive it with a [`zg_trace::ManualClock`].

use std::collections::BTreeMap;
use std::time::Instant;

use zg_serve::{Engine, QueuedRequest, Reply, Request, RequestId, ServeFailure, Server};

/// Wraps an engine and times each `execute` call from outside.
pub struct Metered<E> {
    pub inner: E,
    /// Wall seconds of every `execute`, in dispatch order.
    pub execute_s: Vec<f64>,
}

impl<E> Metered<E> {
    pub fn new(inner: E) -> Metered<E> {
        Metered {
            inner,
            execute_s: Vec::new(),
        }
    }
}

impl<E: Engine> Engine for Metered<E> {
    fn execute(&mut self, batch: &[QueuedRequest]) -> Vec<(RequestId, Reply)> {
        let t = Instant::now();
        let out = self.inner.execute(batch);
        self.execute_s.push(t.elapsed().as_secs_f64());
        out
    }

    fn shutdown(&mut self) {
        self.inner.shutdown();
    }
}

/// One resolved request, with its times on the server's clock.
#[derive(Debug)]
pub struct Served {
    /// Position in the workload's request list.
    pub index: usize,
    pub submitted: f64,
    /// Start of the tick that dispatched it.
    pub dispatched: f64,
    pub finished: f64,
    /// Ordinal of the dispatching tick within the phase.
    pub tick: usize,
    pub result: Result<Reply, ServeFailure>,
}

impl Served {
    pub fn latency(&self) -> f64 {
        self.finished - self.submitted
    }

    pub fn queue_wait(&self) -> f64 {
        self.dispatched - self.submitted
    }
}

/// Everything one load phase observed.
#[derive(Debug, Default)]
pub struct Phase {
    pub served: Vec<Served>,
    /// Indices of requests refused at admission.
    pub rejected: Vec<usize>,
    /// Submitted requests the server never resolved.
    pub lost: usize,
    /// Clock seconds from the first submission to the last reply.
    pub wall_s: f64,
    /// Duration of each tick that dispatched a batch.
    pub tick_s: Vec<f64>,
    /// Duration of each `Server::submit` call.
    pub admit_s: Vec<f64>,
    /// Requests outstanding at the start of each tick.
    pub outstanding: Vec<usize>,
}

impl Phase {
    /// Append a phase that served the requests from `offset` on, so that
    /// indices and tick ordinals stay unique.
    pub fn append(&mut self, other: Phase, offset: usize) {
        let ticks = self.tick_s.len();
        self.served.extend(other.served.into_iter().map(|mut s| {
            s.index += offset;
            s.tick += ticks;
            s
        }));
        self.rejected
            .extend(other.rejected.into_iter().map(|i| i + offset));
        self.lost += other.lost;
        self.wall_s += other.wall_s;
        self.tick_s.extend(other.tick_s);
        self.admit_s.extend(other.admit_s);
        self.outstanding.extend(other.outstanding);
    }
}

/// Bookkeeping of the closed loop: submitted-but-unresolved requests
/// keyed by server id, plus the phase being recorded.
struct LoadState {
    open: BTreeMap<RequestId, (usize, f64)>,
    phase: Phase,
}

impl LoadState {
    fn new() -> LoadState {
        LoadState {
            open: BTreeMap::new(),
            phase: Phase::default(),
        }
    }

    fn submit<E: Engine>(&mut self, server: &mut Server<E>, index: usize, req: Request) {
        let t = server.now();
        let admitted = server.submit(req);
        self.phase.admit_s.push(server.now() - t);
        match admitted {
            Ok(id) => {
                self.open.insert(id, (index, t));
            }
            Err(_) => self.phase.rejected.push(index),
        }
    }

    /// One scheduler tick; returns `false` when the server made no
    /// progress although requests are still open.
    fn tick<E: Engine>(&mut self, server: &mut Server<E>) -> bool {
        let tick = self.phase.outstanding.len();
        self.phase.outstanding.push(self.open.len());
        let start = server.now();
        let done = server.tick();
        self.phase.tick_s.push(server.now() - start);
        if done.is_empty() {
            return false;
        }
        for c in done {
            let (index, submitted) = self
                .open
                .remove(&c.id)
                .expect("the server resolves only requests it admitted");
            self.phase.served.push(Served {
                index,
                submitted,
                dispatched: start,
                finished: c.finished,
                tick,
                result: c.result,
            });
        }
        true
    }

    fn finish(mut self, start: f64, end: f64) -> Phase {
        self.phase.lost = self.open.len();
        self.phase.wall_s = end - start;
        self.phase.served.sort_by_key(|s| s.index);
        self.phase
    }
}

/// Closed loop: keep `concurrency` requests outstanding, submitting the
/// next request as soon as one resolves, until `requests` are all served.
/// Each request's latency runs from its submission to its reply.
pub fn closed_loop<E: Engine>(
    server: &mut Server<E>,
    requests: Vec<Request>,
    concurrency: usize,
) -> Phase {
    assert!(concurrency > 0, "a closed loop needs at least one client");
    let mut pending = requests.into_iter().enumerate();
    let mut state = LoadState::new();
    let start = server.now();
    loop {
        while state.open.len() < concurrency {
            let Some((index, req)) = pending.next() else {
                break;
            };
            state.submit(server, index, req);
        }
        if state.open.is_empty() || !state.tick(server) {
            break;
        }
    }
    let end = server.now();
    state.finish(start, end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use zg_serve::{EchoEngine, ServeConfig, TimedEngine};
    use zg_trace::ManualClock;

    fn config(max_batch: usize) -> ServeConfig {
        ServeConfig {
            queue_capacity: 1024,
            max_batch,
            default_timeout: None,
            reorder_window: 0,
        }
    }

    fn requests(n: usize) -> Vec<Request> {
        (0..n)
            .map(|i| Request::generate(format!("p{i}"), 1))
            .collect()
    }

    #[test]
    fn closed_loop_keeps_exactly_c_outstanding() {
        let clock = ManualClock::new();
        let engine = TimedEngine::new(EchoEngine::new(), clock.clone(), 0.01);
        let mut server = Server::new(engine, config(3), clock.clock());
        let (n, c) = (40, 7);
        let phase = closed_loop(&mut server, requests(n), c);
        assert_eq!(phase.served.len(), n);
        assert!(phase.rejected.is_empty() && phase.lost == 0);
        // Every tick starts with C requests open until fewer than C
        // remain unsubmitted; then the loop drains.
        let mut remaining = n;
        for (tick, &open) in phase.outstanding.iter().enumerate() {
            assert_eq!(open, c.min(remaining), "tick {tick}");
            remaining -= phase.served.iter().filter(|s| s.tick == tick).count();
        }
        assert_eq!(remaining, 0);
    }

    #[test]
    fn appended_segments_keep_indices_and_ticks_unique() {
        let clock = ManualClock::new();
        let engine = TimedEngine::new(EchoEngine::new(), clock.clone(), 0.01);
        let mut server = Server::new(engine, config(2), clock.clock());
        let mut phase = Phase::default();
        for start in [0, 5] {
            let p = closed_loop(&mut server, requests(5), 3);
            phase.append(p, start);
        }
        let mut indices: Vec<usize> = phase.served.iter().map(|s| s.index).collect();
        indices.sort_unstable();
        assert_eq!(indices, (0..10).collect::<Vec<_>>());
        assert_eq!(phase.tick_s.len(), phase.outstanding.len());
        let last_tick = phase.served.iter().map(|s| s.tick).max();
        assert_eq!(last_tick, Some(phase.tick_s.len() - 1));
    }
}
