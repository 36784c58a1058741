//! The bounded admission queue: priority lanes with FIFO order inside
//! each lane, capacity-based backpressure, and deadline expiry.

use std::collections::VecDeque;

use crate::request::{Payload, Priority, Rejection, RequestId, PRIORITY_LANES};

/// A request resident in the queue (admitted, not yet dispatched).
#[derive(Debug, Clone)]
pub struct QueuedRequest {
    /// Server-assigned id.
    pub id: RequestId,
    /// The work to do.
    pub payload: Payload,
    /// Scheduling class.
    pub priority: Priority,
    /// Clock time at admission.
    pub arrived: f64,
    /// Absolute clock time after which the request is expired, if any.
    pub deadline: Option<f64>,
    /// Client-declared template key (prefix-aware batching groups
    /// same-key requests; `None` never groups).
    pub template: Option<u64>,
}

/// Bounded priority-FIFO queue.
///
/// Invariants (pinned by the simulation property tests):
/// * total occupancy never exceeds `capacity` — `push` returns a typed
///   [`Rejection::QueueFull`] instead of growing;
/// * within one priority lane, requests leave in arrival order;
/// * across lanes, a batch always drains strictly higher priorities
///   before lower ones;
/// * expiry removes exactly the requests whose deadline has passed,
///   preserving relative order of the survivors.
pub struct BoundedQueue {
    lanes: [VecDeque<QueuedRequest>; PRIORITY_LANES],
    capacity: usize,
    len: usize,
}

impl BoundedQueue {
    /// An empty queue admitting at most `capacity` requests.
    pub fn new(capacity: usize) -> BoundedQueue {
        assert!(capacity > 0, "queue capacity must be positive");
        BoundedQueue {
            lanes: std::array::from_fn(|_| VecDeque::new()),
            capacity,
            len: 0,
        }
    }

    /// Admit a request, or reject it with backpressure.
    pub fn push(&mut self, req: QueuedRequest) -> Result<(), Rejection> {
        if self.len >= self.capacity {
            return Err(Rejection::QueueFull {
                capacity: self.capacity,
            });
        }
        // INVARIANT: lane() maps each priority to 0..PRIORITY_LANES.
        self.lanes[req.priority.lane()].push_back(req);
        self.len += 1;
        Ok(())
    }

    /// Remove and return every queued request whose deadline is at or
    /// before `now`, in priority-FIFO order.
    pub fn expire(&mut self, now: f64) -> Vec<QueuedRequest> {
        let mut out = Vec::new();
        for lane in &mut self.lanes {
            let mut keep = VecDeque::with_capacity(lane.len());
            for req in lane.drain(..) {
                match req.deadline {
                    Some(d) if d <= now => out.push(req),
                    _ => keep.push_back(req),
                }
            }
            *lane = keep;
        }
        self.len -= out.len();
        out
    }

    /// Dequeue up to `max` requests with **prefix-aware composition**:
    /// lanes still drain strictly `High` before `Normal` before `Low`,
    /// and each lane still takes its oldest request first — but after
    /// taking a lane head carrying a template key, up to `window`
    /// queued requests behind it are scanned and those sharing the key
    /// are pulled forward into the same contiguous run. Grouping
    /// same-template requests into one run is what lets the engine
    /// serve them on one replica whose radix pool already holds the
    /// template's KV prefix.
    ///
    /// Fairness bounds (pinned by the scheduler property tests):
    /// * the oldest waiting request of the highest non-empty lane is in
    ///   *every* batch, so the queue always advances and nothing
    ///   starves;
    /// * requests sharing one `(priority, template)` pair leave in
    ///   exact admission order (pulls scan front-to-back);
    /// * untemplated requests (`template == None`) are never reordered
    ///   relative to their lane;
    /// * `window == 0` is plain priority-FIFO.
    pub fn pop_batch_grouped(&mut self, max: usize, window: usize) -> Vec<QueuedRequest> {
        let mut out = Vec::with_capacity(max.min(self.len));
        for lane in &mut self.lanes {
            while out.len() < max {
                let head = match lane.pop_front() {
                    Some(req) => req,
                    None => break,
                };
                let key = head.template;
                out.push(head);
                let key = match key {
                    Some(k) if window > 0 => k,
                    _ => continue,
                };
                // Bounded lookahead: scan at most `window` requests deep,
                // pulling same-template ones forward in admission order.
                let mut scanned = 0usize;
                let mut i = 0usize;
                while scanned < window && out.len() < max {
                    let matches = match lane.get(i) {
                        Some(req) => req.template == Some(key),
                        None => break,
                    };
                    scanned += 1;
                    if matches {
                        match lane.remove(i) {
                            Some(req) => out.push(req),
                            None => break,
                        }
                    } else {
                        i += 1;
                    }
                }
            }
        }
        self.len -= out.len();
        out
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Occupancy of each priority lane, `High` first.
    pub fn lane_depths(&self) -> [usize; PRIORITY_LANES] {
        std::array::from_fn(|i| self.lanes[i].len())
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: RequestId, priority: Priority, deadline: Option<f64>) -> QueuedRequest {
        QueuedRequest {
            id,
            payload: Payload::Generate {
                prompt: "x".into(),
                max_new: 1,
            },
            priority,
            arrived: 0.0,
            deadline,
            template: None,
        }
    }

    fn treq(id: RequestId, priority: Priority, template: Option<u64>) -> QueuedRequest {
        QueuedRequest {
            template,
            ..req(id, priority, None)
        }
    }

    #[test]
    fn capacity_is_enforced_with_typed_rejection() {
        let mut q = BoundedQueue::new(2);
        assert!(q.push(req(1, Priority::Normal, None)).is_ok());
        assert!(q.push(req(2, Priority::High, None)).is_ok());
        assert_eq!(
            q.push(req(3, Priority::High, None)),
            Err(Rejection::QueueFull { capacity: 2 })
        );
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn batch_order_is_priority_then_fifo() {
        let mut q = BoundedQueue::new(8);
        for (id, p) in [
            (1, Priority::Low),
            (2, Priority::Normal),
            (3, Priority::High),
            (4, Priority::Normal),
            (5, Priority::High),
        ] {
            q.push(req(id, p, None)).unwrap();
        }
        let ids: Vec<RequestId> = q.pop_batch_grouped(4, 0).iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![3, 5, 2, 4]);
        let ids: Vec<RequestId> = q.pop_batch_grouped(4, 0).iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![1]);
        assert!(q.is_empty());
    }

    #[test]
    fn expiry_removes_exactly_the_overdue() {
        let mut q = BoundedQueue::new(8);
        q.push(req(1, Priority::Normal, Some(1.0))).unwrap();
        q.push(req(2, Priority::Normal, Some(5.0))).unwrap();
        q.push(req(3, Priority::High, None)).unwrap();
        let expired: Vec<RequestId> = q.expire(2.0).iter().map(|r| r.id).collect();
        assert_eq!(expired, vec![1]);
        assert_eq!(q.len(), 2);
        // Survivors keep their order.
        let ids: Vec<RequestId> = q.pop_batch_grouped(8, 0).iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![3, 2]);
    }

    #[test]
    fn grouped_pop_pulls_same_template_forward() {
        let mut q = BoundedQueue::new(8);
        for (id, t) in [
            (1, Some(9)),
            (2, Some(7)),
            (3, Some(9)),
            (4, None),
            (5, Some(9)),
        ] {
            q.push(treq(id, Priority::Normal, t)).unwrap();
        }
        // Head 1 (template 9) pulls 3 and 5 forward; 2 and 4 keep their
        // relative order behind the group.
        let ids: Vec<RequestId> = q.pop_batch_grouped(8, 8).iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![1, 3, 5, 2, 4]);
    }

    #[test]
    fn grouped_pop_window_bounds_the_lookahead() {
        let mut q = BoundedQueue::new(8);
        for (id, t) in [(1, Some(9)), (2, None), (3, None), (4, Some(9))] {
            q.push(treq(id, Priority::Normal, t)).unwrap();
        }
        // Window 2 scans only requests 2 and 3: request 4 is out of
        // reach and stays in admission order.
        let ids: Vec<RequestId> = q.pop_batch_grouped(8, 2).iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![1, 2, 3, 4]);
    }

    #[test]
    fn grouped_pop_window_zero_is_plain_fifo() {
        let mut q = BoundedQueue::new(8);
        for (id, t) in [(1, Some(3)), (2, Some(4)), (3, Some(3)), (4, Some(4))] {
            q.push(treq(id, Priority::Normal, t)).unwrap();
        }
        let ids: Vec<RequestId> = q.pop_batch_grouped(8, 0).iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![1, 2, 3, 4]);
    }

    #[test]
    fn grouped_pop_never_crosses_priority_lanes() {
        let mut q = BoundedQueue::new(8);
        q.push(treq(1, Priority::Normal, Some(5))).unwrap();
        q.push(treq(2, Priority::High, Some(5))).unwrap();
        q.push(treq(3, Priority::Normal, Some(5))).unwrap();
        q.push(treq(4, Priority::High, Some(6))).unwrap();
        // High drains first even though 1 and 3 share key 5 with 2.
        let ids: Vec<RequestId> = q.pop_batch_grouped(8, 8).iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![2, 4, 1, 3]);
    }

    #[test]
    fn grouped_pop_respects_max_batch() {
        let mut q = BoundedQueue::new(8);
        for id in 1..=5 {
            q.push(treq(id, Priority::Normal, Some(1))).unwrap();
        }
        let ids: Vec<RequestId> = q.pop_batch_grouped(3, 8).iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![1, 2, 3]);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn expiry_frees_capacity() {
        let mut q = BoundedQueue::new(1);
        q.push(req(1, Priority::Normal, Some(1.0))).unwrap();
        assert!(q.push(req(2, Priority::Normal, None)).is_err());
        assert_eq!(q.expire(1.0).len(), 1);
        assert!(q.push(req(2, Priority::Normal, None)).is_ok());
    }
}
