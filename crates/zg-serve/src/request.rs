//! Request/response vocabulary of the scoring server: payloads,
//! priorities, typed rejections, and completion records.

/// Server-assigned request identifier (monotonic per server).
pub type RequestId = u64;

/// Scheduling priority. Lower discriminant is served first; ordering is
/// FIFO *within* a priority class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    /// Interactive lending decisions (a loan officer is waiting).
    High = 0,
    /// Default priority for online scoring traffic.
    Normal = 1,
    /// Bulk/backfill traffic (portfolio re-scores).
    Low = 2,
}

/// Number of priority classes (size of the queue's lane array).
pub const PRIORITY_LANES: usize = 3;

impl Priority {
    /// Lane index of this priority.
    pub fn lane(self) -> usize {
        self as usize
    }

    /// Lower-case label (timeline JSONL, exposition labels).
    pub fn name(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }
}

/// What the request asks the model to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// Answer + positive-class probability for one credit instruction
    /// (the Table-2 evaluation item, served online): computed by
    /// `ZiGongModel::decide`, the routine `ZiGongModel::evaluate_item`
    /// runs.
    Score {
        /// Rendered instruction prompt.
        prompt: String,
        /// Negative-class candidate answer.
        negative: String,
        /// Positive-class candidate answer.
        positive: String,
    },
    /// Free-form greedy generation from a prompt.
    Generate {
        /// Prompt text.
        prompt: String,
        /// Maximum new tokens to decode.
        max_new: usize,
    },
}

impl Payload {
    /// The prompt text (for admission validation).
    pub fn prompt(&self) -> &str {
        match self {
            Payload::Score { prompt, .. } | Payload::Generate { prompt, .. } => prompt,
        }
    }
}

/// A request as submitted by a client.
#[derive(Debug, Clone)]
pub struct Request {
    /// The work to do.
    pub payload: Payload,
    /// Scheduling class.
    pub priority: Priority,
    /// Seconds the request may wait in the queue before it is timed
    /// out; `None` uses the server's default (which may itself be
    /// "never").
    pub timeout: Option<f64>,
    /// Client-declared template key: requests rendered from the same
    /// prompt template share one key, letting the scheduler group them
    /// into the same engine chunk (prefix-aware batching) and the
    /// engine route them to the replica whose radix pool already holds
    /// the template's KV prefix. `None` opts out — the request is never
    /// reordered relative to its priority lane.
    pub template: Option<u64>,
}

impl Request {
    /// A `Normal`-priority scoring request with the default timeout.
    pub fn score(
        prompt: impl Into<String>,
        negative: impl Into<String>,
        positive: impl Into<String>,
    ) -> Request {
        Request {
            payload: Payload::Score {
                prompt: prompt.into(),
                negative: negative.into(),
                positive: positive.into(),
            },
            priority: Priority::Normal,
            timeout: None,
            template: None,
        }
    }

    /// A `Normal`-priority generation request with the default timeout.
    pub fn generate(prompt: impl Into<String>, max_new: usize) -> Request {
        Request {
            payload: Payload::Generate {
                prompt: prompt.into(),
                max_new,
            },
            priority: Priority::Normal,
            timeout: None,
            template: None,
        }
    }

    /// Same request at a different priority.
    pub fn with_priority(mut self, priority: Priority) -> Request {
        self.priority = priority;
        self
    }

    /// Same request with an explicit queue timeout in seconds.
    pub fn with_timeout(mut self, seconds: f64) -> Request {
        self.timeout = Some(seconds);
        self
    }

    /// Same request tagged with a prompt-template key for prefix-aware
    /// batching and replica affinity.
    pub fn with_template(mut self, template: u64) -> Request {
        self.template = Some(template);
        self
    }
}

/// Typed admission failure: the request never entered the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejection {
    /// The bounded queue is full — backpressure; retry later.
    QueueFull {
        /// The queue's capacity at rejection time.
        capacity: usize,
    },
    /// The prompt was empty (nothing to prefill).
    EmptyPrompt,
    /// A `Generate` request asked for zero new tokens.
    EmptyGeneration,
}

impl std::fmt::Display for Rejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejection::QueueFull { capacity } => {
                write!(f, "queue full (capacity {capacity})")
            }
            Rejection::EmptyPrompt => write!(f, "empty prompt"),
            Rejection::EmptyGeneration => write!(f, "generate with max_new = 0"),
        }
    }
}

/// Successful model output.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Output of a [`Payload::Score`] request.
    Scored {
        /// Greedy answer text (parseable by the shared Miss-aware parser).
        answer: String,
        /// Positive-class probability in `[0, 1]`.
        p_positive: f64,
    },
    /// Output of a [`Payload::Generate`] request.
    Generated {
        /// Decoded text.
        text: String,
    },
}

/// Typed in-queue failure: the request was admitted but never served.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServeFailure {
    /// The request sat in the queue past its deadline.
    TimedOut {
        /// Seconds it waited before expiring.
        waited: f64,
    },
}

/// Terminal record of one admitted request.
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// Server-assigned id (returned by `submit`).
    pub id: RequestId,
    /// Scheduling class it ran under.
    pub priority: Priority,
    /// Clock time at admission.
    pub arrived: f64,
    /// Clock time at resolution (batch finish or expiry).
    pub finished: f64,
    /// The reply, or the typed failure.
    pub result: Result<Reply, ServeFailure>,
}

impl Completion {
    /// Queue + service latency in seconds.
    pub fn latency(&self) -> f64 {
        self.finished - self.arrived
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_orders_high_first() {
        assert!(Priority::High < Priority::Normal);
        assert!(Priority::Normal < Priority::Low);
        assert_eq!(Priority::High.lane(), 0);
        assert_eq!(Priority::Low.lane(), PRIORITY_LANES - 1);
    }

    #[test]
    fn builders_fill_fields() {
        let r = Request::score("p", "bad", "good")
            .with_priority(Priority::High)
            .with_timeout(2.5)
            .with_template(7);
        assert_eq!(r.priority, Priority::High);
        assert_eq!(r.timeout, Some(2.5));
        assert_eq!(r.template, Some(7));
        assert_eq!(r.payload.prompt(), "p");
        let g = Request::generate("q", 4);
        assert_eq!(g.payload.prompt(), "q");
        assert_eq!(g.priority, Priority::Normal);
        assert_eq!(g.template, None);
    }

    #[test]
    fn rejection_messages_are_informative() {
        assert!(Rejection::QueueFull { capacity: 8 }
            .to_string()
            .contains('8'));
        assert!(Rejection::EmptyPrompt.to_string().contains("empty"));
    }

    #[test]
    fn completion_latency_is_finish_minus_arrival() {
        let c = Completion {
            id: 1,
            priority: Priority::Normal,
            arrived: 2.0,
            finished: 5.5,
            result: Err(ServeFailure::TimedOut { waited: 3.5 }),
        };
        assert_eq!(c.latency(), 3.5);
    }
}
