//! The trace event vocabulary.
//!
//! Every record is an instant or a closed span of *simulated* time. Times
//! are carried as the exact `f64` seconds the emitting component computed
//! with, so analyses can re-derive the engine's floating-point totals
//! bit-for-bit; the integer-microsecond view used by the JSONL/Chrome
//! exporters is derived through [`micros`], the quantization every
//! telemetry counter uses.
//!
//! Ordering: events are appended in emission order, which the simulator
//! guarantees is non-decreasing in time (its event queue releases events
//! monotonically); the recorder's sequence number breaks ties, so a trace
//! is totally ordered by `(time, seq)` with `seq` simply the vector index.

use adapt_telemetry::{micros, Value};

/// Why a running attempt was killed (mirrors the engine's kill paths).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillCause {
    /// The host was interrupted; the partial compute is *rework*.
    Interruption,
    /// Another copy of the task finished first; the burned compute is
    /// *misc* (duplicated straggler execution).
    DuplicateLost,
    /// The block fetch's source host died mid-transfer; accounted like a
    /// lost duplicate. The map engine no longer kills for this cause;
    /// traces written by earlier builds still parse.
    SourceLost,
}

impl KillCause {
    /// Stable string form used in serialized traces.
    pub fn as_str(&self) -> &'static str {
        match self {
            KillCause::Interruption => "interruption",
            KillCause::DuplicateLost => "duplicate_lost",
            KillCause::SourceLost => "source_lost",
        }
    }

    /// Parses the serialized form.
    pub fn from_str_opt(s: &str) -> Option<KillCause> {
        match s {
            "interruption" => Some(KillCause::Interruption),
            "duplicate_lost" => Some(KillCause::DuplicateLost),
            "source_lost" => Some(KillCause::SourceLost),
            _ => None,
        }
    }
}

/// One structured trace record.
///
/// Node, task, and block identifiers are raw integers (the `adapt-dfs`
/// newtypes wrap the same values) so this crate stays dependency-free and
/// every workspace layer can emit into it.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A replica of `block` was committed on `node` during file creation
    /// (NameNode placement; logically at `t = 0`, before the run).
    BlockPlaced {
        /// Block id.
        block: u64,
        /// Node receiving the replica.
        node: u32,
    },
    /// The rebalancer moved a replica of `block` from `from` to `to`.
    BlockRebalanced {
        /// Block id.
        block: u64,
        /// Previous holder.
        from: u32,
        /// New holder.
        to: u32,
    },
    /// A task attempt was handed to a node. `compute_start` is when its
    /// compute begins: `t` for local attempts, the block-transfer end for
    /// remote ones.
    AttemptStarted {
        /// Executing node.
        node: u32,
        /// Task (= block index) id.
        task: u32,
        /// Per-node monotone attempt sequence number.
        attempt: u64,
        /// Whether the node holds the task's block.
        local: bool,
        /// Transfer source for remote attempts.
        source: Option<u32>,
        /// Assignment time (seconds).
        t: f64,
        /// Compute start time (seconds).
        compute_start: f64,
    },
    /// An idle node decided to duplicate a running straggler (emitted
    /// immediately before the duplicate's [`TraceEvent::AttemptStarted`]).
    SpeculativeLaunched {
        /// The rescuing node.
        node: u32,
        /// The straggling task.
        task: u32,
        /// Decision time (seconds).
        t: f64,
    },
    /// A block transfer began on the source's uplink. `end` is the
    /// per-flow-shaped completion time committed at start.
    TransferStarted {
        /// Serving replica holder.
        source: u32,
        /// Fetching node.
        dest: u32,
        /// Task whose block is moving.
        task: u32,
        /// The fetching attempt's sequence number on `dest`.
        attempt: u64,
        /// Block size in bytes.
        bytes: u64,
        /// Transfer start (seconds).
        start: f64,
        /// Planned transfer end (seconds).
        end: f64,
    },
    /// A block transfer completed (emitted when its attempt resolves
    /// after the transfer window closed).
    TransferDone {
        /// Serving replica holder.
        source: u32,
        /// Fetching node.
        dest: u32,
        /// Task whose block moved.
        task: u32,
        /// The fetching attempt's sequence number on `dest`.
        attempt: u64,
        /// Transfer start (seconds).
        start: f64,
        /// Transfer end (seconds).
        end: f64,
    },
    /// A block transfer was cut short because its attempt was killed
    /// mid-flight (`end` is the kill time, before the planned end).
    TransferAborted {
        /// Serving replica holder.
        source: u32,
        /// Fetching node.
        dest: u32,
        /// Task whose block was moving.
        task: u32,
        /// The fetching attempt's sequence number on `dest`.
        attempt: u64,
        /// Transfer start (seconds).
        start: f64,
        /// Abort time (seconds).
        end: f64,
    },
    /// An attempt completed its task (the winning execution).
    AttemptWon {
        /// Executing node.
        node: u32,
        /// Completed task.
        task: u32,
        /// Per-node attempt sequence number.
        attempt: u64,
        /// Whether the execution was data-local.
        local: bool,
        /// Assignment time (seconds).
        start: f64,
        /// Compute start time (seconds).
        compute_start: f64,
        /// Completion time (seconds).
        end: f64,
    },
    /// An attempt was killed before completing.
    AttemptKilled {
        /// Executing node.
        node: u32,
        /// The attempt's task.
        task: u32,
        /// Per-node attempt sequence number.
        attempt: u64,
        /// Whether the attempt was data-local.
        local: bool,
        /// Assignment time (seconds).
        start: f64,
        /// Compute start time (seconds; may exceed `end` when the kill
        /// landed mid-transfer).
        compute_start: f64,
        /// Kill time (seconds).
        end: f64,
        /// Why the attempt died.
        reason: KillCause,
    },
    /// An attempt still running when the horizon cut an incomplete run
    /// (its reserved time counts as busy, like the engine's accounting).
    AttemptCut {
        /// Executing node.
        node: u32,
        /// The attempt's task.
        task: u32,
        /// Per-node attempt sequence number.
        attempt: u64,
        /// Whether the attempt was data-local.
        local: bool,
        /// Assignment time (seconds).
        start: f64,
        /// Compute start time (seconds).
        compute_start: f64,
        /// The horizon cut (seconds).
        end: f64,
    },
    /// A node became unavailable (outage start).
    NodeDown {
        /// The interrupted node.
        node: u32,
        /// Outage start (seconds).
        t: f64,
    },
    /// A node recovered; `since` is the matching outage start.
    NodeUp {
        /// The recovered node.
        node: u32,
        /// Outage start (seconds).
        since: f64,
        /// Recovery time (seconds).
        t: f64,
    },
    /// The JobTracker returned a task to the pending pool (after losing
    /// every attempt, possibly delayed by failure detection).
    TaskRequeued {
        /// The re-pended task.
        task: u32,
        /// Requeue time (seconds).
        t: f64,
    },
    /// A closed interval a node spent down *while holding pending local
    /// work* — the paper's recovery cost (emitted when the engine closes
    /// the interval).
    RecoverySpan {
        /// The down node.
        node: u32,
        /// Interval start (seconds).
        start: f64,
        /// Interval end (seconds).
        end: f64,
    },
    /// A job entered the multi-job tracker's pending queue (tracker-level
    /// stream time, not per-job engine time).
    JobSubmitted {
        /// Job id within the stream.
        job: u32,
        /// Submission time (seconds).
        t: f64,
    },
    /// A pending job was admitted: it received a node allocation and its
    /// map phase started.
    JobStarted {
        /// Job id within the stream.
        job: u32,
        /// Nodes allocated to the job.
        nodes: u32,
        /// Map tasks the job carries.
        tasks: u32,
        /// Admission time (seconds).
        t: f64,
    },
    /// A running job released its allocation; `completed` is false when
    /// the per-job engine horizon cut the map phase short.
    JobCompleted {
        /// Job id within the stream.
        job: u32,
        /// Whether every map task finished.
        completed: bool,
        /// Admission time (seconds) — the span start.
        start: f64,
        /// Release time (seconds).
        t: f64,
    },
    /// A reduce-task attempt began on a node (re-emitted with a fresh
    /// attempt number after an interruption restarts the task).
    ReduceStarted {
        /// Reduce-task slot.
        reducer: u32,
        /// Hosting node.
        node: u32,
        /// Per-reducer monotone attempt sequence number.
        attempt: u64,
        /// Attempt start time (seconds).
        t: f64,
    },
    /// One shuffle fetch: a reducer pulling its slice of one map output
    /// over the network. `aborted` fetches end at the kill time (source
    /// or reducer host died mid-flight) and are retried later.
    ShuffleFetch {
        /// Fetching reduce-task slot.
        reducer: u32,
        /// Map-output holder serving the slice.
        source: u32,
        /// The reducer's host.
        dest: u32,
        /// Map task whose output slice is moving.
        task: u32,
        /// Slice size in bytes.
        bytes: u64,
        /// Fetch start (seconds).
        start: f64,
        /// Fetch end — planned completion, or the abort time.
        end: f64,
        /// Whether the fetch was cut short and must be retried.
        aborted: bool,
    },
    /// A cross-rack transfer committed while other cross-rack flows were
    /// active on the same rack uplink: the fair share it received is
    /// `1/streams` of the (oversubscribed) uplink.
    LinkContention {
        /// The congested source rack.
        rack: u32,
        /// Cross-rack flows sharing the uplink, including the new one.
        streams: u32,
        /// Commit time of the contended transfer (seconds).
        t: f64,
    },
}

impl TraceEvent {
    /// Stable kind tag used in serialized traces.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::BlockPlaced { .. } => "block_placed",
            TraceEvent::BlockRebalanced { .. } => "block_rebalanced",
            TraceEvent::AttemptStarted { .. } => "attempt_started",
            TraceEvent::SpeculativeLaunched { .. } => "speculative_launched",
            TraceEvent::TransferStarted { .. } => "transfer_started",
            TraceEvent::TransferDone { .. } => "transfer_done",
            TraceEvent::TransferAborted { .. } => "transfer_aborted",
            TraceEvent::AttemptWon { .. } => "attempt_won",
            TraceEvent::AttemptKilled { .. } => "attempt_killed",
            TraceEvent::AttemptCut { .. } => "attempt_cut",
            TraceEvent::NodeDown { .. } => "node_down",
            TraceEvent::NodeUp { .. } => "node_up",
            TraceEvent::TaskRequeued { .. } => "task_requeued",
            TraceEvent::RecoverySpan { .. } => "recovery_span",
            TraceEvent::JobSubmitted { .. } => "job_submitted",
            TraceEvent::JobStarted { .. } => "job_started",
            TraceEvent::JobCompleted { .. } => "job_completed",
            TraceEvent::ReduceStarted { .. } => "reduce_started",
            TraceEvent::ShuffleFetch { .. } => "shuffle_fetch",
            TraceEvent::LinkContention { .. } => "link_contention",
        }
    }

    /// The record's primary timestamp — its emission time in simulated
    /// seconds (span records are emitted when the span closes).
    pub fn time(&self) -> f64 {
        match *self {
            TraceEvent::BlockPlaced { .. } | TraceEvent::BlockRebalanced { .. } => 0.0,
            TraceEvent::AttemptStarted { t, .. } => t,
            TraceEvent::SpeculativeLaunched { t, .. } => t,
            TraceEvent::TransferStarted { start, .. } => start,
            TraceEvent::TransferDone { end, .. } => end,
            TraceEvent::TransferAborted { end, .. } => end,
            TraceEvent::AttemptWon { end, .. } => end,
            TraceEvent::AttemptKilled { end, .. } => end,
            TraceEvent::AttemptCut { end, .. } => end,
            TraceEvent::NodeDown { t, .. } => t,
            TraceEvent::NodeUp { t, .. } => t,
            TraceEvent::TaskRequeued { t, .. } => t,
            TraceEvent::RecoverySpan { end, .. } => end,
            TraceEvent::JobSubmitted { t, .. } => t,
            TraceEvent::JobStarted { t, .. } => t,
            TraceEvent::JobCompleted { t, .. } => t,
            TraceEvent::ReduceStarted { t, .. } => t,
            TraceEvent::ShuffleFetch { end, .. } => end,
            TraceEvent::LinkContention { t, .. } => t,
        }
    }

    /// The record's span start in integer microseconds (instant records
    /// report their timestamp).
    pub fn start_us(&self) -> u64 {
        match *self {
            TraceEvent::AttemptStarted { t, .. } => micros(t),
            TraceEvent::TransferStarted { start, .. }
            | TraceEvent::TransferDone { start, .. }
            | TraceEvent::TransferAborted { start, .. }
            | TraceEvent::AttemptWon { start, .. }
            | TraceEvent::AttemptKilled { start, .. }
            | TraceEvent::AttemptCut { start, .. }
            | TraceEvent::RecoverySpan { start, .. }
            | TraceEvent::JobCompleted { start, .. }
            | TraceEvent::ShuffleFetch { start, .. } => micros(start),
            TraceEvent::NodeUp { since, .. } => micros(since),
            // Instant records: the span start is the timestamp itself.
            TraceEvent::BlockPlaced { .. }
            | TraceEvent::BlockRebalanced { .. }
            | TraceEvent::SpeculativeLaunched { .. }
            | TraceEvent::NodeDown { .. }
            | TraceEvent::TaskRequeued { .. }
            | TraceEvent::JobSubmitted { .. }
            | TraceEvent::JobStarted { .. }
            | TraceEvent::ReduceStarted { .. }
            | TraceEvent::LinkContention { .. } => micros(self.time()),
        }
    }

    /// The record's span end in integer microseconds (instant records
    /// report their timestamp).
    pub fn end_us(&self) -> u64 {
        micros(self.time())
    }

    /// Serializes the event as a flat JSON object with a `kind` tag.
    pub fn to_value(&self) -> Value {
        let mut v = Value::object();
        v.insert("kind", self.kind());
        match *self {
            TraceEvent::BlockPlaced { block, node } => {
                v.insert("block", block);
                v.insert("node", node);
            }
            TraceEvent::BlockRebalanced { block, from, to } => {
                v.insert("block", block);
                v.insert("from", from);
                v.insert("to", to);
            }
            TraceEvent::AttemptStarted {
                node,
                task,
                attempt,
                local,
                source,
                t,
                compute_start,
            } => {
                v.insert("attempt", attempt);
                v.insert("compute_start", compute_start);
                v.insert("local", local);
                v.insert("node", node);
                if let Some(s) = source {
                    v.insert("source", s);
                }
                v.insert("t", t);
                v.insert("task", task);
            }
            TraceEvent::SpeculativeLaunched { node, task, t } => {
                v.insert("node", node);
                v.insert("t", t);
                v.insert("task", task);
            }
            TraceEvent::TransferStarted {
                source,
                dest,
                task,
                attempt,
                bytes,
                start,
                end,
            } => {
                v.insert("attempt", attempt);
                v.insert("bytes", bytes);
                v.insert("dest", dest);
                v.insert("end", end);
                v.insert("source", source);
                v.insert("start", start);
                v.insert("task", task);
            }
            TraceEvent::TransferDone {
                source,
                dest,
                task,
                attempt,
                start,
                end,
            }
            | TraceEvent::TransferAborted {
                source,
                dest,
                task,
                attempt,
                start,
                end,
            } => {
                v.insert("attempt", attempt);
                v.insert("dest", dest);
                v.insert("end", end);
                v.insert("source", source);
                v.insert("start", start);
                v.insert("task", task);
            }
            TraceEvent::AttemptWon {
                node,
                task,
                attempt,
                local,
                start,
                compute_start,
                end,
            }
            | TraceEvent::AttemptCut {
                node,
                task,
                attempt,
                local,
                start,
                compute_start,
                end,
            } => {
                v.insert("attempt", attempt);
                v.insert("compute_start", compute_start);
                v.insert("end", end);
                v.insert("local", local);
                v.insert("node", node);
                v.insert("start", start);
                v.insert("task", task);
            }
            TraceEvent::AttemptKilled {
                node,
                task,
                attempt,
                local,
                start,
                compute_start,
                end,
                reason,
            } => {
                v.insert("attempt", attempt);
                v.insert("compute_start", compute_start);
                v.insert("end", end);
                v.insert("local", local);
                v.insert("node", node);
                v.insert("reason", reason.as_str());
                v.insert("start", start);
                v.insert("task", task);
            }
            TraceEvent::NodeDown { node, t } => {
                v.insert("node", node);
                v.insert("t", t);
            }
            TraceEvent::NodeUp { node, since, t } => {
                v.insert("node", node);
                v.insert("since", since);
                v.insert("t", t);
            }
            TraceEvent::TaskRequeued { task, t } => {
                v.insert("t", t);
                v.insert("task", task);
            }
            TraceEvent::RecoverySpan { node, start, end } => {
                v.insert("end", end);
                v.insert("node", node);
                v.insert("start", start);
            }
            TraceEvent::JobSubmitted { job, t } => {
                v.insert("job", job);
                v.insert("t", t);
            }
            TraceEvent::JobStarted {
                job,
                nodes,
                tasks,
                t,
            } => {
                v.insert("job", job);
                v.insert("nodes", nodes);
                v.insert("t", t);
                v.insert("tasks", tasks);
            }
            TraceEvent::JobCompleted {
                job,
                completed,
                start,
                t,
            } => {
                v.insert("completed", completed);
                v.insert("job", job);
                v.insert("start", start);
                v.insert("t", t);
            }
            TraceEvent::ReduceStarted {
                reducer,
                node,
                attempt,
                t,
            } => {
                v.insert("attempt", attempt);
                v.insert("node", node);
                v.insert("reducer", reducer);
                v.insert("t", t);
            }
            TraceEvent::ShuffleFetch {
                reducer,
                source,
                dest,
                task,
                bytes,
                start,
                end,
                aborted,
            } => {
                v.insert("aborted", aborted);
                v.insert("bytes", bytes);
                v.insert("dest", dest);
                v.insert("end", end);
                v.insert("reducer", reducer);
                v.insert("source", source);
                v.insert("start", start);
                v.insert("task", task);
            }
            TraceEvent::LinkContention { rack, streams, t } => {
                v.insert("rack", rack);
                v.insert("streams", streams);
                v.insert("t", t);
            }
        }
        v
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact reruns and representable values")]
mod tests {
    use super::*;

    #[test]
    fn micros_matches_seconds_accum_quantization() {
        // Trace timestamps quantize exactly as the telemetry counters do.
        for (t, us) in [
            (0.1, 100_000),
            (0.0, 0),
            (-3.0, 0),
            (f64::NAN, 0),
            (f64::INFINITY, 0),
            (1.000_000_4, 1_000_000),
            (1.000_000_6, 1_000_001),
        ] {
            let event = TraceEvent::NodeDown { node: 0, t };
            assert_eq!((event.start_us(), event.end_us()), (us, us), "{t}");
            assert_eq!(micros(t), us, "{t}");
        }
    }

    #[test]
    fn kill_cause_round_trips() {
        for cause in [
            KillCause::Interruption,
            KillCause::DuplicateLost,
            KillCause::SourceLost,
        ] {
            assert_eq!(KillCause::from_str_opt(cause.as_str()), Some(cause));
        }
        assert_eq!(KillCause::from_str_opt("bogus"), None);
    }

    #[test]
    fn serialization_is_flat_and_tagged() {
        let e = TraceEvent::AttemptWon {
            node: 3,
            task: 17,
            attempt: 2,
            local: false,
            start: 1.0,
            compute_start: 9.0,
            end: 21.0,
        };
        let json = e.to_value().to_json();
        assert!(json.contains("\"kind\":\"attempt_won\""), "{json}");
        assert!(json.contains("\"node\":3"), "{json}");
        assert_eq!(e.time(), 21.0);
        assert_eq!(e.start_us(), 1_000_000);
        assert_eq!(e.end_us(), 21_000_000);
    }

    #[test]
    fn instant_events_report_their_timestamp() {
        let e = TraceEvent::NodeDown { node: 1, t: 5.5 };
        assert_eq!(e.start_us(), 5_500_000);
        assert_eq!(e.end_us(), 5_500_000);
        let up = TraceEvent::NodeUp {
            node: 1,
            since: 5.5,
            t: 7.0,
        };
        assert_eq!(up.start_us(), 5_500_000);
        assert_eq!(up.end_us(), 7_000_000);
    }
}
