//! The line-delimited JSON wire protocol of `noc-cli serve`.
//!
//! The container is offline, so there is no HTTP stack to lean on; like the
//! vendored `serde_json` renderer, the protocol is hand-rolled on `std`:
//! one JSON object per `\n`-terminated line in each direction over a plain
//! TCP stream. Requests carry a `cmd` discriminator, replies an `event`
//! discriminator. Responses to a `submit` are *streamed*: an `accepted`
//! line, then one `result` line per scenario as it completes (cache hits
//! resolve immediately), then a terminal `done` / `canceled` / `failed`
//! line carrying the job's outcome.
//!
//! Two deliberate shape choices:
//!
//! * **Job ids are connection-scoped** (each connection's first job is 1).
//!   Two clients submitting the same grid therefore receive *byte-identical*
//!   response streams — the property the `serve-smoke` CI job pins — and no
//!   client can guess another's job ids.
//! * **Result lines never mention cache state.** Whether a scenario was
//!   computed or served warm is observable through the side-channel `stats`
//!   command, not in the data path, so response bytes stay a pure function
//!   of the submitted grid.
//!
//! Both directions are declared once, as [`Request`] and [`Event`], and
//! the derive writes and reads them: serde's internally tagged form
//! (`#[serde(tag = "cmd")]`, `tag = "event"`) makes each variant one
//! object, its tag entry first and then its fields in declaration order,
//! with nested payloads through the same canonical writer, so identical
//! jobs produce identical bytes. The reader finds the tag by name wherever
//! it stands. A line that is not JSON, not an object, names no known
//! variant or holds a field of the wrong type is an `Err`, which the daemon
//! answers with a structured [`Event::Error`] instead of a panic or a
//! dropped connection.

use crate::serve::cache::CacheStats;
use crate::sweep::{ScenarioResult, SweepGrid, SweepReport};
use serde::{Deserialize, Serialize};

noc_sim::vocabulary! {
    /// Machine-readable error codes carried by [`Event::Error`], by their
    /// canonical wire names.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum ErrorCode as "error code" {
        /// The request line was not valid JSON or not a known command shape.
        BadRequest = "bad_request",
        /// The submitted grid failed validation.
        InvalidGrid = "invalid_grid",
        /// Admission control: the daemon's global scenario queue is full.
        QueueFull = "queue_full",
        /// Admission control: this client's outstanding-scenario quota is full.
        ClientQuota = "client_quota",
        /// The referenced job id is unknown on this connection.
        UnknownJob = "unknown_job",
        /// The daemon is shutting down and accepts no new work.
        ShuttingDown = "shutting_down",
        /// A scenario failed to simulate (configuration error past validation).
        SimFailed = "sim_failed",
    }
}

/// `Event::Error`'s `code` on the wire: its name in [`ErrorCode`]'s table.
mod code_name {
    use super::ErrorCode;
    use serde::{de::Error, Deserialize, Deserializer, Serializer};

    pub fn serialize<S: Serializer>(code: &ErrorCode, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_str(code.name())
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<ErrorCode, D::Error> {
        ErrorCode::parse(&String::deserialize(d)?).map_err(D::Error::custom)
    }
}

/// The client a submit that names none runs as.
fn anon() -> String {
    "anon".to_string()
}

/// One client request line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "cmd", rename_all = "snake_case")]
pub enum Request {
    /// Submit a sweep grid; results stream back on this connection.
    Submit {
        /// Client identity for fair-share scheduling and quotas (defaults
        /// to `anon` when omitted on the wire).
        #[serde(default = "anon")]
        client: String,
        /// The grid to run (boxed: a `SweepGrid` dwarfs the other variants).
        grid: Box<SweepGrid>,
    },
    /// Query a job's progress (connection-scoped id).
    Status {
        /// The job to query.
        job: u64,
    },
    /// Cancel a job (connection-scoped id): undispatched scenarios are
    /// dropped and the reservation is freed.
    Cancel {
        /// The job to cancel.
        job: u64,
    },
    /// Query daemon-wide cache and scheduler counters.
    Stats,
    /// Liveness probe.
    Ping,
    /// Stop accepting work, drain, and exit cleanly.
    Shutdown,
}

impl Request {
    /// Parse one request line.
    ///
    /// # Errors
    /// Returns a human-readable description of what was malformed (the
    /// daemon wraps it in an [`Event::Error`] with
    /// [`ErrorCode::BadRequest`]).
    pub fn parse(line: &str) -> Result<Request, String> {
        serde_json::from_str(line).map_err(|e| e.0)
    }

    /// Render this request as one wire line (no trailing newline).
    pub fn render(&self) -> String {
        serde_json::to_string(self).expect("requests serialize")
    }
}

/// Scheduler-side counters carried by [`Event::Stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct SchedulerStats {
    /// Scenarios submitted and not yet finished (queued + running).
    pub outstanding_scenarios: u64,
    /// Jobs currently queued or running.
    pub active_jobs: u64,
    /// Jobs that reached a terminal state (done, canceled, or failed).
    pub finished_jobs: u64,
    /// Simulations actually executed (the single-flight proof: with N
    /// unique scenarios this stays N no matter how many clients submit).
    pub sim_runs: u64,
}

/// One daemon reply line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "event", rename_all = "snake_case")]
pub enum Event {
    /// A submit was admitted; results for `scenarios` scenarios follow.
    Accepted {
        /// Connection-scoped job id.
        job: u64,
        /// Number of scenarios the grid expands to.
        scenarios: u64,
    },
    /// One finished scenario of a streaming job.
    Result {
        /// Connection-scoped job id.
        job: u64,
        /// The scenario's grid index.
        index: u64,
        /// The measured outcome (boxed: it dwarfs the other variants).
        result: Box<ScenarioResult>,
    },
    /// Terminal: every scenario finished; the assembled report.
    Done {
        /// Connection-scoped job id.
        job: u64,
        /// The full sweep report (byte-identical to a local run).
        report: Box<SweepReport>,
    },
    /// Terminal: the job was canceled (by request or by disconnect).
    Canceled {
        /// Connection-scoped job id.
        job: u64,
        /// Scenarios that had already completed when the cancel landed.
        completed: u64,
    },
    /// Terminal: a scenario failed to simulate.
    Failed {
        /// Connection-scoped job id.
        job: u64,
        /// The simulator error, rendered.
        message: String,
    },
    /// Reply to `status`.
    Status {
        /// Connection-scoped job id.
        job: u64,
        /// `queued`, `running`, or `canceling`.
        state: String,
        /// Scenarios finished so far.
        completed: u64,
        /// Total scenarios in the job.
        total: u64,
    },
    /// Reply to `stats`.
    Stats {
        /// Cache counters.
        cache: CacheStats,
        /// Scheduler counters.
        scheduler: SchedulerStats,
    },
    /// Reply to `ping`.
    Pong,
    /// Reply to `shutdown` (sent before the daemon exits).
    ShuttingDown,
    /// A structured error (the connection stays usable).
    Error {
        /// Machine-readable code.
        #[serde(with = "code_name")]
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl Event {
    /// Render this event as one wire line (no trailing newline).
    pub fn render(&self) -> String {
        serde_json::to_string(self).expect("events serialize")
    }

    /// Parse one reply line (the client side of [`Event::render`]).
    ///
    /// # Errors
    /// Returns a description of what was malformed.
    pub fn parse(line: &str) -> Result<Event, String> {
        serde_json::from_str(line).map_err(|e| e.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_through_the_wire_format() {
        // `partitions` is #[serde(skip)] and deserializes to its zero
        // placeholder; use that value so equality holds across the wire.
        let grid = SweepGrid {
            partitions: 0,
            ..SweepGrid::default()
        };
        let requests = [
            Request::Submit {
                client: "ci-\"quoted\"-client".into(),
                grid: Box::new(grid),
            },
            Request::Status { job: 7 },
            Request::Cancel { job: 1 },
            Request::Stats,
            Request::Ping,
            Request::Shutdown,
        ];
        for req in requests {
            let line = req.render();
            assert_eq!(Request::parse(&line).unwrap(), req, "line: {line}");
        }
    }

    #[test]
    fn malformed_requests_are_diagnosed_not_panicked() {
        for bad in [
            "",
            "not json",
            "42",
            "{}",
            "{\"cmd\":\"frobnicate\"}",
            "{\"cmd\":\"submit\"}",
            "{\"cmd\":\"submit\",\"grid\":3}",
            "{\"cmd\":\"status\"}",
            "{\"cmd\":\"cancel\",\"job\":\"one\"}",
        ] {
            assert!(Request::parse(bad).is_err(), "`{bad}` must not parse");
        }
        // A `client` of the wrong type is an error, not a silent `anon`; a
        // missing one still defaults to `anon`.
        let grid = serde_json::to_string(&SweepGrid::default()).unwrap();
        let numbered = format!("{{\"cmd\":\"submit\",\"client\":42,\"grid\":{grid}}}");
        assert!(Request::parse(&numbered).is_err(), "{numbered}");
        let unnamed = format!("{{\"cmd\":\"submit\",\"grid\":{grid}}}");
        assert!(matches!(
            Request::parse(&unnamed),
            Ok(Request::Submit { client, .. }) if client == "anon"
        ));
    }

    #[test]
    fn events_round_trip_through_the_wire_format() {
        let grid = SweepGrid {
            sizes: vec![(2, 2)],
            patterns: vec![noc_sim::TrafficPattern::Uniform],
            rates: vec![0.05],
            warmup: 10,
            measure: 40,
            drain: 40,
            ..SweepGrid::default()
        };
        let mut report = grid.run(1).expect("tiny grid runs");
        // Zero the #[serde(skip)] fields (`threads`, grid `partitions`) so
        // the parsed copy compares equal.
        report.threads = 0;
        report.grid.partitions = 0;
        let events = [
            Event::Accepted {
                job: 1,
                scenarios: 4,
            },
            Event::Result {
                job: 1,
                index: 0,
                result: Box::new(report.scenarios[0].clone()),
            },
            Event::Done {
                job: 1,
                report: Box::new(report.clone()),
            },
            Event::Canceled {
                job: 2,
                completed: 3,
            },
            Event::Failed {
                job: 3,
                message: "invalid configuration: \"quoted\"".into(),
            },
            Event::Status {
                job: 1,
                state: "running".into(),
                completed: 2,
                total: 4,
            },
            Event::Stats {
                cache: CacheStats {
                    memory_hits: 5,
                    disk_hits: 1,
                    coalesced: 2,
                    computed: 3,
                    write_errors: 0,
                    read_errors: 0,
                },
                scheduler: SchedulerStats {
                    outstanding_scenarios: 4,
                    active_jobs: 1,
                    finished_jobs: 9,
                    sim_runs: 3,
                },
            },
            Event::Pong,
            Event::ShuttingDown,
            Event::Error {
                code: ErrorCode::QueueFull,
                message: "queue full".into(),
            },
        ];
        for event in events {
            let line = event.render();
            assert_eq!(Event::parse(&line).unwrap(), event, "line: {line}");
        }
    }

    #[test]
    fn error_codes_round_trip() {
        for (name, code) in ErrorCode::NAMED {
            assert_eq!(code.name(), name);
            assert_eq!(ErrorCode::parse(name), Ok(code));
        }
        assert!(ErrorCode::parse("teapot").is_err());
    }
}
