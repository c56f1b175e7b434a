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
//! Parsing is hand-written over the [`serde_json::Value`] tree (not derived)
//! so malformed requests produce precise, structured [`Event::Error`]
//! replies instead of panics or connection drops.

use crate::serve::cache::CacheStats;
use crate::sweep::{ScenarioResult, SweepGrid, SweepReport};
use serde::{Deserialize, Serialize};
use serde_json::Value;

noc_sim::vocabulary! {
    /// Machine-readable error codes carried by [`Event::Error`], by their
    /// canonical wire names.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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

/// One client request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a sweep grid; results stream back on this connection.
    Submit {
        /// Client identity for fair-share scheduling and quotas (defaults
        /// to `anon` when omitted on the wire).
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
        let value = serde_json::parse(line).map_err(|e| format!("not valid JSON: {e}"))?;
        value
            .as_map()
            .ok_or_else(|| "request must be a JSON object".to_string())?;
        let cmd = value
            .get("cmd")
            .and_then(Value::as_str)
            .ok_or_else(|| "missing string field `cmd`".to_string())?;
        let job_id = |what: &str| {
            value
                .get("job")
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("`{what}` needs an unsigned integer field `job`"))
        };
        match cmd {
            "submit" => {
                let grid_value = value
                    .get("grid")
                    .ok_or_else(|| "`submit` needs a `grid` object".to_string())?;
                let grid: Box<SweepGrid> = Box::new(
                    serde::from_value(grid_value).map_err(|e| format!("malformed grid: {e}"))?,
                );
                let client = value
                    .get("client")
                    .and_then(Value::as_str)
                    .unwrap_or("anon")
                    .to_string();
                Ok(Request::Submit { client, grid })
            }
            "status" => Ok(Request::Status {
                job: job_id("status")?,
            }),
            "cancel" => Ok(Request::Cancel {
                job: job_id("cancel")?,
            }),
            "stats" => Ok(Request::Stats),
            "ping" => Ok(Request::Ping),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown cmd `{other}`")),
        }
    }

    /// Render this request as one wire line (no trailing newline).
    pub fn render(&self) -> String {
        match self {
            Request::Submit { client, grid } => {
                let mut line = String::from("{\"cmd\":\"submit\",\"client\":");
                json_into(&mut line, client);
                line.push_str(",\"grid\":");
                json_into(&mut line, grid.as_ref());
                line.push('}');
                line
            }
            Request::Status { job } => format!("{{\"cmd\":\"status\",\"job\":{job}}}"),
            Request::Cancel { job } => format!("{{\"cmd\":\"cancel\",\"job\":{job}}}"),
            Request::Stats => "{\"cmd\":\"stats\"}".to_string(),
            Request::Ping => "{\"cmd\":\"ping\"}".to_string(),
            Request::Shutdown => "{\"cmd\":\"shutdown\"}".to_string(),
        }
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
#[derive(Debug, Clone, PartialEq)]
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
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl Event {
    /// Render this event as one wire line (no trailing newline).
    ///
    /// Rendering is deterministic: field order is fixed and nested payloads
    /// go through the canonical `serde_json` writer, so identical jobs
    /// produce identical bytes — the property the CI byte-compare pins.
    pub fn render(&self) -> String {
        let mut line = String::new();
        self.render_into(&mut line);
        line
    }

    /// Append this event's wire line (no trailing newline) to `out`: what
    /// [`Event::render`] returns, written in place, so a connection's
    /// writer renders straight into its frame buffer.
    pub fn render_into(&self, out: &mut String) {
        use std::fmt::Write;
        // `fmt::Write` for `String` cannot fail.
        let _ = match self {
            Event::Accepted { job, scenarios } => write!(
                out,
                "{{\"event\":\"accepted\",\"job\":{job},\"scenarios\":{scenarios}}}"
            ),
            Event::Result { job, index, result } => {
                let _ = write!(
                    out,
                    "{{\"event\":\"result\",\"job\":{job},\"index\":{index},\"result\":"
                );
                json_into(out, result.as_ref());
                out.write_char('}')
            }
            Event::Done { job, report } => {
                let _ = write!(out, "{{\"event\":\"done\",\"job\":{job},\"report\":");
                json_into(out, report.as_ref());
                out.write_char('}')
            }
            Event::Canceled { job, completed } => write!(
                out,
                "{{\"event\":\"canceled\",\"job\":{job},\"completed\":{completed}}}"
            ),
            Event::Failed { job, message } => {
                let _ = write!(out, "{{\"event\":\"failed\",\"job\":{job},\"message\":");
                json_into(out, message);
                out.write_char('}')
            }
            Event::Status {
                job,
                state,
                completed,
                total,
            } => {
                let _ = write!(out, "{{\"event\":\"status\",\"job\":{job},\"state\":");
                json_into(out, state);
                write!(out, ",\"completed\":{completed},\"total\":{total}}}")
            }
            Event::Stats { cache, scheduler } => {
                out.push_str("{\"event\":\"stats\",\"cache\":");
                json_into(out, cache);
                out.push_str(",\"scheduler\":");
                json_into(out, scheduler);
                out.write_char('}')
            }
            Event::Pong => out.write_str("{\"event\":\"pong\"}"),
            Event::ShuttingDown => out.write_str("{\"event\":\"shutting_down\"}"),
            Event::Error { code, message } => {
                let _ = write!(
                    out,
                    "{{\"event\":\"error\",\"code\":\"{}\",\"message\":",
                    code.name()
                );
                json_into(out, message);
                out.write_char('}')
            }
        };
    }

    /// Parse one reply line (the client side of [`Event::render`]).
    ///
    /// # Errors
    /// Returns a description of what was malformed.
    pub fn parse(line: &str) -> Result<Event, String> {
        let value = serde_json::parse(line).map_err(|e| format!("not valid JSON: {e}"))?;
        let event = value
            .get("event")
            .and_then(Value::as_str)
            .ok_or_else(|| "missing string field `event`".to_string())?;
        let u64_field = |name: &str| {
            value
                .get(name)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("`{event}` missing unsigned field `{name}`"))
        };
        let str_field = |name: &str| {
            value
                .get(name)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("`{event}` missing string field `{name}`"))
        };
        match event {
            "accepted" => Ok(Event::Accepted {
                job: u64_field("job")?,
                scenarios: u64_field("scenarios")?,
            }),
            "result" => Ok(Event::Result {
                job: u64_field("job")?,
                index: u64_field("index")?,
                result: Box::new(
                    serde::from_value(
                        value
                            .get("result")
                            .ok_or_else(|| "`result` missing `result`".to_string())?,
                    )
                    .map_err(|e| format!("malformed result payload: {e}"))?,
                ),
            }),
            "done" => Ok(Event::Done {
                job: u64_field("job")?,
                report: Box::new(
                    serde::from_value(
                        value
                            .get("report")
                            .ok_or_else(|| "`done` missing `report`".to_string())?,
                    )
                    .map_err(|e| format!("malformed report payload: {e}"))?,
                ),
            }),
            "canceled" => Ok(Event::Canceled {
                job: u64_field("job")?,
                completed: u64_field("completed")?,
            }),
            "failed" => Ok(Event::Failed {
                job: u64_field("job")?,
                message: str_field("message")?,
            }),
            "status" => Ok(Event::Status {
                job: u64_field("job")?,
                state: str_field("state")?,
                completed: u64_field("completed")?,
                total: u64_field("total")?,
            }),
            "stats" => Ok(Event::Stats {
                cache: serde::from_value(
                    value
                        .get("cache")
                        .ok_or_else(|| "`stats` missing `cache`".to_string())?,
                )
                .map_err(|e| format!("malformed cache stats: {e}"))?,
                scheduler: serde::from_value(
                    value
                        .get("scheduler")
                        .ok_or_else(|| "`stats` missing `scheduler`".to_string())?,
                )
                .map_err(|e| format!("malformed scheduler stats: {e}"))?,
            }),
            "pong" => Ok(Event::Pong),
            "shutting_down" => Ok(Event::ShuttingDown),
            "error" => Ok(Event::Error {
                code: ErrorCode::parse(&str_field("code")?).map_err(|e| e.to_string())?,
                message: str_field("message")?,
            }),
            other => Err(format!("unknown event `{other}`")),
        }
    }
}

/// Append `value` as compact JSON via the canonical writer (so escaping
/// matches everything else on the wire).
fn json_into<T: Serialize + ?Sized>(out: &mut String, value: &T) {
    serde_json::to_string_into(out, value).expect("wire payloads serialize");
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
