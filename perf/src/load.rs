//! The load generators: one closed-loop connection (each request waits for
//! its reply) and the open-loop schedule of the traced `serve_warm` run.

use std::sync::Arc;
use std::time::{Duration, Instant};

use tasti::serve::proto::{Op, Reply, Request};
use tasti::serve::Client;

use crate::fixture::{answer_hash, check_reply, Checker, Template, TemplateTruth};

/// One connection issuing checked queries and timing them.
pub struct QueryConn {
    pub client: Client,
    truths: Arc<Vec<TemplateTruth>>,
    pub checker: Checker,
    /// Client-observed latency of every ok query reply, by op.
    pub samples: Vec<(Op, f64)>,
}

impl QueryConn {
    pub fn new(client: Client, truths: Arc<Vec<TemplateTruth>>) -> Self {
        Self {
            client,
            truths,
            checker: Checker::default(),
            samples: Vec::new(),
        }
    }

    /// Sends `template` (the `idx`-th of the set `truths` was built for),
    /// waits for the reply, times the round trip including the reply parse
    /// (what `Client::call` does), then checks the answer against ground
    /// truth. `records`, read once the reply is in, gives the range of index
    /// sizes the server may have answered over. Returns the latency in ms of
    /// an ok reply.
    pub fn issue(
        &mut self,
        idx: usize,
        template: &Template,
        records: impl FnOnce() -> (usize, usize),
    ) -> Option<f64> {
        let start = Instant::now();
        let outcome = self
            .client
            .call_raw(template.req.clone())
            .map_err(|e| e.to_string())
            .and_then(|(line, id)| {
                let reply = Reply::parse(&line)?;
                if reply.id != Some(id) {
                    return Err(format!(
                        "reply id {:?} does not match request id {id}",
                        reply.id
                    ));
                }
                Ok((line, reply))
            });
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let (line, reply) = match outcome {
            Ok(pair) => pair,
            Err(why) => {
                self.checker
                    .fail(format!("{}: {why}", template.req.op.name()));
                return None;
            }
        };
        let answer = answer_hash(&line);
        if self.checker.attempt(idx, answer) {
            let verdict = check_reply(&self.truths[idx], template, &reply, records());
            self.checker.record(idx, answer, verdict);
        }
        if reply.ok {
            self.samples.push((template.req.op, ms));
            Some(ms)
        } else {
            None
        }
    }

    /// Sends an admin request that must succeed; a failure is counted.
    pub fn admin(&mut self, req: Request) -> Option<Reply> {
        let name = req.op.name();
        match self.client.call(req) {
            Ok(reply) if reply.ok => Some(reply),
            Ok(reply) => {
                self.checker.fail(format!(
                    "{name} failed: {}",
                    reply.error_message.as_deref().unwrap_or("?")
                ));
                None
            }
            Err(e) => {
                self.checker.fail(format!("{name}: {e}"));
                None
            }
        }
    }
}

/// The labeler meter and index size out of an `index_stats` reply.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    pub records: u64,
    pub reps: u64,
    pub invocations: u64,
}

pub fn index_stats(conn: &mut QueryConn) -> Option<Stats> {
    let reply = conn.admin(Request::new(Op::IndexStats))?;
    let r = &reply.result;
    let field = |v: Option<&tasti_obs::JsonValue>| v.and_then(|x| x.as_u64());
    Some(Stats {
        records: field(r.get("records"))?,
        reps: field(r.get("reps"))?,
        invocations: field(r.get("labeler").and_then(|l| l.get("invocations")))?,
    })
}

/// Latencies of an open-loop phase, each measured from the instant the
/// request was *due*, plus how late the generator itself sent it.
#[derive(Debug, Default)]
pub struct OpenLoop {
    pub latency_ms: Vec<f64>,
    pub lag_ms: Vec<f64>,
}

/// Sends `templates[i mod n]` for every `i` in `mine` at `start + i / rate`,
/// regardless of how the previous reply fared (one connection of an
/// open-loop schedule; a late reply delays this connection's next send,
/// and that delay is charged to the request as lag and as latency).
pub fn open_loop(
    conn: &mut QueryConn,
    templates: &[Template],
    records: usize,
    start: Instant,
    rate: f64,
    mine: impl Iterator<Item = usize>,
    until: Instant,
) -> OpenLoop {
    let mut out = OpenLoop::default();
    for i in mine {
        let due = start + Duration::from_secs_f64(i as f64 / rate);
        if due >= until {
            break;
        }
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        out.lag_ms
            .push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
        let idx = i % templates.len();
        if conn
            .issue(idx, &templates[idx], || (records, records))
            .is_some()
        {
            out.latency_ms
                .push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
        }
    }
    out
}
