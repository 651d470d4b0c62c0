//! Blocking client for the serve protocol — what `mdm_submit`, the
//! soak driver, and the integration tests talk through.

use crate::protocol::{JobReport, JobSpec, Request, SubmitOutcome};
use mdm_profile::json::Value;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// One connection to a run server. Requests are sequential
/// (line out, line in); [`Client::watch`] consumes the connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

fn bad_data(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

impl Client {
    /// Connect (10 s timeout handshake; reads block indefinitely — the
    /// server answers every request line promptly).
    pub fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // One short line each way per request: with Nagle on, the
        // line's tail waits out the peer's delayed ACK (~40 ms).
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Connect, retrying while the server comes up.
    pub fn connect_with_retry(addr: &str, deadline: Duration) -> io::Result<Client> {
        let until = Instant::now() + deadline;
        loop {
            match Self::connect(addr) {
                Ok(client) => return Ok(client),
                Err(e) if Instant::now() >= until => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(100)),
            }
        }
    }

    /// Send one request line, read one response line.
    pub fn request(&mut self, request: &Request) -> io::Result<Value> {
        writeln!(self.writer, "{}", request.to_json().to_compact())?;
        self.writer.flush()?;
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection before answering",
            ));
        }
        Value::parse(&line).map_err(|e| bad_data(format!("unparseable response: {e}")))
    }

    /// Submit once; the server's accept/reject verdict as-is.
    pub fn submit(&mut self, spec: &JobSpec) -> io::Result<SubmitOutcome> {
        let response = self.request(&Request::Submit(spec.clone()))?;
        SubmitOutcome::from_json(&response).map_err(bad_data)
    }

    /// Submit, honouring back-pressure: on a reject with a nonzero
    /// `retry_after_ms`, sleep that long and resubmit, until
    /// `deadline`. Rejects with `retry_after_ms` 0 (validation errors,
    /// duplicates) fail immediately.
    pub fn submit_with_retry(&mut self, spec: &JobSpec, deadline: Duration) -> io::Result<u64> {
        let until = Instant::now() + deadline;
        loop {
            match self.submit(spec)? {
                SubmitOutcome::Accepted { position } => return Ok(position),
                SubmitOutcome::Rejected {
                    error,
                    retry_after_ms,
                } => {
                    if retry_after_ms == 0 {
                        return Err(bad_data(format!("submit rejected: {error}")));
                    }
                    if Instant::now() >= until {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            format!("gave up submitting {:?}: {error}", spec.name),
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(retry_after_ms.min(2_000)));
                }
            }
        }
    }

    /// One job's report.
    pub fn status(&mut self, job: &str) -> io::Result<JobReport> {
        let response = self.request(&Request::Status {
            job: job.to_string(),
        })?;
        expect_ok(&response)?;
        JobReport::from_json(&response).map_err(bad_data)
    }

    /// Every job's report.
    pub fn list(&mut self) -> io::Result<Vec<JobReport>> {
        let response = self.request(&Request::List)?;
        expect_ok(&response)?;
        response
            .get("jobs")
            .and_then(Value::as_arr)
            .ok_or_else(|| bad_data("list response missing `jobs`"))?
            .iter()
            .map(|v| JobReport::from_json(v).map_err(bad_data))
            .collect()
    }

    /// Server-level counters.
    pub fn stats(&mut self) -> io::Result<Value> {
        let response = self.request(&Request::Stats)?;
        expect_ok(&response)?;
        Ok(response)
    }

    /// Stop scheduling (running slices finish and checkpoint).
    pub fn drain(&mut self) -> io::Result<()> {
        expect_ok(&self.request(&Request::Drain)?)
    }

    /// Drain and stop the server.
    pub fn shutdown(&mut self) -> io::Result<()> {
        expect_ok(&self.request(&Request::Shutdown)?)
    }

    /// Poll `status` until the job is terminal (or `deadline` passes).
    pub fn wait(&mut self, job: &str, deadline: Duration) -> io::Result<JobReport> {
        let until = Instant::now() + deadline;
        loop {
            let report = self.status(job)?;
            if report.state.is_terminal() {
                return Ok(report);
            }
            if Instant::now() >= until {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!(
                        "job {job:?} still {} at step {}/{} after the wait deadline",
                        report.state.as_str(),
                        report.step,
                        report.steps
                    ),
                ));
            }
            std::thread::sleep(Duration::from_millis(100));
        }
    }

    /// Turn the connection into the job's live stream and hand back
    /// the line iterator: the `ok` header has already been consumed;
    /// what follows are flight-recorder JSONL lines and the final
    /// `{"type":"done",...}` trailer.
    pub fn watch(mut self, job: &str) -> io::Result<WatchStream> {
        writeln!(
            self.writer,
            "{}",
            Request::Watch {
                job: job.to_string()
            }
            .to_json()
            .to_compact()
        )?;
        self.writer.flush()?;
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed before the watch header",
            ));
        }
        let header = Value::parse(&line).map_err(|e| bad_data(format!("watch header: {e}")))?;
        expect_ok(&header)?;
        Ok(WatchStream {
            reader: self.reader,
        })
    }
}

fn expect_ok(response: &Value) -> io::Result<()> {
    match response.get("ok") {
        Some(Value::Bool(true)) => Ok(()),
        _ => Err(bad_data(format!(
            "server error: {}",
            response.opt_str("error").unwrap_or("request refused")
        ))),
    }
}

/// The streaming tail of a `watch`ed connection.
pub struct WatchStream {
    reader: BufReader<TcpStream>,
}

impl Iterator for WatchStream {
    type Item = io::Result<String>;

    fn next(&mut self) -> Option<io::Result<String>> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => None,
            Ok(_) => Some(Ok(line.trim_end().to_string())),
            Err(e) => Some(Err(e)),
        }
    }
}
