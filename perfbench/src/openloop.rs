//! The load generator: a writer thread sends frames over one connection
//! and a reader thread takes the responses off it, checks them and times
//! them.
//!
//! Open loop, the writer sends each frame when it is due, whatever the
//! server is doing, and a request's latency runs from its due time, so a
//! server stall charges every request that fell due behind it. Closed
//! loop, the writer keeps a fixed window of frames in flight for a fixed
//! time, which measures how fast the server can go.

use crate::check::{Checker, Verdict};
use crate::gen::{OpKind, Rung};
use crate::spans::SpanLog;
use csv_server::{decode_response, Decoded};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// How long the reader waits for any byte before declaring the server
/// wedged.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// How the writer paces the rung's frames.
#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// Each frame at its due time.
    Open,
    /// Up to `window` frames in flight until `seconds` have passed,
    /// cycling through the rung's frames; due times are ignored.
    Closed { window: usize, seconds: f64 },
}

/// What one rung measured, per frame in send order.
#[derive(Debug, Clone, Default)]
pub struct RungOutcome {
    /// Nanoseconds from the rung's start; a closed-loop frame is due when
    /// it is sent.
    pub due_ns: Vec<u64>,
    pub send_ns: Vec<u64>,
    pub recv_ns: Vec<u64>,
    pub kinds: Vec<OpKind>,
    /// Requests sent but not yet answered, sampled at each send.
    pub inflight: Vec<u32>,
    pub request_bytes: u64,
    pub response_bytes: u64,
    /// Responses that were a typed server error.
    pub failed: u64,
    /// When the rung started on the span clock (traced rungs only).
    pub clock_start_ns: u64,
}

impl RungOutcome {
    pub fn len(&self) -> usize {
        self.recv_ns.len()
    }

    /// Latency of frame `i` from its due time.
    pub fn latency_ns(&self, i: usize) -> u64 {
        self.recv_ns[i].saturating_sub(self.due_ns[i])
    }

    /// How late frame `i` left the generator.
    pub fn late_ns(&self, i: usize) -> u64 {
        self.send_ns[i].saturating_sub(self.due_ns[i])
    }

    /// Served round trip of frame `i`, from send to response.
    pub fn round_trip_ns(&self, i: usize) -> u64 {
        self.recv_ns[i].saturating_sub(self.send_ns[i])
    }

    /// Frames answered per second over the rung, from its start to the
    /// last response.
    pub fn achieved_rate(&self) -> f64 {
        match self.recv_ns.iter().max() {
            Some(&end) if end > 0 => self.len() as f64 / (end as f64 / 1e9),
            _ => 0.0,
        }
    }
}

/// Sleeps, then yields, until `due_ns` after `start`.
pub fn wait_until(start: Instant, due_ns: u64) {
    loop {
        let now = start.elapsed().as_nanos() as u64;
        if now >= due_ns {
            return;
        }
        let left = due_ns - now;
        if left > 150_000 {
            std::thread::sleep(Duration::from_nanos(left - 100_000));
        } else {
            std::thread::yield_now();
        }
    }
}

/// Starts one yielding thread per CPU until `stop` rises. A CPU that
/// idles between requests halts, and on a virtual machine waking a halted
/// CPU waits on the host's scheduler: on a 2-vCPU guest that wait moved
/// the served `p50_us` between 30 and 290 µs from run to run. Threads that
/// only yield keep every CPU busy without taking time from the server:
/// any woken thread runs in their place at once.
fn keep_cpus_awake<'scope>(
    scope: &'scope std::thread::Scope<'scope, '_>,
    stop: &'scope AtomicBool,
) {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    for _ in 0..cpus {
        scope.spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                std::thread::yield_now();
            }
        });
    }
}

/// What the writer hands back: send times and in-flight samples.
#[derive(Default)]
struct Sent {
    send_ns: Vec<u64>,
    inflight: Vec<u32>,
    bytes: u64,
}

/// Sends `rung` over `stream` at `pace` and checks every answer. With
/// `trace`, the socket writes and response decodes are recorded as spans
/// into the two logs (writer side, reader side). An `Err` is a wrong
/// answer or a broken connection.
pub fn drive(
    stream: &TcpStream,
    rung: &Rung,
    pace: Pace,
    checker: &mut Checker,
    trace: Option<(&mut SpanLog, &mut SpanLog)>,
) -> Result<RungOutcome, String> {
    let pool = rung.ops.len();
    if pool == 0 {
        return Ok(RungOutcome::default());
    }
    let mut writer = stream
        .try_clone()
        .map_err(|e| format!("cloning the connection: {e}"))?;
    let mut reader = stream
        .try_clone()
        .map_err(|e| format!("cloning the connection: {e}"))?;
    reader
        .set_read_timeout(Some(READ_TIMEOUT))
        .map_err(|e| format!("setting the read timeout: {e}"))?;
    let received = AtomicUsize::new(0);
    let sent_count = AtomicUsize::new(0);
    let writer_done = AtomicBool::new(false);
    let (mut writer_log, mut reader_log) = match trace {
        Some((w, r)) => (Some(w), Some(r)),
        None => (None, None),
    };
    // Both threads measure from the same start, a little ahead so the
    // writer is already waiting when the first frame falls due.
    let start = Instant::now() + Duration::from_millis(2);
    let clock_start_ns = writer_log.as_ref().map_or(0, |log| log.clock().at(start));
    // Frames `first..last` of the cycled pool; callers never cross its end.
    let frames = |first: usize, last: usize| -> &[u8] {
        let base = first / pool * pool;
        &rung.frames[rung.offsets[first - base]..rung.offsets[last - base]]
    };

    let mut recv_ns = Vec::with_capacity(pool);
    let mut response_bytes = 0u64;
    let mut failed = 0u64;
    let warm_stop = AtomicBool::new(false);
    let sent = std::thread::scope(|scope| {
        keep_cpus_awake(scope, &warm_stop);
        let (received, sent_count, writer_done) = (&received, &sent_count, &writer_done);
        let writer_log = &mut writer_log;
        let sender = scope.spawn(move || -> Result<Sent, String> {
            let mut out = Sent::default();
            let mut send = |first: usize, last: usize, out: &mut Sent| -> Result<(), String> {
                let now = start.elapsed().as_nanos() as u64;
                let answered = received.load(Ordering::Acquire);
                for k in first..last {
                    out.send_ns.push(now);
                    out.inflight.push((k - answered) as u32);
                }
                let bytes = frames(first, last);
                out.bytes += bytes.len() as u64;
                let open = writer_log
                    .as_deref()
                    .map(|log| log.open("server.send", 0, first as u64));
                let result = writer.write_all(bytes);
                if let (Some(open), Some(log)) = (open, writer_log.as_deref_mut()) {
                    log.close(open, "");
                }
                sent_count.store(last, Ordering::Release);
                result.map_err(|e| {
                    // Unblock the reader, which would otherwise wait for
                    // answers to frames that never left.
                    writer.shutdown(Shutdown::Both).ok();
                    format!("sending frame {first}: {e}")
                })
            };
            let mut i = 0;
            let result = match pace {
                Pace::Open => loop {
                    if i == pool {
                        break Ok(());
                    }
                    wait_until(start, rung.due_ns[i]);
                    let now = start.elapsed().as_nanos() as u64;
                    let first = i;
                    while i < pool && rung.due_ns[i] <= now {
                        i += 1;
                    }
                    if let Err(e) = send(first, i, &mut out) {
                        break Err(e);
                    }
                },
                Pace::Closed { window, seconds } => {
                    let stop = (seconds * 1e9) as u64;
                    loop {
                        if start.elapsed().as_nanos() as u64 >= stop {
                            break Ok(());
                        }
                        let room = window.saturating_sub(i - received.load(Ordering::Acquire));
                        if room == 0 {
                            std::thread::yield_now();
                            continue;
                        }
                        let last = (i + room).min((i / pool + 1) * pool);
                        if let Err(e) = send(i, last, &mut out) {
                            break Err(e);
                        }
                        i = last;
                    }
                }
            };
            writer_done.store(true, Ordering::Release);
            result.map(|()| out)
        });

        let mut read = || -> Result<(), String> {
            let mut inbox: Vec<u8> = Vec::with_capacity(1 << 20);
            let mut chunk = vec![0u8; 256 * 1024];
            let mut next = 0usize;
            loop {
                // The done flag first: once the writer is done, the count
                // read after it is final.
                let done = writer_done.load(Ordering::Acquire);
                if next >= sent_count.load(Ordering::Acquire) {
                    match pace {
                        _ if done => return Ok(()),
                        Pace::Open if next >= pool => return Ok(()),
                        // Open loop, the next frame is on its way: block.
                        Pace::Open => {}
                        // Closed loop, nothing is in flight: do not block.
                        Pace::Closed { .. } => {
                            std::thread::yield_now();
                            continue;
                        }
                    }
                }
                let got = match reader.read(&mut chunk) {
                    Ok(0) => return Err(format!("server closed the connection at frame {next}")),
                    Ok(got) => got,
                    Err(e) => return Err(format!("reading response {next}: {e}")),
                };
                let now = start.elapsed().as_nanos() as u64;
                response_bytes += got as u64;
                inbox.extend_from_slice(&chunk[..got]);
                let mut consumed = 0;
                loop {
                    let open = reader_log
                        .as_deref()
                        .map(|log| log.open("server.decode", 0, next as u64));
                    let decoded = decode_response(&inbox[consumed..]);
                    if let (Some(open), Some(log)) = (open, reader_log.as_deref_mut()) {
                        log.close(open, "");
                    }
                    match decoded {
                        Ok(Decoded::Incomplete) => break,
                        Ok(Decoded::Frame {
                            value,
                            consumed: used,
                        }) => {
                            let op = &rung.ops[next % pool];
                            match checker.check(op, &value) {
                                Ok(Verdict::Ok) => {}
                                Ok(Verdict::Failed) => failed += 1,
                                Err(wrong) => {
                                    return Err(format!(
                                        "wrong answer to frame {next} ({op:?}): {wrong}"
                                    ))
                                }
                            }
                            recv_ns.push(now);
                            consumed += used;
                            next += 1;
                            received.store(next, Ordering::Release);
                        }
                        Err(e) => return Err(format!("undecodable response to frame {next}: {e}")),
                    }
                }
                inbox.drain(..consumed);
            }
        };
        let read_result = read();
        warm_stop.store(true, Ordering::Relaxed);
        if read_result.is_err() {
            // Unblock a writer stuck on a full socket.
            stream.shutdown(Shutdown::Both).ok();
        }
        let sent = sender
            .join()
            .unwrap_or_else(|_| Err("the sender thread panicked".into()));
        read_result.and(sent)
    })?;
    if recv_ns.len() != sent.send_ns.len() {
        return Err(format!(
            "{} frames sent but {} answered",
            sent.send_ns.len(),
            recv_ns.len()
        ));
    }
    let n = recv_ns.len();
    let due_ns = match pace {
        Pace::Open => rung.due_ns.clone(),
        Pace::Closed { .. } => sent.send_ns.clone(),
    };
    Ok(RungOutcome {
        due_ns,
        send_ns: sent.send_ns,
        recv_ns,
        kinds: (0..n).map(|k| rung.ops[k % pool].kind()).collect(),
        inflight: sent.inflight,
        request_bytes: sent.bytes,
        response_bytes,
        failed,
        clock_start_ns,
    })
}

/// Records one `server.round_trip` span per frame of a traced rung, on
/// the clock its send and decode spans used.
pub fn round_trip_spans(log: &mut SpanLog, outcome: &RungOutcome) {
    for i in 0..outcome.len() {
        log.record(
            "server.round_trip",
            0,
            i as u64,
            outcome.clock_start_ns + outcome.send_ns[i],
            outcome.clock_start_ns + outcome.recv_ns[i],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Op;
    use csv_common::key::KeyValue;
    use csv_server::{decode_request, encode_request, encode_response, Request, Response};
    use std::net::TcpListener;

    const STALL_AT: usize = 100;
    const STALL_MS: u64 = 200;
    const GAP_MS: u64 = 1;

    /// A fake in-process server that answers `Get`s correctly, but holds
    /// every answer from request `STALL_AT` on for `STALL_MS`.
    fn stalling_responder(listener: TcpListener) {
        let (mut stream, _) = listener.accept().expect("the generator connects");
        let mut inbox = Vec::new();
        let mut buf = [0u8; 64 * 1024];
        let mut served = 0;
        loop {
            let n = stream.read(&mut buf).expect("reading requests");
            if n == 0 {
                return;
            }
            inbox.extend_from_slice(&buf[..n]);
            let mut consumed = 0;
            let mut out = Vec::new();
            while let Ok(Decoded::Frame {
                value,
                consumed: used,
            }) = decode_request(&inbox[consumed..])
            {
                consumed += used;
                if served == STALL_AT {
                    stream.write_all(&out).expect("answering");
                    out.clear();
                    std::thread::sleep(Duration::from_millis(STALL_MS));
                }
                let Request::Get { key } = value else {
                    panic!("the test sends only gets");
                };
                encode_response(&Response::Value(Some(key)), &mut out);
                served += 1;
            }
            inbox.drain(..consumed);
            stream.write_all(&out).expect("answering");
        }
    }

    fn get_rung(frames: usize) -> Rung {
        let ops: Vec<Op> = (0..frames as u64).map(Op::Get).collect();
        let mut bytes = Vec::new();
        let mut offsets = vec![0];
        for op in &ops {
            encode_request(&op.request(), &mut bytes);
            offsets.push(bytes.len());
        }
        Rung {
            rate: 1e3 / GAP_MS as f64,
            due_ns: (0..frames as u64).map(|i| i * GAP_MS * 1_000_000).collect(),
            ops,
            frames: bytes,
            offsets,
        }
    }

    #[test]
    fn a_stall_charges_every_request_queued_behind_it() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("binding a loopback port");
        let addr = listener.local_addr().expect("a bound address");
        let responder = std::thread::spawn(move || stalling_responder(listener));
        let records: Vec<KeyValue> = (0..400).map(KeyValue::identity).collect();
        let mut checker = Checker::new(&records);
        let stream = TcpStream::connect(addr).expect("connecting");
        stream.set_nodelay(true).expect("nodelay");
        let out =
            drive(&stream, &get_rung(400), Pace::Open, &mut checker, None).expect("a clean run");
        drop(stream);
        responder.join().expect("the responder");

        assert_eq!(out.len(), 400);
        let ms = |ns: u64| ns as f64 / 1e6;
        // Request STALL_AT + k fell due k ms into the stall, so it waited
        // for the rest of it even though the server had not yet seen it.
        for k in [1, 50, 100, 150] {
            let i = STALL_AT + k;
            let floor = (STALL_MS - k as u64 * GAP_MS) as f64 - 5.0;
            assert!(
                ms(out.latency_ns(i)) >= floor,
                "request {i} shows {:.1} ms, at least {floor} ms expected",
                ms(out.latency_ns(i))
            );
        }
        // The generator kept to its schedule through the stall: the wait
        // is charged to the server, not hidden as lateness.
        assert!(ms(out.late_ns(STALL_AT + 100)) < 50.0);
        // More than a percent of all requests sat behind the stall, so
        // the p99 shows it; a closed loop would have sent just one.
        let mut lat: Vec<u64> = (0..out.len()).map(|i| out.latency_ns(i)).collect();
        lat.sort_unstable();
        assert!(ms(lat[lat.len() * 99 / 100]) > 100.0);
        assert!(
            ms(lat[STALL_AT / 2]) < 100.0,
            "requests before the stall stay fast"
        );
    }

    #[test]
    fn closed_loop_keeps_its_window_and_cycles_the_pool() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("binding a loopback port");
        let addr = listener.local_addr().expect("a bound address");
        let responder = std::thread::spawn(move || stalling_responder(listener));
        let records: Vec<KeyValue> = (0..400).map(KeyValue::identity).collect();
        let mut checker = Checker::new(&records);
        let stream = TcpStream::connect(addr).expect("connecting");
        let pace = Pace::Closed {
            window: 8,
            seconds: 0.5,
        };
        let out = drive(&stream, &get_rung(50), pace, &mut checker, None).expect("a clean run");
        drop(stream);
        responder.join().expect("the responder");
        assert!(
            out.len() > 50,
            "the 50-frame pool was cycled: {} frames",
            out.len()
        );
        assert!(out.inflight.iter().all(|&n| n < 8));
    }
}
