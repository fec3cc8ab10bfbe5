//! The compile-server daemon.
//!
//! ```text
//! serve --stdio                         # frames on stdin/stdout (tests, CI)
//! serve --port 0                        # TCP on an ephemeral port
//! serve --port 7878 --workers 8 --jobs 4
//! serve --port 0 --tenant alice:s3cret --tenant bob:hunter2
//! serve --port 0 --state-dir /var/lib/s1lisp   # durable tenant state
//! serve --stdio --fault-seed 42 --fault-permille 200   # seeded fault storm
//! ```
//!
//! In TCP mode the bound address is announced on stderr as
//! `serve: listening on 127.0.0.1:PORT` (stderr so stdio-mode frames
//! own stdout unconditionally).  On shutdown the metrics registry is
//! rendered to stderr.
//!
//! With `--state-dir`, every tenant mutation is journaled before it is
//! acknowledged and tenants found under the directory are recovered
//! before the server listens; `--snapshot-every N` sets the journal
//! compaction cadence.
//!
//! SIGTERM and SIGINT drain gracefully in TCP mode: a self-pipe
//! signal handler wakes a monitor thread that routes through the same
//! shutdown path as a client `shutdown` request, so in-flight work
//! finishes, durable state is consistent, and the process exits 0.

use std::process::ExitCode;

use s1lisp_driver::FaultPlan;
use s1lisp_server::{CompileServer, QueueConfig, ServerConfig, Stopper};

fn usage() -> ! {
    eprintln!(
        "usage: serve (--stdio | --port N) [--workers N] [--jobs N] \
         [--queue-total N] [--queue-per-tenant N] [--quantum N] \
         [--retry-after-ms N] [--incident-budget N] [--run-fuel N] \
         [--state-dir DIR] [--snapshot-every N] \
         [--tenant name:token ...] [--fault-seed N --fault-permille N] [--guard]"
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> T {
    args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
        eprintln!("serve: {flag} wants a value");
        usage()
    })
}

/// Graceful-drain signal plumbing (unix only; no-op elsewhere).
///
/// The classic self-pipe trick, on std plus two libc externs: the
/// handler may only do async-signal-safe work, so it writes one byte
/// to a pipe and returns; a monitor thread blocks on the read end and
/// initiates the normal drain.  The pipe and stopper leak (the
/// handler outlives `main`'s scopes), which is exactly what a
/// process-lifetime resource should do.
#[cfg(unix)]
mod signals {
    use super::Stopper;
    use std::os::raw::{c_int, c_void};

    extern "C" {
        fn signal(signum: c_int, handler: usize) -> usize;
        fn pipe(fds: *mut c_int) -> c_int;
        fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    }

    const SIGINT: c_int = 2;
    const SIGTERM: c_int = 15;

    static mut WAKE_FD: c_int = -1;

    extern "C" fn on_signal(_signum: c_int) {
        // Async-signal-safe: one write(2), ignore the result (if the
        // pipe is full a wakeup is already pending).
        unsafe {
            let byte = 0u8;
            let _ = write(WAKE_FD, std::ptr::addr_of!(byte).cast(), 1);
        }
    }

    /// Installs SIGTERM/SIGINT handlers that wake a monitor thread to
    /// stop the server through its normal drain path.
    pub fn install(stopper: Stopper) {
        let mut fds = [-1 as c_int; 2];
        let read_fd = unsafe {
            if pipe(fds.as_mut_ptr()) != 0 {
                return; // no pipe, no graceful drain — keep serving
            }
            WAKE_FD = fds[1];
            let handler = on_signal as *const () as usize;
            signal(SIGTERM, handler);
            signal(SIGINT, handler);
            fds[0]
        };
        std::thread::Builder::new()
            .name("serve-signals".into())
            .spawn(move || {
                let mut byte = 0u8;
                loop {
                    let n = unsafe { read(read_fd, std::ptr::addr_of_mut!(byte).cast(), 1) };
                    if n == 1 {
                        eprintln!("serve: signal received, draining");
                        stopper.stop();
                        return;
                    }
                    if n == 0 {
                        return; // write end gone: process is tearing down
                    }
                    // n < 0: EINTR or similar — retry.
                }
            })
            .expect("spawn signal monitor");
    }
}

#[cfg(not(unix))]
mod signals {
    use super::Stopper;

    /// No signal plumbing off unix; shutdown comes from a client.
    pub fn install(_stopper: Stopper) {}
}

fn main() -> ExitCode {
    let mut config = ServerConfig::default();
    let mut queue = QueueConfig::default();
    let mut stdio = false;
    let mut port: Option<u16> = None;
    let mut fault_seed: Option<u64> = None;
    let mut fault_permille: u16 = 100;
    let mut allow: Vec<(String, String)> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--stdio" => stdio = true,
            "--port" => port = Some(parse(&mut args, "--port")),
            "--workers" => config.workers = parse(&mut args, "--workers"),
            "--jobs" => config.service.jobs = parse(&mut args, "--jobs"),
            "--queue-total" => queue.total = parse(&mut args, "--queue-total"),
            "--queue-per-tenant" => queue.per_tenant = parse(&mut args, "--queue-per-tenant"),
            "--quantum" => queue.quantum = parse(&mut args, "--quantum"),
            "--retry-after-ms" => config.retry_after_ms = parse(&mut args, "--retry-after-ms"),
            "--incident-budget" => config.incident_budget = parse(&mut args, "--incident-budget"),
            "--run-fuel" => config.service.fuel = parse(&mut args, "--run-fuel"),
            "--state-dir" => config.state_dir = Some(parse(&mut args, "--state-dir")),
            "--snapshot-every" => config.snapshot_every = parse(&mut args, "--snapshot-every"),
            "--guard" => config.service.options.guard = true,
            "--fault-seed" => fault_seed = Some(parse(&mut args, "--fault-seed")),
            "--fault-permille" => fault_permille = parse(&mut args, "--fault-permille"),
            "--tenant" => {
                let spec: String = parse(&mut args, "--tenant");
                match spec.split_once(':') {
                    Some((name, token)) => allow.push((name.to_string(), token.to_string())),
                    None => {
                        eprintln!("serve: --tenant wants name:token");
                        usage();
                    }
                }
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("serve: unknown flag {other}");
                usage();
            }
        }
    }
    if stdio == port.is_some() {
        eprintln!("serve: pick exactly one of --stdio and --port");
        usage();
    }
    if let Some(seed) = fault_seed {
        config.service.options.fault_plan = Some(FaultPlan::storm(seed, fault_permille));
    }
    if !allow.is_empty() {
        config.tenants = Some(allow);
    }
    config.queue = queue;

    let server = CompileServer::new(config);
    if stdio {
        match server.serve_stdio() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("serve: transport error: {e}");
                ExitCode::FAILURE
            }
        }
    } else {
        match server.serve_tcp(port.unwrap_or(0)) {
            Ok(handle) => {
                signals::install(handle.stopper());
                eprintln!("serve: listening on 127.0.0.1:{}", handle.port());
                // Blocks until a client sends `shutdown` (or a signal
                // drains us).
                eprintln!("{}", handle.join());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("serve: bind failed: {e}");
                ExitCode::FAILURE
            }
        }
    }
}
