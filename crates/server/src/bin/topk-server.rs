//! `topk-server` — serve a top-k index over `topkwire v1`.
//!
//! ```text
//! topk-server [--addr 127.0.0.1:0] [--expected-n 1048576] [--max-conns 256]
//!             [--max-inflight 128] [--max-frame 1048576]
//!             [--queue-cap 4096] [--batch-max 1024] [--data-dir DIR]
//! ```
//!
//! Prints `listening on <addr>` once the socket is bound (scripts — the CI
//! serving-smoke job among them — parse this line for the ephemeral port),
//! then serves until SIGTERM/SIGINT, drains the write queue, prints a final
//! counter summary, and exits 0.

use std::time::Duration;

use topk_server::{Server, ServerConfig};

/// SIGTERM/SIGINT land here: a flag the main loop polls, nothing else —
/// async-signal-safe by construction. Hand-rolled `signal(2)` binding
/// because the workspace builds without libc.
#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static STOP: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_signal(_signum: i32) {
        STOP.store(true, Ordering::Release);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    pub fn install() {
        let handler = on_signal as extern "C" fn(i32) as *const () as usize;
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }

    pub fn stopped() -> bool {
        STOP.load(Ordering::Acquire)
    }
}

#[cfg(not(unix))]
mod sig {
    pub fn install() {}
    pub fn stopped() -> bool {
        false
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: topk-server [--addr HOST:PORT] [--expected-n N] [--max-conns N]\n\
         \x20                 [--max-inflight N] [--max-frame BYTES]\n\
         \x20                 [--queue-cap N] [--batch-max N] [--data-dir DIR]"
    );
    std::process::exit(2)
}

fn parse_config() -> ServerConfig {
    let mut config = ServerConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| -> String {
            match args.next() {
                Some(v) => v,
                None => {
                    eprintln!("topk-server: {what} requires a value");
                    usage()
                }
            }
        };
        let parse_usize = |raw: String, what: &str| -> usize {
            match raw.parse() {
                Ok(v) => v,
                Err(_) => {
                    eprintln!("topk-server: {what}: not a number: {raw}");
                    usage()
                }
            }
        };
        match flag.as_str() {
            "--addr" => config.addr = value("--addr"),
            "--expected-n" => {
                config.expected_n = parse_usize(value("--expected-n"), "--expected-n")
            }
            "--max-conns" => config.max_conns = parse_usize(value("--max-conns"), "--max-conns"),
            "--max-inflight" => {
                config.max_inflight = parse_usize(value("--max-inflight"), "--max-inflight")
            }
            "--max-frame" => {
                config.max_frame = parse_usize(value("--max-frame"), "--max-frame") as u32
            }
            "--queue-cap" => config.queue_cap = parse_usize(value("--queue-cap"), "--queue-cap"),
            "--batch-max" => config.batch_max = parse_usize(value("--batch-max"), "--batch-max"),
            // Serve durably from DIR (created if missing): committed writes
            // are journalled and a restart recovers them.
            "--data-dir" => {
                let dir = std::path::PathBuf::from(value("--data-dir"));
                if let Err(e) = std::fs::create_dir_all(&dir) {
                    eprintln!("topk-server: --data-dir {}: {e}", dir.display());
                    std::process::exit(1)
                }
                config.data_dir = Some(dir);
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("topk-server: unknown flag {other}");
                usage()
            }
        }
    }
    config
}

fn main() {
    let config = parse_config();
    sig::install();
    let server = match Server::start(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("topk-server: failed to start: {e}");
            std::process::exit(1)
        }
    };
    println!("listening on {}", server.local_addr());
    // `println!` buffers per-line already, but make the port line visible to
    // pipes immediately — the smoke job reads it before any traffic flows.
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    while !sig::stopped() {
        std::thread::sleep(Duration::from_millis(50));
    }

    eprintln!("topk-server: signal received, draining");
    let stats = server.shutdown();
    println!(
        "drained: conns={} rejected={} frames={} reads={} writes={} overloads={} \
         commits={} ops={} max_batch={}",
        stats.conns_accepted,
        stats.conns_rejected,
        stats.frames,
        stats.reads_served,
        stats.writes_enqueued,
        stats.writes_rejected,
        stats.batches_committed,
        stats.ops_committed,
        stats.max_commit_batch,
    );
}
