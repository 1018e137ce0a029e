//! Command line of the repository benchmark:
//!
//! ```text
//! cargo run --release --offline --manifest-path ladderbench/Cargo.toml -- \
//!     --workload wire-fresh|wire-hot|churn-50k --seed N --seconds S --trace 0|1
//! ```
//!
//! Phase accounting goes to standard output as the run proceeds; the last
//! line is the JSON result. The exit code is 0 only when every checked
//! answer matched the core library.

use std::alloc::{GlobalAlloc, Layout};
use std::process::ExitCode;
use std::time::Duration;

use ladderbench::report::{result_line, END_TO_END, PER_LAYER};
use ladderbench::trace::{self_times, write_jsonl};
use ladderbench::workloads::{self, Args, HEAP_CEILING_BYTES};
use uncertain_bench::measure::{live_heap_bytes, CountingAlloc};

/// [`CountingAlloc`] that refuses any allocation taking the live heap past
/// [`HEAP_CEILING_BYTES`]; the refusal aborts the process, failing the run.
struct CeilingAlloc;

impl CeilingAlloc {
    fn refuses(grow: usize) -> bool {
        let over = live_heap_bytes().saturating_add(grow as i64) > HEAP_CEILING_BYTES;
        if over {
            use std::io::Write as _;
            let _ =
                std::io::stderr().write_all(b"ladderbench: live heap ceiling reached; aborting\n");
        }
        over
    }
}

// SAFETY: every call is forwarded unchanged to `CountingAlloc` (itself a
// thin wrapper over `System`), except that an allocation over the ceiling
// returns null, which `GlobalAlloc` permits to signal failure.
unsafe impl GlobalAlloc for CeilingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if Self::refuses(layout.size()) {
            return std::ptr::null_mut();
        }
        CountingAlloc.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if Self::refuses(layout.size()) {
            return std::ptr::null_mut();
        }
        CountingAlloc.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        CountingAlloc.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if Self::refuses(new_size.saturating_sub(layout.size())) {
            return std::ptr::null_mut();
        }
        CountingAlloc.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CeilingAlloc = CeilingAlloc;

/// A run that has not finished by then is stuck; it fails instead of
/// hanging (the first run in a checkout also builds, outside this limit).
const WATCHDOG: Duration = Duration::from_secs(170);

fn usage() -> ExitCode {
    eprintln!(
        "usage: ladderbench --workload wire-fresh|wire-hot|churn-50k --seed N --seconds S --trace 0|1"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut args = Args {
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage();
        };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = Some(value);
                true
            }
            "--seed" => value.parse().map(|v| args.seed = v).is_ok(),
            "--seconds" => value
                .parse::<f64>()
                .map(|v| args.seconds = v)
                .is_ok_and(|_| args.seconds > 0.0),
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    args.trace = value == "1";
                    true
                }
                _ => false,
            },
            _ => false,
        };
        if !ok {
            return usage();
        }
    }
    let Some(workload) = workload else {
        return usage();
    };

    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("ladderbench: no result after {WATCHDOG:?}; giving up");
        std::process::exit(3);
    });

    println!(
        "ladderbench: workload {workload}, seed {}, {} s, trace {}, {} cpus",
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let outcome = match workload.as_str() {
        "wire-fresh" => workloads::wire(false, &args),
        "wire-hot" => workloads::wire(true, &args),
        "churn-50k" => workloads::churn(&args),
        _ => return usage(),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("ladderbench: {workload} failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    if args.trace {
        let spans = outcome.tracer.spans();
        println!(
            "trace: {} spans; per span name: count, total, self",
            spans.len()
        );
        for (name, t) in self_times(&spans) {
            println!(
                "  {name:<22} {:>8}  {:>10.3} ms  {:>10.3} ms",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
        let path = std::path::PathBuf::from(".bench_out")
            .join(format!("{workload}-seed{}.spans.jsonl", args.seed));
        if let Err(e) = write_jsonl(&path, &spans) {
            eprintln!("ladderbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("trace: spans written to {}", path.display());
    }

    if args.trace {
        println!(
            "per-layer metrics: value, and the end-to-end metric it should move on which workload"
        );
        for m in PER_LAYER {
            if let Some((_, v)) = outcome.values.iter().find(|(n, _)| *n == m.name) {
                println!(
                    "  {:<32} {v:>14.4} {:<8} -> {} on {}",
                    m.name, m.unit, m.moves, m.on
                );
            }
        }
    }
    let correct = outcome.mismatches == 0;
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    println!(
        "{}",
        result_line(
            correct,
            outcome.attempted,
            outcome.failed,
            table,
            &outcome.values
        )
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
