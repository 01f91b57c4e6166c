//! Quickstart: build a system by hand, run your own CPU thread and GPU
//! wavefront against it, and read the metrics.
//!
//! ```sh
//! cargo run --release --example quickstart
//! # watch one cache line's protocol traffic on stderr:
//! cargo run --release --example quickstart -- --trace-line 16386
//! ```
//!
//! The scenario is a minimal CPU→GPU handoff: the CPU writes a value and
//! raises a flag; a GPU wavefront polls the flag with a system-scope
//! atomic, acquires, reads the value, and writes a transformed result the
//! CPU-side verification then checks.

use hsc_repro::prelude::*;

const VALUE: Addr = Addr(0x10_0000);
const FLAG: Addr = Addr(0x10_0040);
const RESULT: Addr = Addr(0x10_0080);

/// The CPU side: store the payload, then publish the flag.
#[derive(Debug, Clone, Default)]
struct Publisher {
    step: u32,
}

impl CoreProgram for Publisher {
    fn next_op(&mut self, _last: Option<u64>) -> CpuOp {
        self.step += 1;
        match self.step {
            1 => CpuOp::Store(VALUE, 21),
            2 => CpuOp::Store(FLAG, 1),
            _ => CpuOp::Done,
        }
    }
}

/// The GPU side: poll the flag, acquire, read, compute, publish.
#[derive(Debug, Clone, Default)]
struct Doubler {
    step: u32,
    seen: u64,
}

impl WavefrontProgram for Doubler {
    fn next_op(&mut self, last: Option<u64>) -> GpuOp {
        match self.step {
            0 => {
                // Poll the flag at system scope until it becomes 1.
                if last == Some(1) {
                    self.step = 1;
                    return GpuOp::Acquire;
                }
                GpuOp::AtomicSlc(FLAG, AtomicKind::FetchAdd(0))
            }
            1 => {
                self.step = 2;
                GpuOp::VecLoad(vec![VALUE])
            }
            2 => {
                self.seen = last.expect("payload load");
                self.step = 3;
                GpuOp::VecStore(vec![(RESULT, self.seen * 2)])
            }
            3 => {
                self.step = 4;
                GpuOp::Release
            }
            _ => GpuOp::Done,
        }
    }
}

/// Parses `--trace-line <n>` (decimal line number = addr/64), the
/// pattern `TraceConfig` docs describe: tracing is configured through
/// the builder, so tools that want a knob parse it themselves.
fn trace_from_args() -> TraceConfig {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--trace-line" {
            let n = args
                .next()
                .and_then(|v| v.parse().ok())
                .expect("--trace-line takes a decimal line number");
            return TraceConfig::line(n);
        }
    }
    TraceConfig::off()
}

fn main() {
    let cfg = SystemConfig::with_coherence(CoherenceConfig::sharer_tracking());
    let mut b = SystemBuilder::new(cfg);
    b.with_trace(trace_from_args());
    b.add_cpu_thread(Box::new(Publisher::default()));
    b.add_wavefront(Box::new(Doubler::default()));
    let mut sys = b.build();
    let m = sys.run(10_000_000).expect("quickstart run completes");

    assert_eq!(sys.final_word(RESULT), 42, "the GPU saw the CPU's 21 and doubled it");
    println!("result               = {}", sys.final_word(RESULT));
    println!("simulated GPU cycles = {}", m.gpu_cycles);
    println!("directory probes     = {}", m.probes_sent);
    println!("memory reads/writes  = {}/{}", m.mem_reads, m.mem_writes);
    println!("\nIt works: a coherent CPU→GPU handoff through the simulated APU.");
}
