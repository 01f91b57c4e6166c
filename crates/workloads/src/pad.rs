//! `pad` — in-place array padding (CHAI).
//!
//! A dense `rows × cols` matrix is expanded in place to `rows × (cols +
//! pad)` with zero padding, processed from the last row to the first
//! (expansion moves data to higher addresses, so backward order is safe).
//! Partitions are processed by different workers (GPU wavefronts own the
//! top partitions, CPU threads the bottom), and a worker may only start
//! once its upper neighbour has finished consuming its source region —
//! the adjacent-partition flag synchronization the paper highlights.

use hsc_cluster::{CoreProgram, CpuOp, GpuOp, WavefrontProgram};
use hsc_core::{System, SystemBuilder};
use hsc_mem::{Addr, AtomicKind};

use crate::util::{share, synth_value, CpuSpin, GpuSpin};
use crate::Workload;

const ARRAY_BASE: u64 = 0x0100_0000;
const FLAGS_BASE: u64 = 0x010F_0000;

/// Configuration of the `pad` benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Pad {
    /// Matrix rows.
    pub rows: u64,
    /// Dense columns (≤ 16 so one row is one vector load).
    pub cols: u64,
    /// Padding columns appended to each row.
    pub pad: u64,
    /// CPU threads (bottom partitions).
    pub cpu_threads: usize,
    /// GPU wavefronts (top partitions).
    pub wavefronts: usize,
    /// Input seed.
    pub seed: u64,
}

impl Default for Pad {
    fn default() -> Self {
        Pad { rows: 256, cols: 16, pad: 8, cpu_threads: 8, wavefronts: 8, seed: 59 }
    }
}

impl Pad {
    fn input(&self, i: u64) -> u64 {
        synth_value(self.seed, i) | 1
    }

    fn src_word(&self, r: u64, c: u64) -> Addr {
        Addr(ARRAY_BASE).word(r * self.cols + c)
    }

    fn dst_word(&self, r: u64, c: u64) -> Addr {
        Addr(ARRAY_BASE).word(r * (self.cols + self.pad) + c)
    }

    fn workers(&self) -> u64 {
        (self.cpu_threads + self.wavefronts) as u64
    }

    fn flag_addr(&self, w: u64) -> Addr {
        Addr(FLAGS_BASE).word(w * 8)
    }
}

#[derive(Debug, Clone)]
enum CpuState {
    WaitNeighbour,
    NextRow,
    LoadCol { r: u64, c: u64 },
    Collect { r: u64, c: u64 },
    StoreRow { r: u64, c: u64 },
    ZeroPad { r: u64, c: u64 },
    Signal,
    Finished,
}

#[derive(Debug, Clone)]
struct CpuWorker {
    bench: Pad,
    w: u64,
    /// Next row to process (descending); `None` when the partition is done.
    r: Option<u64>,
    lo: u64,
    row_buf: Vec<u64>,
    state: CpuState,
    spin: CpuSpin,
    has_neighbour: bool,
}

impl CoreProgram for CpuWorker {
    fn next_op(&mut self, last: Option<u64>) -> CpuOp {
        loop {
            match self.state {
                CpuState::WaitNeighbour => {
                    if self.has_neighbour {
                        if let Some(op) = self.spin.step(last, |v| v == 1) {
                            return op;
                        }
                    }
                    self.state = CpuState::NextRow;
                }
                CpuState::NextRow => {
                    let Some(r) = self.r else {
                        self.state = CpuState::Signal;
                        continue;
                    };
                    self.row_buf.clear();
                    self.state = CpuState::LoadCol { r, c: 0 };
                }
                CpuState::LoadCol { r, c } => {
                    if c >= self.bench.cols {
                        self.state = CpuState::StoreRow { r, c: 0 };
                        continue;
                    }
                    self.state = CpuState::Collect { r, c };
                    return CpuOp::Load(self.bench.src_word(r, c));
                }
                CpuState::Collect { r, c } => {
                    self.row_buf.push(last.expect("column load result"));
                    self.state = CpuState::LoadCol { r, c: c + 1 };
                }
                CpuState::StoreRow { r, c } => {
                    if c >= self.bench.cols {
                        self.state = CpuState::ZeroPad { r, c: 0 };
                        continue;
                    }
                    let v = self.row_buf[c as usize];
                    self.state = CpuState::StoreRow { r, c: c + 1 };
                    return CpuOp::Store(self.bench.dst_word(r, c), v);
                }
                CpuState::ZeroPad { r, c } => {
                    if c >= self.bench.pad {
                        self.r = if r == self.lo { None } else { Some(r - 1) };
                        self.state = CpuState::NextRow;
                        continue;
                    }
                    self.state = CpuState::ZeroPad { r, c: c + 1 };
                    return CpuOp::Store(self.bench.dst_word(r, self.bench.cols + c), 0);
                }
                CpuState::Signal => {
                    self.state = CpuState::Finished;
                    return CpuOp::Store(self.bench.flag_addr(self.w), 1);
                }
                CpuState::Finished => return CpuOp::Done,
            }
        }
    }
}

#[derive(Debug, Clone)]
enum GpuState {
    WaitNeighbour,
    NextRow,
    LoadRow(u64),
    StoreData(u64),
    StorePad(u64),
    Release,
    Signal,
    Finished,
}

#[derive(Debug, Clone)]
struct GpuWorker {
    bench: Pad,
    w: u64,
    r: Option<u64>,
    lo: u64,
    state: GpuState,
    spin: GpuSpin,
    has_neighbour: bool,
}

impl WavefrontProgram for GpuWorker {
    fn next_op(&mut self, last: Option<u64>) -> GpuOp {
        loop {
            match self.state {
                GpuState::WaitNeighbour => {
                    if self.has_neighbour {
                        if let Some(op) = self.spin.step(last, |v| v == 1) {
                            return op;
                        }
                    }
                    self.state = GpuState::NextRow;
                }
                GpuState::NextRow => {
                    let Some(r) = self.r else {
                        self.state = GpuState::Release;
                        continue;
                    };
                    self.state = GpuState::LoadRow(r);
                }
                GpuState::LoadRow(r) => {
                    self.state = GpuState::StoreData(r);
                    return GpuOp::VecLoad(
                        (0..self.bench.cols).map(|c| self.bench.src_word(r, c)).collect(),
                    );
                }
                GpuState::StoreData(r) => {
                    self.state = GpuState::StorePad(r);
                    // The source row still holds the original input (only
                    // rows above have moved), so lane values are known.
                    let stores = (0..self.bench.cols)
                        .map(|c| {
                            (self.bench.dst_word(r, c), self.bench.input(r * self.bench.cols + c))
                        })
                        .collect();
                    return GpuOp::VecStore(stores);
                }
                GpuState::StorePad(r) => {
                    self.r = if r == self.lo { None } else { Some(r - 1) };
                    self.state = GpuState::NextRow;
                    let stores = (0..self.bench.pad)
                        .map(|c| (self.bench.dst_word(r, self.bench.cols + c), 0))
                        .collect();
                    return GpuOp::VecStore(stores);
                }
                GpuState::Release => {
                    self.state = GpuState::Signal;
                    return GpuOp::Release;
                }
                GpuState::Signal => {
                    self.state = GpuState::Finished;
                    return GpuOp::AtomicSlc(self.bench.flag_addr(self.w), AtomicKind::Exchange(1));
                }
                GpuState::Finished => return GpuOp::Done,
            }
        }
    }
}

impl Workload for Pad {
    fn name(&self) -> &'static str {
        "pad"
    }

    fn description(&self) -> &'static str {
        "in-place padding: partitioned rows, adjacent-partition flag sync, CPU bottom / GPU top"
    }

    fn build(&self, b: &mut SystemBuilder) {
        assert!(self.cols <= 16, "a row must fit one vector op");
        assert!(self.pad <= 16, "padding must fit one vector op");
        b.init_words((0..self.rows * self.cols).map(|i| (Addr(ARRAY_BASE).word(i), self.input(i))));
        let workers = self.workers();
        // Worker ids: 0..cpu_threads are CPU (bottom rows), then GPU (top).
        // Higher workers own higher rows and must finish first.
        for t in 0..self.cpu_threads as u64 {
            let (lo, hi) = share(self.rows, workers, t);
            b.add_cpu_thread(Box::new(CpuWorker {
                bench: *self,
                w: t,
                r: if lo < hi { Some(hi - 1) } else { None },
                lo,
                row_buf: Vec::new(),
                state: CpuState::WaitNeighbour,
                spin: CpuSpin::new(self.flag_addr(t + 1), 60),
                has_neighbour: t + 1 < workers,
            }));
        }
        for g in 0..self.wavefronts as u64 {
            let w = self.cpu_threads as u64 + g;
            let (lo, hi) = share(self.rows, workers, w);
            b.add_wavefront(Box::new(GpuWorker {
                bench: *self,
                w,
                r: if lo < hi { Some(hi - 1) } else { None },
                lo,
                state: GpuState::WaitNeighbour,
                spin: GpuSpin::new(self.flag_addr(w + 1), 300),
                has_neighbour: w + 1 < workers,
            }));
        }
    }

    fn verify(&self, sys: &System) -> Result<(), String> {
        for r in 0..self.rows {
            for c in 0..self.cols {
                let got = sys.final_word(self.dst_word(r, c));
                let want = self.input(r * self.cols + c);
                if got != want {
                    return Err(format!("row {r} col {c}: got {got}, expected {want}"));
                }
            }
            for c in 0..self.pad {
                let got = sys.final_word(self.dst_word(r, self.cols + c));
                if got != 0 {
                    return Err(format!("row {r} pad {c}: got {got}, expected 0"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_workload_on;
    use hsc_core::{CoherenceConfig, SystemConfig};

    fn small() -> Pad {
        Pad { rows: 32, cols: 12, pad: 4, cpu_threads: 4, wavefronts: 4, seed: 3 }
    }

    #[test]
    fn pad_verifies_on_baseline() {
        let _ =
            run_workload_on(&small(), SystemConfig::with_coherence(CoherenceConfig::baseline()));
    }

    #[test]
    fn pad_verifies_on_llc_write_back() {
        let _ = run_workload_on(
            &small(),
            SystemConfig::with_coherence(CoherenceConfig::llc_write_back_l3_on_wt()),
        );
    }
}
