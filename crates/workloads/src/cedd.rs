//! `cedd` — Canny edge detection (CHAI).
//!
//! A four-stage CPU↔GPU pipeline over frames: gaussian smoothing (CPU),
//! gradient (GPU), non-maximum suppression (GPU), hysteresis (CPU). The
//! DMA engine stages input frames and publishes a per-frame ready flag
//! (exercising the Fig. 3 DMA paths); stages hand frames to each other
//! through flag and counter words — the coarse-grain task-parallel
//! producer/consumer pattern of the paper.

use hsc_cluster::{CoreProgram, CpuOp, DmaCommand, DmaScript, GpuOp, WavefrontProgram};
use hsc_core::{System, SystemBuilder};
use hsc_mem::{Addr, AtomicKind};
use hsc_sim::Tick;

use crate::util::{share, synth_value, CpuSpin, GpuSpin};
use crate::Workload;

const INPUT_BASE: u64 = 0x00A0_0000;
const BUF1_BASE: u64 = 0x00B0_0000;
const BUF2_BASE: u64 = 0x00C0_0000;
const BUF3_BASE: u64 = 0x00D0_0000;
const OUT_BASE: u64 = 0x00E0_0000;
/// Per-frame words: input_ready, flag1, done2, done3 (one line apart each).
const SYNC_BASE: u64 = 0x00F0_0000;

/// Configuration of the `cedd` benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Cedd {
    /// Number of frames.
    pub frames: u64,
    /// Pixels (64-bit words) per frame.
    pub pixels: u64,
    /// Stage-1/-4 CPU threads (each stage's frames are split among them).
    pub cpu_per_stage: usize,
    /// GPU wavefronts per GPU stage.
    pub wfs_per_stage: usize,
    /// Input seed.
    pub seed: u64,
    /// Gap between DMA frame arrivals, in ticks.
    pub frame_interval: u64,
}

impl Default for Cedd {
    fn default() -> Self {
        Cedd {
            frames: 8,
            pixels: 512,
            cpu_per_stage: 2,
            wfs_per_stage: 8,
            seed: 41,
            frame_interval: 50_000,
        }
    }
}

impl Cedd {
    fn input(&self, f: u64, p: u64) -> u64 {
        synth_value(self.seed ^ f, p)
    }

    fn s1(v: u64) -> u64 {
        v.wrapping_add(0x1111)
    }

    fn s2(v: u64) -> u64 {
        v.wrapping_mul(3)
    }

    fn s3(v: u64) -> u64 {
        v ^ 0x00FF_00FF
    }

    fn s4(v: u64) -> u64 {
        v >> 1
    }

    fn expected(&self, f: u64, p: u64) -> u64 {
        Self::s4(Self::s3(Self::s2(Self::s1(self.input(f, p)))))
    }

    fn frame_word(base: u64, f: u64, pixels: u64, p: u64) -> Addr {
        Addr(base).word(f * pixels + p)
    }

    fn input_ready(&self, f: u64) -> Addr {
        Addr(SYNC_BASE).word(f * 32)
    }

    fn flag1(&self, f: u64) -> Addr {
        Addr(SYNC_BASE).word(f * 32 + 8)
    }

    fn done2(&self, f: u64) -> Addr {
        Addr(SYNC_BASE).word(f * 32 + 16)
    }

    fn done3(&self, f: u64) -> Addr {
        Addr(SYNC_BASE).word(f * 32 + 24)
    }
}

// ---------------------------------------------------------------- stage 1

#[derive(Debug, Clone)]
enum S1State {
    NextFrame,
    WaitInput(u64),
    Load { f: u64, p: u64 },
    Transform { f: u64, p: u64 },
    Publish(u64),
}

/// CPU stage 1: waits for the DMA'd frame, applies the gaussian transform
/// pixel-by-pixel, then publishes `flag1`.
#[derive(Debug, Clone)]
struct Stage1 {
    bench: Cedd,
    frames: Vec<u64>,
    next: usize,
    state: S1State,
    spin: CpuSpin,
}

impl CoreProgram for Stage1 {
    fn next_op(&mut self, last: Option<u64>) -> CpuOp {
        loop {
            match self.state {
                S1State::NextFrame => {
                    let Some(&f) = self.frames.get(self.next) else {
                        return CpuOp::Done;
                    };
                    self.next += 1;
                    self.spin.reset(self.bench.input_ready(f));
                    self.state = S1State::WaitInput(f);
                }
                S1State::WaitInput(f) => {
                    if let Some(op) = self.spin.step(last, |v| v == 1) {
                        return op;
                    }
                    self.state = S1State::Load { f, p: 0 };
                }
                S1State::Load { f, p } => {
                    if p >= self.bench.pixels {
                        self.state = S1State::Publish(f);
                        continue;
                    }
                    self.state = S1State::Transform { f, p };
                    return CpuOp::Load(Cedd::frame_word(INPUT_BASE, f, self.bench.pixels, p));
                }
                S1State::Transform { f, p } => {
                    let v = last.expect("pixel load result");
                    self.state = S1State::Load { f, p: p + 1 };
                    return CpuOp::Store(
                        Cedd::frame_word(BUF1_BASE, f, self.bench.pixels, p),
                        Cedd::s1(v),
                    );
                }
                S1State::Publish(f) => {
                    self.state = S1State::NextFrame;
                    return CpuOp::Store(self.bench.flag1(f), 1);
                }
            }
        }
    }
}

// ------------------------------------------------------------ GPU stages

#[derive(Debug, Clone)]
enum GsState {
    NextFrame,
    Wait(u64),
    Acquire(u64),
    Load { f: u64, v: u64 },
    Store { f: u64, v: u64 },
    Release(u64),
    Bump(u64),
}

/// One GPU pipeline stage (used for both stage 2 and stage 3): waits for
/// the previous stage, transforms its slice of each frame vector-wise,
/// releases, then bumps the per-frame completion counter.
#[derive(Debug, Clone)]
struct GpuStage {
    bench: Cedd,
    /// Pixel slice [lo, hi) this wavefront owns in every frame.
    lo: u64,
    hi: u64,
    src: u64,
    dst: u64,
    wait_addr: fn(&Cedd, u64) -> Addr,
    wait_target: u64,
    bump_addr: fn(&Cedd, u64) -> Addr,
    transform: fn(u64) -> u64,
    values: fn(&Cedd, u64, u64) -> u64,
    f: u64,
    state: GsState,
    spin: GpuSpin,
}

impl WavefrontProgram for GpuStage {
    fn next_op(&mut self, last: Option<u64>) -> GpuOp {
        loop {
            match self.state {
                GsState::NextFrame => {
                    if self.f >= self.bench.frames || self.lo >= self.hi {
                        return GpuOp::Done;
                    }
                    let f = self.f;
                    self.spin.reset((self.wait_addr)(&self.bench, f));
                    self.state = GsState::Wait(f);
                }
                GsState::Wait(f) => {
                    let target = self.wait_target;
                    if let Some(op) = self.spin.step(last, |v| v >= target) {
                        return op;
                    }
                    self.state = GsState::Acquire(f);
                }
                GsState::Acquire(f) => {
                    self.state = GsState::Load { f, v: self.lo };
                    return GpuOp::Acquire;
                }
                GsState::Load { f, v } => {
                    if v >= self.hi {
                        self.state = GsState::Release(f);
                        continue;
                    }
                    let hi = (v + 16).min(self.hi);
                    self.state = GsState::Store { f, v };
                    return GpuOp::VecLoad(
                        (v..hi)
                            .map(|p| Cedd::frame_word(self.src, f, self.bench.pixels, p))
                            .collect(),
                    );
                }
                GsState::Store { f, v } => {
                    let hi = (v + 16).min(self.hi);
                    self.state = GsState::Load { f, v: hi };
                    // Lane values are deterministic given the stage's
                    // specification; compute and store the slice.
                    let stores = (v..hi)
                        .map(|p| {
                            let inv = (self.values)(&self.bench, f, p);
                            (
                                Cedd::frame_word(self.dst, f, self.bench.pixels, p),
                                (self.transform)(inv),
                            )
                        })
                        .collect();
                    return GpuOp::VecStore(stores);
                }
                GsState::Release(f) => {
                    self.state = GsState::Bump(f);
                    return GpuOp::Release;
                }
                GsState::Bump(f) => {
                    self.f += 1;
                    self.state = GsState::NextFrame;
                    return GpuOp::AtomicSlc(
                        (self.bump_addr)(&self.bench, f),
                        AtomicKind::FetchAdd(1),
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------- stage 4

#[derive(Debug, Clone)]
enum S4State {
    NextFrame,
    Wait(u64),
    Load { f: u64, p: u64 },
    Transform { f: u64, p: u64 },
}

/// CPU stage 4: waits for stage 3's completion counter, then writes the
/// final output.
#[derive(Debug, Clone)]
struct Stage4 {
    bench: Cedd,
    frames: Vec<u64>,
    next: usize,
    wfs: u64,
    state: S4State,
    spin: CpuSpin,
}

impl CoreProgram for Stage4 {
    fn next_op(&mut self, last: Option<u64>) -> CpuOp {
        loop {
            match self.state {
                S4State::NextFrame => {
                    let Some(&f) = self.frames.get(self.next) else {
                        return CpuOp::Done;
                    };
                    self.next += 1;
                    self.spin.reset(self.bench.done3(f));
                    self.state = S4State::Wait(f);
                }
                S4State::Wait(f) => {
                    let target = self.wfs;
                    if let Some(op) = self.spin.step(last, |v| v >= target) {
                        return op;
                    }
                    self.state = S4State::Load { f, p: 0 };
                }
                S4State::Load { f, p } => {
                    if p >= self.bench.pixels {
                        self.state = S4State::NextFrame;
                        continue;
                    }
                    self.state = S4State::Transform { f, p };
                    return CpuOp::Load(Cedd::frame_word(BUF3_BASE, f, self.bench.pixels, p));
                }
                S4State::Transform { f, p } => {
                    let v = last.expect("pixel load result");
                    self.state = S4State::Load { f, p: p + 1 };
                    return CpuOp::Store(
                        Cedd::frame_word(OUT_BASE, f, self.bench.pixels, p),
                        Cedd::s4(v),
                    );
                }
            }
        }
    }
}

impl Workload for Cedd {
    fn name(&self) -> &'static str {
        "cedd"
    }

    fn description(&self) -> &'static str {
        "Canny pipeline: DMA frames → CPU gaussian → GPU gradient → GPU nonmax → CPU hysteresis"
    }

    fn build(&self, b: &mut SystemBuilder) {
        // DMA: stage each frame, then its ready flag (commands execute in
        // order, so the flag implies the frame landed).
        let mut dma = Vec::new();
        for f in 0..self.frames {
            let words: Vec<u64> = (0..self.pixels).map(|p| self.input(f, p)).collect();
            let at = Tick(f * self.frame_interval);
            dma.push(DmaCommand::Write {
                base: Cedd::frame_word(INPUT_BASE, f, self.pixels, 0),
                words,
                at,
            });
            dma.push(DmaCommand::Write { base: self.input_ready(f), words: vec![1], at });
        }
        b.with_dma(Box::new(DmaScript::new(dma)));
        // Stage 1 and stage 4 CPU threads, frames round-robin.
        for t in 0..self.cpu_per_stage {
            let frames: Vec<u64> =
                (0..self.frames).filter(|f| (f % self.cpu_per_stage as u64) == t as u64).collect();
            b.add_cpu_thread(Box::new(Stage1 {
                bench: *self,
                frames: frames.clone(),
                next: 0,
                state: S1State::NextFrame,
                spin: CpuSpin::new(Addr(SYNC_BASE), 50),
            }));
            b.add_cpu_thread(Box::new(Stage4 {
                bench: *self,
                frames,
                next: 0,
                wfs: self.wfs_per_stage as u64,
                state: S4State::NextFrame,
                spin: CpuSpin::new(Addr(SYNC_BASE), 50),
            }));
        }
        // GPU stages 2 and 3: wavefronts split the pixel range.
        for w in 0..self.wfs_per_stage as u64 {
            let (lo, hi) = share(self.pixels, self.wfs_per_stage as u64, w);
            b.add_wavefront(Box::new(GpuStage {
                bench: *self,
                lo,
                hi,
                src: BUF1_BASE,
                dst: BUF2_BASE,
                wait_addr: Cedd::flag1,
                wait_target: 1,
                bump_addr: Cedd::done2,
                transform: Cedd::s2,
                values: |b, f, p| Cedd::s1(b.input(f, p)),
                f: 0,
                state: GsState::NextFrame,
                spin: GpuSpin::new(Addr(SYNC_BASE), 200),
            }));
            b.add_wavefront(Box::new(GpuStage {
                bench: *self,
                lo,
                hi,
                src: BUF2_BASE,
                dst: BUF3_BASE,
                wait_addr: Cedd::done2,
                wait_target: self.wfs_per_stage as u64,
                bump_addr: Cedd::done3,
                transform: Cedd::s3,
                values: |b, f, p| Cedd::s2(Cedd::s1(b.input(f, p))),
                f: 0,
                state: GsState::NextFrame,
                spin: GpuSpin::new(Addr(SYNC_BASE), 200),
            }));
        }
    }

    fn verify(&self, sys: &System) -> Result<(), String> {
        for f in 0..self.frames {
            for p in 0..self.pixels {
                let got = sys.final_word(Cedd::frame_word(OUT_BASE, f, self.pixels, p));
                let want = self.expected(f, p);
                if got != want {
                    return Err(format!("frame {f} pixel {p}: got {got:#x}, expected {want:#x}"));
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

    fn small() -> Cedd {
        Cedd {
            frames: 2,
            pixels: 96,
            cpu_per_stage: 1,
            wfs_per_stage: 2,
            seed: 7,
            frame_interval: 20_000,
        }
    }

    #[test]
    fn cedd_verifies_on_baseline() {
        let r =
            run_workload_on(&small(), SystemConfig::with_coherence(CoherenceConfig::baseline()));
        assert!(r.stats.get("dma.writes") > 0, "frames arrive by DMA");
    }

    #[test]
    fn cedd_verifies_on_tracking() {
        let _ = run_workload_on(
            &small(),
            SystemConfig::with_coherence(CoherenceConfig::sharer_tracking()),
        );
    }
}
