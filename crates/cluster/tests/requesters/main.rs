//! The paper's three requesters — the CorePair's MOESI L2, the GPU's VIPER
//! TCC and the DMA engine — tested on their own, without the real
//! directory. Every test answers their requests through one stub directory,
//! [`stub::reply`], run by one pump, [`stub::pump`], or by a driver of its
//! own where it plays the directory by hand or injects wakes.

mod corepair;
mod dma;
mod gpu;
mod protocol_edges;
mod spurious_wakes;
mod stub;
