//! # icicle-perf
//!
//! The perf-like software harness of §IV-D: programs the HPM counters
//! through the CSR file's four-step M-mode sequence, drives a core to
//! completion, reads the counters back, and applies the TMA model — one
//! call stands in for the paper's FireMarshal/OpenSBI wrapper plus
//! `tma_tool`.
//!
//! ```no_run
//! use icicle_boom::{Boom, BoomConfig};
//! use icicle_perf::Perf;
//! use icicle_workloads::micro;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let w = micro::mergesort(1 << 10);
//! let mut core = Boom::new(BoomConfig::large(), w.execute()?, w.program().clone());
//! let report = Perf::new().run(&mut core)?;
//! println!("{report}");
//! println!("dominant: {:?}", report.tma.top.dominant());
//! # Ok(())
//! # }
//! ```

mod error;
mod profile;
mod report;
mod session;

pub use error::PerfError;
pub use profile::{Profile, ProfileEntry, Profiler};
pub use report::PerfReport;
pub use session::{CounterSession, MultiplexOptions, Perf, PerfOptions, SkipPolicy};
