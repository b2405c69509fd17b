//! # plugvolt-msr
//!
//! Model-specific-register device model for the *Plug Your Volt*
//! (DAC 2024) reproduction: the software-visible interface through which
//! both the DVFS fault attacks and the countermeasure operate.
//!
//! - [`addr`] — the register addresses ([`addr::Msr`]);
//! - [`oc_mailbox`] — MSR 0x150, the overclocking-mailbox voltage-offset
//!   interface (the paper's Table 1 and Algorithm 1), including the
//!   per-plane offset encoding abused by Plundervolt/V0LTpwn;
//! - [`perf_status`] — MSR 0x198/0x199, the frequency/voltage status the
//!   countermeasure polls and the cpufreq control register;
//! - [`offset_limit`] — the hypothetical `MSR_VOLTAGE_OFFSET_LIMIT`
//!   hardware clamp, with the `MSR_DRAM_POWER_INFO` floor semantics
//!   Sec. 5.2 borrows;
//! - [`mod@file`] — the register file with `#GP` semantics; the Sec. 5
//!   write gates on 0x150 sit in the CPU package's `wrmsr`.
//!
//! # Examples
//!
//! Encode the paper's canonical undervolt request:
//!
//! ```
//! use plugvolt_msr::oc_mailbox::{encode_offset_request, OcRequest, Plane};
//!
//! // Algorithm 1 from the paper and the typed API agree bit-for-bit:
//! let raw = encode_offset_request(-150, 0);
//! assert_eq!(raw, OcRequest::write_offset(-150, Plane::Core).encode());
//! ```

#![warn(missing_docs)]

pub mod addr;
pub mod file;
pub mod oc_mailbox;
pub mod offset_limit;
pub mod perf_status;

/// Convenient glob-import of the commonly used names.
pub mod prelude {
    pub use crate::addr::Msr;
    pub use crate::file::{MsrError, MsrFile, WriteOutcome};
    pub use crate::oc_mailbox::{OcRequest, Plane};
    pub use crate::offset_limit::VoltageOffsetLimit;
    pub use crate::perf_status::PerfStatus;
}
