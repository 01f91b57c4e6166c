use crate::Tick;

/// Renders one per-line trace record (`TraceConfig::line` in `hsc-core`
/// prints these to stderr): the tick in brackets, then the message.
///
/// # Examples
///
/// ```
/// use hsc_sim::{format_trace_line, Tick};
///
/// assert_eq!(format_trace_line(Tick(12), "dir: RdBlk A=0x40"), "[12t] dir: RdBlk A=0x40");
/// ```
#[must_use]
pub fn format_trace_line(now: Tick, line: &str) -> String {
    format!("[{now}] {line}")
}
