//! Measurement and statistics substrate for the DJ Star reproduction.
//!
//! The paper's evaluation (§VI) is built on four kinds of artifacts:
//!
//! * average response times per strategy and thread count (Table I),
//! * speedups relative to the sequential baseline (Fig. 8),
//! * execution-time histograms and cumulative histograms over 10 000
//!   audio-processing cycles (Figs. 9 and 10),
//! * deadline-miss counts against the 2.9 ms sound-card budget.
//!
//! This crate provides exactly those building blocks: [`Summary`] for moment
//! statistics and percentiles, [`Histogram`] with cumulative views,
//! [`SpeedupTable`] for strategy × thread-count matrices,
//! [`DeadlineTracker`] for miss accounting, and plain-text renderers
//! ([`render`]) used by every harness binary so figures can be regenerated on
//! a terminal without a plotting stack. Beside them sit the telemetry
//! aggregate ([`TelemetryReport`]), causal miss forensics ([`analyze_miss`])
//! and the Chrome-trace exporter for flight-recorder windows
//! ([`window_to_ctf`]).

pub mod ctf;
pub mod deadline;
pub mod forensics;
pub mod histogram;
pub mod json;
pub mod online;
pub mod render;
pub mod speedup;
pub mod summary;
pub mod telemetry;

pub use ctf::{window_from_ctf, window_to_ctf};
pub use deadline::DeadlineTracker;
pub use forensics::{analyze_miss, BlameBreakdown, MissContext, MissDossier, PathSlice, SliceKind};
pub use histogram::{CumulativeView, Histogram};
pub use json::Json;
pub use online::OnlineStats;
pub use speedup::SpeedupTable;
pub use summary::Summary;
pub use telemetry::TelemetryReport;
