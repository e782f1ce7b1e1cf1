//! Execution and resource traces: what one workload run looked like.

pub mod binary;
pub mod execution;
pub mod repair;
pub mod resource;
pub mod timeslice;

pub use binary::{
    decode_trace, encode_trace, read_trace_file, read_trace_streams, write_trace_file, BinaryTrace,
};
pub use execution::{BlockingEvent, ExecutionTrace, InstanceId, PhaseInstance, TraceBuilder};
pub use repair::{
    ingest, ingest_monitoring, repair_events, IngestConfig, IngestMode, IngestReport,
    IngestedInput, RawSeries,
};
pub use resource::{Measurement, ResourceIdx, ResourceInstance, ResourceTrace};
pub use timeslice::{BoolGrid, Grid, MetricGrid, Nanos, Rows, RowsMut, TimesliceGrid, MILLIS};
