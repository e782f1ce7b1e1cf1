//! The crate's error type.
//!
//! Everything fallible in Grade10 is an input problem: logs that do not
//! balance, paths that do not resolve against the execution model,
//! malformed serialized artifacts. [`Grade10Error`] classifies them so
//! callers can distinguish "fix your log shipper" from "fix your model"
//! without parsing message strings — and, since real telemetry pipelines
//! damage data routinely, so callers can distinguish *recoverable* input
//! blemishes (retry in [`IngestMode::Lenient`](crate::trace::IngestMode))
//! from *fatal* modeling or environment problems.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Errors produced while ingesting Grade10's inputs. They serialize, so a
/// stage-cache record can hold the error a ladder rung returned.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Grade10Error {
    /// A log stream violated the event contract (unbalanced phases,
    /// duplicate starts, blocks without ends).
    MalformedLog(String),
    /// A phase path did not resolve against the execution model, or
    /// referenced a parent instance that was never logged.
    ModelMismatch(String),
    /// A trace failed structural validation (negative durations, dangling
    /// references).
    InvalidTrace(String),
    /// Monitoring data violated its contract (non-finite or negative
    /// utilization samples, out-of-order windows, non-positive capacity).
    InvalidMonitoring(String),
    /// A serialized artifact (model bundle, event file) failed to parse.
    Serialization(String),
    /// A supervised pipeline unit exceeded its wall-clock deadline: it
    /// stopped itself at a checkpoint, or its late result was discarded.
    Deadline(String),
    /// A requested timeslice grid exceeded the configured slice/allocation
    /// budget and was rejected before allocating.
    BudgetExceeded(String),
    /// A supervised pipeline unit panicked; the panic was captured and the
    /// rest of the pipeline continued.
    StagePanicked(String),
    /// The filesystem failed underneath a durable artifact (campaign
    /// journal, result store, report). Retrying the computation cannot
    /// help; the environment is broken.
    Io(String),
    /// A versioned durable artifact (campaign journal, binary trace) was
    /// written by a newer build than this one can read. Retrying cannot
    /// help; upgrade the reader or regenerate the artifact.
    UnsupportedVersion(String),
}

impl Grade10Error {
    /// The human-readable detail.
    pub fn detail(&self) -> &str {
        match self {
            Grade10Error::MalformedLog(s)
            | Grade10Error::ModelMismatch(s)
            | Grade10Error::InvalidTrace(s)
            | Grade10Error::InvalidMonitoring(s)
            | Grade10Error::Serialization(s)
            | Grade10Error::Deadline(s)
            | Grade10Error::BudgetExceeded(s)
            | Grade10Error::StagePanicked(s)
            | Grade10Error::Io(s)
            | Grade10Error::UnsupportedVersion(s) => s,
        }
    }

    /// True when re-running the same inputs under degraded settings
    /// ([`IngestMode::Lenient`](crate::trace::IngestMode) ingestion, a
    /// coarser timeslice, a supervised retry) can repair or route around
    /// the problem: damaged log streams, damaged monitoring, and supervised
    /// unit failures (deadline, budget, panic) are recoverable; a wrong
    /// execution model or an unparseable artifact is not.
    pub fn is_recoverable(&self) -> bool {
        match self {
            Grade10Error::MalformedLog(_)
            | Grade10Error::InvalidTrace(_)
            | Grade10Error::InvalidMonitoring(_)
            | Grade10Error::Deadline(_)
            | Grade10Error::BudgetExceeded(_)
            | Grade10Error::StagePanicked(_) => true,
            Grade10Error::ModelMismatch(_)
            | Grade10Error::Serialization(_)
            | Grade10Error::Io(_)
            | Grade10Error::UnsupportedVersion(_) => false,
        }
    }
}

impl fmt::Display for Grade10Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Grade10Error::MalformedLog(s) => write!(f, "malformed log: {s}"),
            Grade10Error::ModelMismatch(s) => write!(f, "model mismatch: {s}"),
            Grade10Error::InvalidTrace(s) => write!(f, "invalid trace: {s}"),
            Grade10Error::InvalidMonitoring(s) => write!(f, "invalid monitoring: {s}"),
            Grade10Error::Serialization(s) => write!(f, "serialization: {s}"),
            Grade10Error::Deadline(s) => write!(f, "deadline exceeded: {s}"),
            Grade10Error::BudgetExceeded(s) => write!(f, "budget exceeded: {s}"),
            Grade10Error::StagePanicked(s) => write!(f, "stage panicked: {s}"),
            Grade10Error::Io(s) => write!(f, "io: {s}"),
            Grade10Error::UnsupportedVersion(s) => write!(f, "unsupported version: {s}"),
        }
    }
}

impl std::error::Error for Grade10Error {}

impl From<Grade10Error> for String {
    fn from(e: Grade10Error) -> String {
        e.to_string()
    }
}

impl From<serde_json::Error> for Grade10Error {
    fn from(e: serde_json::Error) -> Grade10Error {
        Grade10Error::Serialization(e.to_string())
    }
}

impl From<std::io::Error> for Grade10Error {
    fn from(e: std::io::Error) -> Grade10Error {
        Grade10Error::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_prefixes_category() {
        let e = Grade10Error::MalformedLog("phase x never ended".into());
        assert_eq!(e.to_string(), "malformed log: phase x never ended");
        assert_eq!(e.detail(), "phase x never ended");
        let e = Grade10Error::InvalidMonitoring("negative sample".into());
        assert_eq!(e.to_string(), "invalid monitoring: negative sample");
    }

    #[test]
    fn is_a_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&Grade10Error::InvalidTrace("x".into()));
    }

    #[test]
    fn recoverability_classification() {
        assert!(Grade10Error::MalformedLog("x".into()).is_recoverable());
        assert!(Grade10Error::InvalidTrace("x".into()).is_recoverable());
        assert!(Grade10Error::InvalidMonitoring("x".into()).is_recoverable());
        assert!(!Grade10Error::ModelMismatch("x".into()).is_recoverable());
        assert!(!Grade10Error::Serialization("x".into()).is_recoverable());
        // Supervised unit failures can be retried under degraded settings.
        assert!(Grade10Error::Deadline("x".into()).is_recoverable());
        assert!(Grade10Error::BudgetExceeded("x".into()).is_recoverable());
        assert!(Grade10Error::StagePanicked("x".into()).is_recoverable());
        // A broken filesystem cannot be repaired by degraded re-runs.
        assert!(!Grade10Error::Io("disk full".into()).is_recoverable());
        // Neither can an artifact from a newer build.
        assert!(!Grade10Error::UnsupportedVersion("journal v9".into()).is_recoverable());
    }

    #[test]
    fn unsupported_version_displays() {
        let e = Grade10Error::UnsupportedVersion("journal is format version 9".into());
        assert_eq!(
            e.to_string(),
            "unsupported version: journal is format version 9"
        );
        assert_eq!(e.detail(), "journal is format version 9");
    }

    #[test]
    fn supervision_variants_display() {
        assert_eq!(
            Grade10Error::Deadline("unit ran 2s".into()).to_string(),
            "deadline exceeded: unit ran 2s"
        );
        assert_eq!(
            Grade10Error::BudgetExceeded("10M cells".into()).to_string(),
            "budget exceeded: 10M cells"
        );
        assert_eq!(
            Grade10Error::StagePanicked("index oob".into()).to_string(),
            "stage panicked: index oob"
        );
    }

    #[test]
    fn serde_json_errors_convert() {
        let err = serde_json::from_str::<u32>("not json").unwrap_err();
        let e: Grade10Error = err.into();
        assert!(matches!(e, Grade10Error::Serialization(_)));
        assert!(!e.is_recoverable());
    }
}
