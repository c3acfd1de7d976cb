//! Error type of the simulator.

use std::error::Error;
use std::fmt;

/// Errors produced while configuring or driving a simulation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// A control command referenced a core the device does not have.
    NoSuchCore {
        /// The requested core index.
        core: usize,
        /// Number of cores in the device.
        n_cores: usize,
    },
    /// An unknown sysfs path was read or written.
    NoSuchAttribute {
        /// The offending path.
        path: String,
    },
    /// A sysfs attribute is read-only.
    ReadOnlyAttribute {
        /// The offending path.
        path: String,
    },
    /// A sysfs write carried an unparsable value.
    InvalidValue {
        /// The offending path.
        path: String,
        /// The rejected value.
        value: String,
    },
    /// An adb-style shell command could not be parsed.
    BadShellCommand {
        /// The command line.
        line: String,
    },
    /// The simulation was configured with a zero duration or tick.
    BadConfig {
        /// Human-readable reason.
        reason: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::NoSuchCore { core, n_cores } => {
                write!(f, "core {core} does not exist (device has {n_cores})")
            }
            SimError::NoSuchAttribute { path } => write!(f, "no sysfs attribute at {path}"),
            SimError::ReadOnlyAttribute { path } => {
                write!(f, "sysfs attribute {path} is read-only")
            }
            SimError::InvalidValue { path, value } => {
                write!(f, "invalid value {value:?} for {path}")
            }
            SimError::BadShellCommand { line } => write!(f, "cannot parse shell command {line:?}"),
            SimError::BadConfig { reason } => write!(f, "bad simulation config: {reason}"),
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty() {
        let errs = vec![
            SimError::NoSuchCore {
                core: 7,
                n_cores: 4,
            },
            SimError::NoSuchAttribute { path: "/x".into() },
            SimError::ReadOnlyAttribute { path: "/x".into() },
            SimError::InvalidValue {
                path: "/x".into(),
                value: "y".into(),
            },
            SimError::BadShellCommand { line: "z".into() },
            SimError::BadConfig {
                reason: "zero tick".into(),
            },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimError>();
    }
}
