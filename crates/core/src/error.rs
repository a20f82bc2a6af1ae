//! Protocol-level error type.

use std::fmt;

use cloudprov_cloud::CloudError;
use cloudprov_pass::wire::WireError;

/// Errors surfaced by the storage protocols.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ProtocolError {
    /// An underlying cloud-service error (after retries were exhausted).
    Cloud(CloudError),
    /// Provenance bytes failed to decode.
    Wire(WireError),
    /// The injected crash plan stopped the client mid-protocol. Used by
    /// the fault-injection tests to cut a flush at a step boundary.
    Crashed {
        /// The step at which the client died.
        step: String,
    },
    /// An object was read but its provenance could not be located (a
    /// data-coupling or persistence violation surfaced to the caller).
    MissingProvenance {
        /// The object key whose provenance is missing.
        key: String,
        /// Human-readable reason.
        reason: String,
    },
    /// A commit-daemon operation could not complete within its retry
    /// budget (e.g. a temp object never became visible).
    CommitStalled(String),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Cloud(e) => write!(f, "cloud service error: {e}"),
            ProtocolError::Wire(e) => write!(f, "{e}"),
            ProtocolError::Crashed { step } => write!(f, "client crashed at step '{step}'"),
            ProtocolError::MissingProvenance { key, reason } => {
                write!(f, "provenance missing for '{key}': {reason}")
            }
            ProtocolError::CommitStalled(msg) => write!(f, "commit stalled: {msg}"),
        }
    }
}

impl std::error::Error for ProtocolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtocolError::Cloud(e) => Some(e),
            ProtocolError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CloudError> for ProtocolError {
    fn from(e: CloudError) -> Self {
        ProtocolError::Cloud(e)
    }
}

impl From<WireError> for ProtocolError {
    fn from(e: WireError) -> Self {
        ProtocolError::Wire(e)
    }
}

/// Result alias for protocol operations.
pub type Result<T> = std::result::Result<T, ProtocolError>;

/// The one error type surfaced by the [`ProvenanceClient`] facade.
///
/// Callers of the session API handle this single enum instead of
/// juggling [`ProtocolError`], [`CloudError`] and [`WireError`];
/// the `From` impls flatten nested protocol errors so a cloud failure
/// is always [`ClientError::Cloud`] no matter which layer raised it.
///
/// [`ProvenanceClient`]: crate::ProvenanceClient
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ClientError {
    /// A protocol-level failure (crash injection, stalled commit,
    /// missing provenance).
    Protocol(ProtocolError),
    /// A cloud-service failure that survived retries.
    Cloud(CloudError),
    /// Provenance bytes failed to decode.
    Wire(WireError),
    /// A query was requested from a protocol that stores no queryable
    /// provenance (the S3fs baseline).
    NoProvenanceStore {
        /// The protocol's display name.
        protocol: &'static str,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Protocol(e) => write!(f, "{e}"),
            ClientError::Cloud(e) => write!(f, "cloud service error: {e}"),
            ClientError::Wire(e) => write!(f, "{e}"),
            ClientError::NoProvenanceStore { protocol } => {
                write!(f, "{protocol} stores no queryable provenance")
            }
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Protocol(e) => Some(e),
            ClientError::Cloud(e) => Some(e),
            ClientError::Wire(e) => Some(e),
            ClientError::NoProvenanceStore { .. } => None,
        }
    }
}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> Self {
        match e {
            ProtocolError::Cloud(c) => ClientError::Cloud(c),
            ProtocolError::Wire(w) => ClientError::Wire(w),
            other => ClientError::Protocol(other),
        }
    }
}

impl From<CloudError> for ClientError {
    fn from(e: CloudError) -> Self {
        ClientError::Cloud(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// Result alias for facade operations.
pub type ClientResult<T> = std::result::Result<T, ClientError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_carry_context() {
        let e = ProtocolError::MissingProvenance {
            key: "data/foo".into(),
            reason: "no provenance object".into(),
        };
        assert!(e.to_string().contains("data/foo"));
        let e = ProtocolError::Crashed {
            step: "p3:log:2".into(),
        };
        assert!(e.to_string().contains("p3:log:2"));
    }

    #[test]
    fn cloud_errors_convert() {
        let e: ProtocolError = CloudError::NoSuchDomain("d".into()).into();
        assert!(matches!(e, ProtocolError::Cloud(_)));
    }

    #[test]
    fn client_error_flattens_nested_cloud_errors() {
        let nested: ClientError = ProtocolError::Cloud(CloudError::NoSuchDomain("d".into())).into();
        assert!(matches!(nested, ClientError::Cloud(_)));
        let direct: ClientError = CloudError::NoSuchDomain("d".into()).into();
        assert_eq!(nested, direct);
        let kept: ClientError = ProtocolError::Crashed { step: "s".into() }.into();
        assert!(matches!(kept, ClientError::Protocol(_)));
    }

    #[test]
    fn client_error_displays_carry_context() {
        let e = ClientError::NoProvenanceStore { protocol: "S3fs" };
        assert!(e.to_string().contains("S3fs"));
    }
}
