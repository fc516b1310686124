//! Error types shared across the core crate.
//!
//! The numerics layer reports the workspace-wide [`SwlbError`] (defined in
//! `swlb-obs`, the crate everything depends on) directly: [`CoreError`] is its
//! name inside this crate, so `CoreError::InvalidDims(..)` and a top-level
//! driver's `SwlbError::InvalidDims(..)` are one value of one type and `?`
//! needs no conversion between layers.

pub use swlb_obs::{SwlbError, SwlbResult};

/// The error of fallible core APIs: the workspace error under its local name.
pub type CoreError = SwlbError;

/// Result alias used by fallible core APIs.
pub type Result<T> = std::result::Result<T, CoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = CoreError::LengthMismatch { got: 3, expected: 9 };
        assert!(e.to_string().contains("got 3"));
        assert!(e.to_string().contains("expected 9"));
        let e = CoreError::Diverged { step: 42 };
        assert!(e.to_string().contains("42"));
    }

    #[test]
    fn errors_are_cloneable_and_comparable() {
        let a = CoreError::InvalidDims("nx=0".into());
        let b = a.clone();
        assert_eq!(a, b);
    }

    #[test]
    fn core_errors_convert_to_workspace_errors() {
        // One type under two names: `?` from a core API into a workspace
        // driver is the identity, structured payloads included.
        fn through_question_mark(e: CoreError) -> std::result::Result<(), SwlbError> {
            Err(e)?
        }
        assert_eq!(
            through_question_mark(CoreError::Diverged { step: 7 }),
            Err(SwlbError::Diverged { step: 7 })
        );
        assert_eq!(
            through_question_mark(CoreError::LengthMismatch { got: 1, expected: 2 }),
            Err(SwlbError::LengthMismatch { got: 1, expected: 2 })
        );
    }
}
