//! The exactness oracle. GPH promises the exact answer of a linear scan,
//! so every answer the benchmark receives is compared id for id with
//! the truth it computed beforehand; one difference fails the run.

use std::fmt;

/// A wrong answer, naming the workload and the operation that got it.
#[derive(Debug)]
pub struct Mismatch {
    pub workload: String,
    pub op: String,
    pub detail: String,
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wrong answer on workload {} at {}: {}", self.workload, self.op, self.detail)
    }
}

/// Checks ascending `got` against ascending `want`; the error names
/// the first id that is missing or should not be there.
pub fn check(got: &[u32], want: &[u32]) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    let missing = want.iter().find(|id| got.binary_search(id).is_err());
    let extra = got.iter().find(|id| want.binary_search(id).is_err());
    Err(match (missing, extra) {
        (Some(id), _) => format!("id {id} missing ({} ids, want {})", got.len(), want.len()),
        (None, Some(id)) => {
            format!("id {id} not in the answer ({} ids, want {})", got.len(), want.len())
        }
        (None, None) => format!("ids out of order or repeated: got {got:?}, want {want:?}"),
    })
}

/// Why a run produced no result.
pub enum Failure {
    /// An answer differed from the truth.
    Wrong(Mismatch),
    /// Something else went wrong: an error, a refused operation where
    /// none may be refused, or a guard that found the workload invalid.
    Broken(String),
}

impl From<String> for Failure {
    fn from(e: String) -> Self {
        Failure::Broken(e)
    }
}

impl From<Mismatch> for Failure {
    fn from(m: Mismatch) -> Self {
        Failure::Wrong(m)
    }
}

/// [`check`], turned into a [`Mismatch`] for `workload` and `op`.
pub fn expect(
    workload: &str,
    op: impl FnOnce() -> String,
    got: &[u32],
    want: &[u32],
) -> Result<(), Mismatch> {
    check(got, want).map_err(|detail| Mismatch { workload: workload.to_string(), op: op(), detail })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_the_exact_answer() {
        assert!(check(&[], &[]).is_ok());
        assert!(check(&[3, 9, 40], &[3, 9, 40]).is_ok());
    }

    #[test]
    fn rejects_one_injected_id() {
        let err = check(&[3, 7, 9, 40], &[3, 9, 40]).unwrap_err();
        assert!(err.contains("id 7"), "{err}");
        assert!(check(&[5], &[]).is_err());
    }

    #[test]
    fn rejects_one_removed_id() {
        let err = check(&[3, 40], &[3, 9, 40]).unwrap_err();
        assert!(err.contains("id 9 missing"), "{err}");
        assert!(check(&[], &[1]).is_err());
    }

    #[test]
    fn rejects_a_repeated_id_and_names_the_operation() {
        assert!(check(&[3, 3, 9], &[3, 9]).is_err());
        let m = expect("probe-heavy", || "search #12".into(), &[1], &[2]).unwrap_err();
        let text = m.to_string();
        assert!(text.contains("probe-heavy") && text.contains("search #12"), "{text}");
    }
}
