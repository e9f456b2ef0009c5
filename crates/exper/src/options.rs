//! Common experiment knobs.

use std::num::NonZeroUsize;

/// Options shared by every experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpOptions {
    /// Number of Monte-Carlo seeds per sweep point (the paper uses 50).
    pub seeds: u64,
    /// Worker threads fanning seeds out (default: `ESVM_THREADS`, else
    /// all cores; see [`threads_from`]).
    pub threads: usize,
    /// Quick mode shrinks VM counts (100–500 → 20–100) so the full
    /// figure set reproduces in seconds; used by tests and benches.
    pub quick: bool,
}

impl ExpOptions {
    /// The paper's configuration: 50 seeds, full VM counts.
    pub fn paper() -> Self {
        Self {
            seeds: 50,
            threads: default_threads(),
            quick: false,
        }
    }

    /// A fast smoke configuration: 6 seeds, scaled-down VM counts.
    pub fn quick() -> Self {
        Self {
            seeds: 6,
            threads: default_threads(),
            quick: true,
        }
    }

    /// Scales a paper VM count for quick mode (divides by 5).
    pub fn scale_vms(&self, paper_count: usize) -> usize {
        if self.quick {
            (paper_count / 5).max(10)
        } else {
            paper_count
        }
    }
}

impl Default for ExpOptions {
    fn default() -> Self {
        Self::paper()
    }
}

/// The seed fan-out thread count `ESVM_THREADS` selects; see
/// [`threads_from`].
///
/// # Errors
///
/// A usage message when the variable is set to a malformed value.
pub fn env_threads() -> Result<usize, String> {
    threads_from(std::env::var("ESVM_THREADS").ok().as_deref())
}

/// The default of [`ExpOptions::paper`] and [`ExpOptions::quick`].
/// They cannot fail, so a malformed `ESVM_THREADS` means all cores
/// here; the `esvm` CLI rejects it through [`env_threads`] before it
/// builds any options.
fn default_threads() -> usize {
    env_threads().unwrap_or_else(|_| all_cores())
}

/// The one `ESVM_THREADS` rule, factored out of the environment for
/// testability: unset or `0` means all cores, `N ≥ 1` pins the count,
/// and anything else is an error.
///
/// # Errors
///
/// A message naming the malformed value.
pub fn threads_from(env: Option<&str>) -> Result<usize, String> {
    let Some(value) = env else {
        return Ok(all_cores());
    };
    match value.trim().parse::<usize>() {
        Ok(0) => Ok(all_cores()),
        Ok(n) => Ok(n),
        Err(_) => Err(format!(
            "ESVM_THREADS must be a non-negative integer (0 = all cores), got {value:?}"
        )),
    }
}

fn all_cores() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let o = ExpOptions::paper();
        assert_eq!(o.seeds, 50);
        assert!(!o.quick);
        assert!(o.threads >= 1);
        assert_eq!(o.scale_vms(300), 300);
        assert_eq!(ExpOptions::default(), o);
    }

    #[test]
    fn esvm_threads_policy() {
        let all_cores = threads_from(None).unwrap();
        assert!(all_cores >= 1);
        assert_eq!(threads_from(Some("3")), Ok(3));
        assert_eq!(threads_from(Some(" 2 ")), Ok(2));
        assert_eq!(threads_from(Some("0")), Ok(all_cores));
        // Anything else is an error naming the value, never a silent
        // fallback.
        for bad in ["lots", "", "auto", "-2", "3.5", "4x"] {
            let err = threads_from(Some(bad)).unwrap_err();
            assert!(err.contains("ESVM_THREADS"), "{err}");
            assert!(err.contains(&format!("{bad:?}")), "{err}");
        }
    }

    #[test]
    fn quick_scales_down() {
        let o = ExpOptions::quick();
        assert!(o.quick);
        assert_eq!(o.scale_vms(100), 20);
        assert_eq!(o.scale_vms(500), 100);
        assert_eq!(o.scale_vms(20), 10); // floor
    }
}
