//! Minimal argument-parsing helpers shared by the workspace's binaries
//! (`repro` and `bro_tool`).
//!
//! The binaries hand-roll their flag loops (the workspace deliberately
//! carries no argument-parsing dependency); these helpers centralize the
//! failure paths so every malformed invocation exits non-zero with a
//! message — and, where usage text is supplied, with the list of valid
//! choices. [`install_threads`] is the single place the shared `--threads`
//! flag is turned into a rayon global pool bound, so every binary gets the
//! same semantics: `--threads 1` reproduces serial execution exactly.

use std::fmt::Display;
use std::str::FromStr;

/// Prints `error: <msg>` to stderr and exits with status 2.
pub fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Like [`die`], but follows the message with usage text (e.g. the list
/// of valid experiments or subcommands).
pub fn die_usage(msg: &str, usage: &str) -> ! {
    eprintln!("error: {msg}\n\n{usage}");
    std::process::exit(2);
}

/// Pulls the value following a `--flag`, dying when it is missing.
pub fn flag_value<'a, I: Iterator<Item = &'a String>>(it: &mut I, flag: &str) -> &'a str {
    match it.next() {
        Some(v) => v.as_str(),
        None => die(&format!("{flag} needs a value")),
    }
}

/// Most `--threads` per available core. Each parallel call starts up to
/// that many OS threads, so an unbounded value could start thousands.
const MAX_THREADS_PER_CORE: usize = 4;

/// Checks a `--threads` value against `cores` available cores: at most
/// 4 × `cores` (`0`, "auto", always passes).
pub fn check_threads(threads: usize, cores: usize) -> Result<(), String> {
    let max = MAX_THREADS_PER_CORE.saturating_mul(cores);
    if threads > max {
        return Err(format!(
            "--threads {threads} is above {max} ({MAX_THREADS_PER_CORE} per available core, \
             {cores} cores)"
        ));
    }
    Ok(())
}

/// Installs the worker-thread bound parsed from a `--threads N` flag as
/// the process-global rayon default. `0` means "auto" (all available
/// cores, rayon's own default) and leaves the pool untouched; `1` forces
/// fully serial execution everywhere, including nested parallel regions.
/// Dies (exit 2) on a bound that [`check_threads`] rejects.
pub fn install_threads(threads: usize) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    check_threads(threads, cores).unwrap_or_else(|e| die(&e));
    if threads == 0 {
        return;
    }
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build_global()
        .unwrap_or_else(|e| die(&format!("--threads: could not configure thread pool: {e}")));
}

/// The effective worker-thread count after [`install_threads`] (for banners).
pub fn effective_threads() -> usize {
    rayon::current_num_threads()
}

/// Pulls and parses the value following a `--flag`, dying with the parse
/// error when it is malformed.
pub fn parse_flag<'a, T, I>(it: &mut I, flag: &str) -> T
where
    T: FromStr,
    T::Err: Display,
    I: Iterator<Item = &'a String>,
{
    let raw = flag_value(it, flag);
    match raw.parse::<T>() {
        Ok(v) => v,
        Err(e) => die(&format!("{flag}: invalid value '{raw}': {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(raw: &[&str]) -> Vec<String> {
        raw.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flag_value_returns_next() {
        let args = strings(&["0.5", "rest"]);
        let mut it = args.iter();
        assert_eq!(flag_value(&mut it, "--scale"), "0.5");
        assert_eq!(it.next().map(String::as_str), Some("rest"));
    }

    #[test]
    fn parse_flag_parses_numbers() {
        let args = strings(&["0.25"]);
        let mut it = args.iter();
        let v: f64 = parse_flag(&mut it, "--scale");
        assert_eq!(v, 0.25);
    }

    #[test]
    fn threads_are_capped_per_core() {
        assert!(check_threads(0, 1).is_ok());
        assert!(check_threads(4, 1).is_ok());
        assert!(check_threads(8, 2).is_ok());
        let err = check_threads(9, 2).unwrap_err();
        assert!(err.contains("--threads 9 is above 8"), "{err}");
        assert!(check_threads(100_000, 64).is_err());
        assert!(check_threads(usize::MAX, usize::MAX).is_ok());
    }

    #[test]
    fn install_threads_zero_is_auto_and_bound_sticks() {
        install_threads(0);
        let auto = effective_threads();
        assert!(auto >= 1);
        install_threads(3);
        assert_eq!(effective_threads(), 3);
        // Reset to auto so other tests in this binary see the default.
        rayon::ThreadPoolBuilder::new().build_global().unwrap();
        assert_eq!(effective_threads(), auto);
    }
}
