//! `esvm` — reproduce the tables and figures of Xie et al. (ICDCSW
//! 2013) from the command line. Run `esvm` with no arguments for usage.

use std::io::{self, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match esvm_exper::cli::run(&args) {
        Ok(output) => match emit(&mut io::stdout().lock(), &output) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("cannot write the output: {e}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// Writes `output` and a newline to `out`. A reader that closes the
/// pipe early (`esvm all | head`) wants no more output, so a broken
/// pipe ends the write quietly instead of failing.
fn emit(out: &mut impl Write, output: &str) -> io::Result<()> {
    let written = out
        .write_all(output.as_bytes())
        .and_then(|()| out.write_all(b"\n"))
        .and_then(|()| out.flush());
    match written {
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => Ok(()),
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A writer whose every write fails with `kind`.
    struct Failing(io::ErrorKind);

    impl Write for Failing {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(self.0.into())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn output_ends_with_one_newline() {
        let mut out = Vec::new();
        emit(&mut out, "Table I").unwrap();
        assert_eq!(out, b"Table I\n");
    }

    #[test]
    fn a_closed_pipe_ends_the_write_quietly() {
        assert!(emit(&mut Failing(io::ErrorKind::BrokenPipe), "Table I").is_ok());
    }

    #[test]
    fn other_write_errors_are_reported() {
        let err = emit(&mut Failing(io::ErrorKind::PermissionDenied), "Table I").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::PermissionDenied);
    }
}
