//! Experiment drivers regenerating the DASP paper's tables and figures.
//!
//! Each `figNN`/`tableN` module computes one experiment end to end — build
//! the workload, run every method on the simulated device, verify each
//! result against the exact CPU reference, estimate times, aggregate — and
//! returns printable rows. The `dasp-experiments` binary dispatches to
//! them and writes CSVs next to a text summary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod output;

pub use experiments::{ext_merge, fig01, fig02, fig09, fig10, fig11, fig12, fig13, table1, table2};

/// `print!` for the binaries' stdout. A reader that goes away early
/// (`dasp-spmv m.mtx | head -1`) ends the output, not the run: writes
/// after a broken pipe are dropped, so the binary finishes and exits
/// with the code the run would have had (for `--verify-plan`, the
/// verdict). Any other write error panics, as `print!` does.
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::write_stdout(::std::format_args!($($arg)*))
    };
}

/// `println!` counterpart of [`out!`].
#[macro_export]
macro_rules! outln {
    () => {
        $crate::write_stdout(::std::format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::write_stdout(::std::format_args!("{}\n", ::std::format_args!($($arg)*)))
    };
}

/// The write behind [`out!`] and [`outln!`].
#[doc(hidden)]
pub fn write_stdout(args: std::fmt::Arguments) {
    use std::io::Write;
    if let Err(e) = std::io::stdout().write_fmt(args) {
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            panic!("failed printing to stdout: {e}");
        }
    }
}
