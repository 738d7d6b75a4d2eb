//! `dwmplace` — command-line front end for the DWM placement toolkit.
//!
//! See [`commands::USAGE`] or run `dwmplace help`.
//!
//! Exit codes: 0 success, 1 internal error, 2 usage error, 3 I/O
//! error, 4 malformed input file.

mod args;
mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let parsed = match args::ParsedArgs::parse(std::env::args().skip(1)) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", commands::USAGE);
            return ExitCode::from(commands::CliError::USAGE);
        }
    };
    // Global --threads N caps the parallel workers for every command
    // (equivalent to DWM_THREADS=N; --threads 1 forces sequential).
    // The override lives for the whole process, so the guard is leaked.
    match parsed.opt_num("threads", 0usize) {
        Ok(0) => {}
        Ok(n) => std::mem::forget(dwm_foundation::par::override_threads(n)),
        Err(e) => {
            eprintln!("error: {e}\n\n{}", commands::USAGE);
            return ExitCode::from(commands::CliError::USAGE);
        }
    }
    let code = match commands::dispatch(&parsed)
        .and_then(|out| commands::write_report(&mut std::io::stdout().lock(), &out))
    {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.code)
        }
    };
    // Global --obs switch: after any command, dump the metric registry
    // as JSON to stderr so stdout stays machine-parseable.
    if parsed.switch("obs") {
        eprintln!(
            "{}",
            dwm_foundation::obs::dump_json(&[dwm_foundation::obs::global()]).to_pretty()
        );
    }
    code
}
