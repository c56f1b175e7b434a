//! `noc-cli` — command-line front end for the self-configurable NoC stack. Run it
//! without arguments for its commands and flags, the rows of the `COMMANDS` table.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().and_then(|name| noc_cli::command(name)) else {
        eprint!("{}", noc_cli::usage());
        return ExitCode::from(2);
    };
    match (command.run)(&args[1..]) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
