//! The `infpdb` binary: see `infpdb::cli` for the table format and
//! subcommands. The long-running `serve` and interactive `shell`
//! subcommands are handled here (they own stdin/stdout for their
//! lifetime); everything else dispatches through `cli::run`.

use std::io::IsTerminal;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => {
            let Some(table_path) = args.get(1).filter(|a| !a.starts_with("--")) else {
                eprintln!(
                    "infpdb: usage: infpdb serve <table-file> [--bind ADDR] [--threads N] \
                     [--parallelism P] [--scheduler fixed|stealing] [--eps E] \
                     [--quota-rps R] [--quota-burst B] [--arena-stats] [--tail-mass M] \
                     [--tail-start K] [--store DIR] [--shard-capacity C] \
                     [--snapshot-every SECS]"
                );
                std::process::exit(1);
            };
            let run = std::fs::read_to_string(table_path)
                .map_err(|e| infpdb::cli::CliError::Usage(format!("cannot read {table_path}: {e}")))
                .and_then(|table| {
                    let opts = infpdb::netcmd::parse_serve_options(&args[2..])?;
                    infpdb::netcmd::cmd_serve(&table, &opts, std::io::stdout())
                });
            if let Err(e) = run {
                eprintln!("infpdb: {e}");
                std::process::exit(1);
            }
        }
        Some("shell") => {
            let stdin = std::io::stdin();
            let interactive = stdin.is_terminal();
            if let Err(e) =
                infpdb::shell::repl(stdin.lock(), std::io::stdout(), &args[1..], interactive)
            {
                eprintln!("infpdb: {e}");
                std::process::exit(1);
            }
        }
        _ => match infpdb::cli::run(&args, |path| std::fs::read_to_string(path)) {
            Ok(out) => print!("{out}"),
            Err(e) => {
                eprintln!("infpdb: {e}");
                std::process::exit(1);
            }
        },
    }
}
