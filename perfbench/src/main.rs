//! `perfbench --workload <serve_zipf|live_ingest|build_restart> --seed N
//! --seconds S --trace 0|1` — runs one workload and prints its report,
//! ending with one JSON result line. See `perfbench/README.md`.

use perfbench::{build_restart, live_ingest, serve_zipf, util::Host};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("build-store") {
        if let Err(e) = perfbench::build_store_child(&argv[1..]) {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
        return;
    }
    let args = match perfbench::parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: perfbench --workload <serve_zipf|live_ingest|build_restart> \
                 --seed N --seconds S --trace 0|1 [--scale full|tiny]"
            );
            std::process::exit(2);
        }
    };
    let host = Host::probe();
    let result = match args.workload.as_str() {
        "serve_zipf" => serve_zipf::run(&args),
        "live_ingest" => live_ingest::run(&args),
        "build_restart" => build_restart::run(&args),
        other => Err(format!("unknown workload {other}")),
    };
    match result {
        Ok(report) => std::process::exit(perfbench::emit(&args, &host, &report)),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
