use pado_perf::suite::{self, Args, USAGE};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let code = if let Some(workload) = &args.workload {
        suite::run_one(&args, workload)
    } else {
        suite::run_all(&args)
    };
    std::process::exit(code);
}
