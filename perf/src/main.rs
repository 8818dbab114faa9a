fn main() -> std::process::ExitCode {
    tasti_perf::cli::main()
}
