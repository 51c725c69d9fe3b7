fn main() -> std::process::ExitCode {
    nosv_benchmark::cli::main()
}
