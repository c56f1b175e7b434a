fn main() {
    noc_bench::run_figure(env!("CARGO_BIN_NAME"))
}
