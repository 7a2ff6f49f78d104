//! Regenerates the paper's `ablation_onupdr` artifact. See pumg-bench's lib docs.
fn main() {
    let scale = pumg_bench::Scale::from_env();
    pumg_bench::ablation_onupdr(scale).print();
}
